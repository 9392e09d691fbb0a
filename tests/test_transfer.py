"""Transfer-matrix layer: SU(1,1) structure, propagation, BCH amplitudes."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mirrorspec import models, transfer
from mirrorspec.errors import SingularCouplingError

SIGMA_Z = np.diag([1.0, -1.0])

_phase = st.floats(-10.0, 10.0)
_coupling = st.builds(cmath.rect, st.floats(0.0, 0.99), st.floats(-math.pi, math.pi))


@given(_coupling, st.floats(-50.0, 50.0), st.floats(-5.0, 5.0))
def test_su11_suite_random(varrho, E, log_ell):
    # pseudo-unitarity T^dagger sigma_z T = sigma_z, and the inverse is the
    # matrix with the coupling negated; rounding scales with the squared entries
    T = transfer.t_matrix(E, varrho, math.exp(log_ell))
    Ti = transfer.t_matrix(E, -varrho, math.exp(log_ell))
    tol = 1e-14 * np.sum(np.abs(T) ** 2)
    assert np.max(np.abs(T.conj().T @ SIGMA_Z @ T - SIGMA_Z)) <= tol
    assert np.max(np.abs(T @ Ti - np.eye(2))) <= tol


def _matchings(r: float, rp: float, rpp: float) -> tuple[np.ndarray, np.ndarray]:
    """Matching matrices N_+ and N_- across one mirror with couplings (r, r', r'')."""
    n_plus = np.array([[1 + 1j * rpp, 1j * r + rp], [-1j * r + rp, 1 - 1j * rpp]])
    n_minus = np.array([[1 - 1j * rpp, -(1j * r + rp)], [-(-1j * r + rp), 1 + 1j * rpp]])
    return n_plus, n_minus


_small = st.floats(-0.6, 0.6)


@given(_small, _small, _small)
def test_n_matrices_determinant(r, rp, rpp):
    # det N_+ = det N_- = 1 - r^2 - r'^2 + r''^2
    det = 1 - r * r - rp * rp + rpp * rpp
    for n in _matchings(r, rp, rpp):
        assert abs(np.linalg.det(n) - det) < 1e-12


@given(_small, _small)
def test_l_matrix_from_matchings(r, rp):
    # with r'' = 0 the coset element N_-^{-1} N_+ is the transfer matrix at
    # E = 0 with varrho = r - i r', conjugated by D = diag(1, -i)
    n_plus, n_minus = _matchings(r, rp, 0.0)
    D = np.diag([1.0, -1j])
    want = D @ transfer.t_matrix(0.0, complex(r, -rp), 2.0) @ np.linalg.inv(D)
    assert np.max(np.abs(np.linalg.solve(n_minus, n_plus) - want)) < 1e-12


def test_t_matrix_rejects_unit_coupling():
    with pytest.raises(SingularCouplingError):
        transfer.t_matrix(1.0, 1.0 + 0j, 2.0)


def test_charge_conservation_exact_propagation():
    m = models.ModelSpec("riemann", epsilon=0.3, sigma=0.5)
    trace = transfer.propagate_exact(m, 17.3, 1.1, 800)
    q = trace.charge
    assert np.max(np.abs(q - q[0])) < 1e-8


def test_boundary_vector_charge_free():
    # the boundary seed (1, e^{i vartheta}) has norm^2 2 and no sigma_z charge
    m = models.ModelSpec("riemann", epsilon=0.3, sigma=0.5)
    trace = transfer.propagate_exact(m, 17.3, 0.73, 5)
    assert abs(trace.charge[0]) < 1e-14
    assert abs(trace.norm2[0] - 2.0) < 1e-14


def _rotation(phi: float) -> np.ndarray:
    """e^{i phi sigma_z}."""
    return np.diag([cmath.exp(1j * phi), cmath.exp(-1j * phi)])


def test_decompose_recompose_roundtrip():
    # kicked-rotator split of a real coupling, entry by entry:
    # T(E, r, ell) = e^{-i phi sz} e^{g sx} e^{i phi sz} with e^g = (1+r)/(1-r)
    # and phi = E log ell
    for r in (0.1, 0.45, -0.3):
        g = math.log((1 + r) / (1 - r))
        for E, ell in ((3.0, 2.0), (11.0, 5.0), (-7.5, 1.3)):
            phi = E * math.log(ell)
            split = np.array([[math.cosh(g), cmath.exp(-2j * phi) * math.sinh(g)],
                              [cmath.exp(2j * phi) * math.sinh(g), math.cosh(g)]])
            assert np.max(np.abs(transfer.t_matrix(E, complex(r), ell) - split)) < 1e-12


def _one_period_step(E: float, eps: float, n: int = 3) -> np.ndarray:
    """S = e^{-g sx} e^{iE sz/2} from the outward step T_n^{-1} of the
    geometric array: S = e^{i phi_n sz} T_n^{-1} e^{-i phi_{n-1} sz}, phi_n = E n/2."""
    step = transfer.t_matrix(E, -eps + 0j, math.exp(n / 2))
    return _rotation(E * n / 2) @ step @ _rotation(-E * (n - 1) / 2)


def test_harmonic_S_periodicity_and_trace():
    # Tr S = 2 cosh g cos(E/2), S(E + 2 pi) = -S(E), and the Bloch condition
    # |Tr S| < 2 holds exactly on the continuum bands of harmonic_bands
    for eps in (0.1, 0.3, 0.6):
        g = math.log((1 + eps) / (1 - eps))
        bands = transfer.harmonic_bands(eps)
        for E in np.linspace(0.0, 4 * math.pi, 161):
            S = _one_period_step(E, eps)
            half_trace = math.cosh(g) * math.cos(E / 2)
            assert abs(np.trace(S) - 2 * half_trace) < 1e-11
            assert np.max(np.abs(_one_period_step(E + 2 * math.pi, eps) + S)) < 1e-11
            if abs(abs(half_trace) - 1.0) > 1e-9:
                assert (abs(half_trace) < 1.0) == bands.in_continuum(float(E)), (eps, E)


def test_harmonic_bands_half_gap():
    for eps in (0.1, 0.3, 0.6):
        bands = transfer.harmonic_bands(eps)
        assert abs(bands.delta - math.asin(2 * eps / (1 + eps**2)) / math.pi) < 1e-12
        assert bands.in_continuum(math.pi)
        assert not bands.in_continuum(2 * math.pi)


def test_kicked_step_matches_transfer_product():
    # on the geometric array (ell_n = e^{n/2}) each outward step of
    # propagate_exact is the kick e^{-g sx} between the free precessions
    # e^{-+i phi_n sz}, phi_n = E n / 2
    eps, E, th, K = 0.3, 1.3, 0.7, 40
    g = math.log((1 + eps) / (1 - eps))
    kick = np.array([[math.cosh(g), -math.sinh(g)], [-math.sinh(g), math.cosh(g)]])
    trace = transfer.propagate_exact(models.ModelSpec("harmonic", epsilon=eps), E, th, K)
    a = np.array([1.0, cmath.exp(1j * th)])
    for n in range(1, K + 1):
        a = _rotation(-E * n / 2) @ kick @ _rotation(E * n / 2) @ a
        got = np.array([trace.a_minus[n], trace.a_plus[n]]) * math.exp(trace.log_scale[n])
        assert np.linalg.norm(got - a) <= 1e-12 * np.linalg.norm(a), n


def bch_amplitude(R: float, Phi: float, vartheta: float) -> tuple[complex, complex, float]:
    """Scalar oracle for bch_trace: exp(-R (cos Phi sigma_x + sin Phi sigma_y))
    applied to the boundary seed, as (a_minus, a_plus, log_scale) with e^R
    factored into log_scale above R = 300."""
    ei_t = cmath.exp(1j * vartheta)
    if R <= 300.0:
        ch, sh = math.cosh(R), math.sinh(R)
        return ch - sh * cmath.exp(-1j * Phi) * ei_t, ei_t * ch - sh * cmath.exp(1j * Phi), 0.0
    half_em2r = 0.5 * math.exp(-2 * R)
    a_m = (0.5 + half_em2r) - (0.5 - half_em2r) * cmath.exp(-1j * Phi) * ei_t
    a_p = ei_t * (0.5 + half_em2r) - (0.5 - half_em2r) * cmath.exp(1j * Phi)
    return a_m, a_p, R


def test_bch_amplitude_norm_closed_forms():
    # norm e^{2R}(1 - cos(Phi - th)) + e^{-2R}(1 + cos(Phi - th)), from the
    # oracle and from bch_trace over the same (R, Phi) pairs
    th, R = 0.9, 1.7
    Rs = np.array([0.0, R, R, 400.0, 400.0])
    Phis = np.array([0.0, th, th + math.pi, th + math.pi, th])
    trace = transfer.bch_trace(transfer.SemiclassicalSums(0, Rs, Phis), th)
    oracle = [bch_amplitude(r, p, th) for r, p in zip(Rs, Phis)]
    log_norm2 = [math.log(abs(am) ** 2 + abs(ap) ** 2) + 2 * ls for am, ap, ls in oracle[:4]]
    for norm2 in (np.exp(trace.log_norm2[:3]), np.exp(log_norm2[:3])):
        assert abs(norm2[0] - 2.0) < 1e-14
        assert abs(norm2[1] - 2 * math.exp(-2 * R)) < 1e-12
        assert abs(norm2[2] - 2 * math.exp(2 * R)) < 1e-9
    for value in (trace.log_norm2[3], log_norm2[3]):
        assert abs(value - (math.log(2) + 800.0)) < 1e-6
    # tuned phase past R = 372, where 2 e^{-2R} is below the smallest double
    assert abs(trace.log_norm2[4] - (math.log(2) - 800.0)) < 1e-12 * 800.0


_R = st.one_of(st.floats(0.0, 300.0), st.floats(300.0, 700.0, exclude_min=True))


@given(st.lists(st.tuples(_R, _phase), min_size=1, max_size=20), _phase)
def test_bch_trace_matches_scalar_oracle(pairs, th):
    Rs, Phis = (np.array(c) for c in zip(*pairs))
    trace = transfer.bch_trace(transfer.SemiclassicalSums(1, Rs, Phis), th)
    for i, (R, Phi) in enumerate(pairs):
        a_m, a_p, log_scale = bch_amplitude(R, Phi, th)
        # components are differences of terms of size e^R; compare both in
        # the oracle's scale, where they are O(1) above R = 300
        rescale = math.exp(trace.log_scale[i] - log_scale)
        tol = 1e-12 * (math.exp(R) if R <= 300.0 else 1.0)
        assert abs(trace.a_minus[i] * rescale - a_m) <= tol
        assert abs(trace.a_plus[i] * rescale - a_p) <= tol


class _Chain:
    """Duck-typed model at radii sqrt(n): no coupling on the boundary site 1,
    the given couplings on sites 2, 3, ..."""

    boundary_index = 1

    def __init__(self, rhos):
        self.rhos = np.array([0j, 0j] + list(rhos))

    def log_ell_table(self, kmax):
        return 0.5 * np.log(np.maximum(np.arange(kmax + 1), 1.0))

    def rho_table(self, kmax):
        return self.rhos[:kmax + 1]


def test_semiclassical_phase_carried_through_zero_sums():
    # at E = 0 the running sum is 0, 0.2i, 0 (exactly), 0.1, 0.1 + 0.1i
    sums = transfer.semiclassical_sums(_Chain([0.2j, -0.2j, 0.1, 0.1j]), 0.0, 5)
    assert np.allclose(sums.R, [0.0, 0.2, 0.0, 0.1, 0.1 * math.sqrt(2)], rtol=1e-15)
    assert np.allclose(sums.Phi, [0.0, -math.pi / 2, -math.pi / 2, 0.0, -math.pi / 4],
                       rtol=1e-15, atol=0.0)


@given(st.lists(_coupling, min_size=1, max_size=24), st.floats(-50.0, 50.0), _phase)
def test_propagate_exact_conserves_charge(rhos, E, th):
    trace = transfer.propagate_exact(_Chain(rhos), E, th, len(rhos) + 1)
    q = trace.charge
    assert np.all(np.abs(q - q[0]) <= 1e-8 * trace.norm2)


@given(st.lists(_coupling, min_size=1, max_size=24), st.floats(-50.0, 50.0), _phase)
@example([0.95 + 0j] * 150, 0.0, 0.3)  # grows past the 1e150 rescale threshold
def test_propagate_exact_matches_matrix_product(rhos, E, th):
    trace = transfer.propagate_exact(_Chain(rhos), E, th, len(rhos) + 1)
    want = np.array([1.0, cmath.exp(1j * th)])
    bound = np.linalg.norm(want)
    for i, rho in enumerate(rhos, start=1):
        want = transfer.t_matrix(E, -rho, math.sqrt(i + 1)) @ want
        bound *= (1 + abs(rho)) / (1 - abs(rho))  # spectral norm of T
        got = np.array([trace.a_minus[i], trace.a_plus[i]]) * math.exp(trace.log_scale[i])
        assert np.linalg.norm((got - want) / bound) <= 1e-12


@given(_coupling, st.floats(-50.0, 50.0), st.floats(-5.0, 5.0))
def test_t_matrix_unit_determinant(varrho, E, log_ell):
    T = transfer.t_matrix(E, varrho, math.exp(log_ell))
    # cancellation in det scales with the squared entries, up to ~1e4 at |varrho| = 0.99
    assert abs(np.linalg.det(T) - 1.0) <= 1e-14 * np.sum(np.abs(T) ** 2)


def test_semiclassical_sums_match_direct():
    m = models.ModelSpec("riemann", epsilon=0.25, sigma=0.5)
    E = 9.4
    sums = transfer.semiclassical_sums(m, E, 50)
    rho = m.rho_table(50)
    direct = np.cumsum([rho[n] * cmath.exp(-2j * E * 0.5 * math.log(max(n, 1)))
                        for n in range(1, 51)])
    got = sums.R * np.exp(-1j * sums.Phi)
    assert np.max(np.abs(got - direct)) < 1e-12


def test_semiclassical_phase_unwrapped():
    m = models.ModelSpec("riemann", epsilon=0.25, sigma=0.5)
    sums = transfer.semiclassical_sums(m, 14.13, 3000)
    # unwrapped phase should never jump by ~2*pi between neighbours
    jumps = np.abs(np.diff(sums.Phi))
    assert np.max(jumps) < math.pi


def test_wavefunction_norm_harmonic_limit():
    # tuned boundary on the geometric array: one-kick norm is 1/(e^{2 eps}-1),
    # approaching 1/(2 eps); exact propagation decays at the doubled rate
    # e^{-2 g n} with g ~ 2 eps and stays convergent
    eps = 0.02
    m = models.ModelSpec("harmonic", epsilon=eps)
    sums = transfer.semiclassical_sums(m, 2 * math.pi, 400)
    rep = transfer.wavefunction_norm(m, transfer.bch_trace(sums, 0.0))
    assert rep.verdict == "convergent"
    assert abs(rep.partial * (math.exp(2 * eps) - 1) - 1.0) < 0.05
    assert abs(rep.partial * 2 * eps - 1.0) < 0.05
    exact = transfer.wavefunction_norm(
        m, transfer.propagate_exact(m, 2 * math.pi, 0.0, 300))
    assert exact.verdict == "convergent"
    g = math.log((1 + eps) / (1 - eps))
    assert abs(exact.partial * (math.exp(2 * g) - 1) - 1.0) < 0.1


def test_wavefunction_norm_divergent_in_gap():
    m = models.ModelSpec("harmonic", epsilon=0.3)
    trace = transfer.propagate_exact(m, 2 * math.pi, math.pi, 400)
    rep = transfer.wavefunction_norm(m, trace)
    assert rep.verdict == "divergent"


def test_decaying_direction_harmonic_bound_state():
    m = models.ModelSpec("harmonic", epsilon=0.3)
    v = transfer.decaying_direction(m, 2 * math.pi, K=300)
    b = np.array([1.0, 1.0]) / math.sqrt(2)  # boundary vector at theta = 0
    mis = abs(b[0] * v[1] - b[1] * v[0])
    assert mis < 1e-10
