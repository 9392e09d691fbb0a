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
RNG = np.random.default_rng(20260826)


def _random_params():
    while True:
        r, rp, rpp = RNG.uniform(-0.9, 0.9, size=3)
        if r * r + rp * rp < 0.95 and 1 - r * r - rp * rp + rpp * rpp > 1e-3:
            return transfer.ReflectionParams(r, rp, rpp)


def test_su11_suite_random():
    for _ in range(1000):
        p = _random_params()
        E = RNG.uniform(-30, 30)
        ell = math.exp(RNG.uniform(0.0, 3.0))
        T = transfer.t_matrix(E, p.varrho, ell)
        assert abs(np.linalg.det(T) - 1.0) < 1e-12
        # pseudo-unitarity T^dagger sigma_z T = sigma_z
        assert np.max(np.abs(T.conj().T @ SIGMA_Z @ T - SIGMA_Z)) < 1e-12
        # inverse via negated coupling
        Ti = transfer.t_matrix(E, -p.varrho, ell)
        assert np.max(np.abs(T @ Ti - np.eye(2))) < 1e-12


def test_n_matrices_determinant():
    for _ in range(200):
        p = _random_params()
        n_plus, n_minus = transfer.n_matrices(p)
        want_det = 1 - p.r**2 - p.r_prime**2 + p.r_dprime**2
        assert abs(np.linalg.det(n_plus) - want_det) < 1e-12
        assert abs(np.linalg.det(n_minus) - want_det) < 1e-12


def test_l_matrix_from_matchings():
    # gauge-reduced couplings (r'' = 0): L is minus-matching^{-1} plus-matching
    for _ in range(200):
        r, rp = RNG.uniform(-0.6, 0.6, size=2)
        p = transfer.ReflectionParams(r, rp, 0.0)
        n_plus, n_minus = transfer.n_matrices(p)
        L = transfer.l_matrix(p)
        assert np.max(np.abs(np.linalg.solve(n_minus, n_plus) - L)) < 1e-10


def test_t_matrix_rejects_unit_coupling():
    with pytest.raises(SingularCouplingError):
        transfer.t_matrix(1.0, 1.0 + 0j, 2.0)


def test_charge_conservation_exact_propagation():
    m = models.ModelSpec("riemann", epsilon=0.3, sigma=0.5)
    trace = transfer.propagate_exact(m, 17.3, 1.1, 800)
    q = trace.charge
    assert np.max(np.abs(q - q[0])) < 1e-8


def test_boundary_vector_charge_free():
    b = transfer.boundary_vector(0.73)
    assert abs(b.charge) < 1e-14
    assert abs(b.norm2 - 2.0) < 1e-14


def test_decompose_recompose_roundtrip():
    for r in (0.1, 0.45, -0.3):
        for E, ell in ((3.0, 2.0), (11.0, 5.0)):
            g, phi = transfer.decompose_T(r, ell, E)
            assert abs(math.exp(g) - (1 + r) / (1 - r)) < 1e-12
            T = transfer.recompose_T(g, phi)
            want = transfer.t_matrix(E, complex(r), ell)
            # recomposition reproduces the magnitude structure
            assert np.max(np.abs(np.abs(T) - np.abs(want))) < 1e-10


def test_harmonic_S_periodicity_and_trace():
    g = 0.62
    S = transfer.harmonic_S(4.1, g)
    S2 = transfer.harmonic_S(4.1 + 2 * math.pi, g)
    assert np.max(np.abs(S2 + S)) < 1e-12
    assert abs(np.trace(S) - 2 * math.cosh(g) * math.cos(4.1 / 2)) < 1e-12


def test_harmonic_bands_half_gap():
    for eps in (0.1, 0.3, 0.6):
        bands = transfer.harmonic_bands(eps)
        assert abs(bands.delta - math.asin(2 * eps / (1 + eps**2)) / math.pi) < 1e-12
        assert bands.in_continuum(math.pi)
        assert not bands.in_continuum(2 * math.pi)


def test_kicked_step_matches_transfer_product():
    # one kicked step equals the phase rotation followed by the kick
    g, delta = 0.4, 1.3
    a = transfer.AmplitudeVector(0.3 + 0.1j, -0.2 + 0.5j)
    out = transfer.kicked_step(a, delta, g)
    M = np.array([[cmath.exp(-1j * delta), 0], [0, cmath.exp(1j * delta)]])
    K = np.array([[math.cosh(g), math.sinh(g)], [math.sinh(g), math.cosh(g)]])
    want = M @ K @ a.as_array()
    assert np.max(np.abs(out.as_array() - want)) < 1e-12


def bch_amplitude(R: float, Phi: float, vartheta: float) -> transfer.AmplitudeVector:
    """Scalar oracle for bch_trace: exp(-R (cos Phi sigma_x + sin Phi sigma_y))
    applied to the boundary seed, with e^R factored into log_scale above R = 300."""
    ei_t = cmath.exp(1j * vartheta)
    if R <= 300.0:
        ch, sh = math.cosh(R), math.sinh(R)
        return transfer.AmplitudeVector(ch - sh * cmath.exp(-1j * Phi) * ei_t,
                                        ei_t * ch - sh * cmath.exp(1j * Phi))
    half_em2r = 0.5 * math.exp(-2 * R)
    a_m = (0.5 + half_em2r) - (0.5 - half_em2r) * cmath.exp(-1j * Phi) * ei_t
    a_p = ei_t * (0.5 + half_em2r) - (0.5 - half_em2r) * cmath.exp(1j * Phi)
    return transfer.AmplitudeVector(a_m, a_p, log_scale=R)


def test_bch_amplitude_norm_closed_forms():
    # norm e^{2R}(1 - cos(Phi - th)) + e^{-2R}(1 + cos(Phi - th)), from the
    # oracle and from bch_trace over the same (R, Phi) pairs
    th, R = 0.9, 1.7
    Rs = np.array([0.0, R, R, 400.0])
    Phis = np.array([0.0, th, th + math.pi, th + math.pi])
    trace = transfer.bch_trace(transfer.SemiclassicalSums(0, Rs, Phis), th)
    oracle = [bch_amplitude(r, p, th) for r, p in zip(Rs, Phis)]
    for norm2 in (np.exp(trace.log_norm2[:3]), [v.norm2 for v in oracle[:3]]):
        assert abs(norm2[0] - 2.0) < 1e-14
        assert abs(norm2[1] - 2 * math.exp(-2 * R)) < 1e-12
        assert abs(norm2[2] - 2 * math.exp(2 * R)) < 1e-9
    for log_norm2 in (trace.log_norm2[3], oracle[3].log_norm2):
        assert abs(log_norm2 - (math.log(2) + 800.0)) < 1e-6


_phase = st.floats(-10.0, 10.0)
_R = st.one_of(st.floats(0.0, 300.0), st.floats(300.0, 700.0, exclude_min=True))


@given(st.lists(st.tuples(_R, _phase), min_size=1, max_size=20), _phase)
def test_bch_trace_matches_scalar_oracle(pairs, th):
    Rs, Phis = (np.array(c) for c in zip(*pairs))
    trace = transfer.bch_trace(transfer.SemiclassicalSums(1, Rs, Phis), th)
    for i, (R, Phi) in enumerate(pairs):
        want = bch_amplitude(R, Phi, th)
        # components are differences of terms of size e^R (scaled out above 300)
        tol = 1e-12 * (math.exp(R) if R <= 300.0 else 1.0)
        assert abs(trace.a_minus[i] - want.a_minus) <= tol
        assert abs(trace.a_plus[i] - want.a_plus) <= tol
        assert trace.log_scale[i] == want.log_scale


_coupling = st.builds(cmath.rect, st.floats(0.0, 0.99), st.floats(-math.pi, math.pi))


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
    want = transfer.boundary_vector(th).as_array()
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
    got = sums.complex_sum
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


def test_scalar_product_conjugate_symmetry():
    m = models.ModelSpec("riemann", epsilon=0.25, sigma=0.5)
    t1 = transfer.propagate_exact(m, 5.0, 0.7, 300)
    t2 = transfer.propagate_exact(m, 8.0, 0.7, 300)
    s12 = transfer.scalar_product(5.0, t1, 8.0, t2, m)
    s21 = transfer.scalar_product(8.0, t2, 5.0, t1, m)
    assert abs(s12 - s21.conjugate()) < 1e-8 * max(1.0, abs(s12))


def test_decaying_direction_harmonic_bound_state():
    m = models.ModelSpec("harmonic", epsilon=0.3)
    v = transfer.decaying_direction(m, 2 * math.pi, K=300)
    b = np.array([1.0, 1.0]) / math.sqrt(2)  # boundary vector at theta = 0
    mis = abs(b[0] * v[1] - b[1] * v[0])
    assert mis < 1e-10
