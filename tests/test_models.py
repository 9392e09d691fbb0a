"""Model families, zero tables, boundary-phase tuning, Perron oracle,
energy classification."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from mirrorspec import models, numkit, transfer
from mirrorspec.errors import DomainError


def test_model_validation():
    with pytest.raises(DomainError):
        models.ModelSpec("unknown")
    with pytest.raises(DomainError):
        models.ModelSpec("riemann", epsilon=1.5)
    with pytest.raises(DomainError):
        models.ModelSpec("dirichlet")


def test_rho_tables(chi4):
    m = models.ModelSpec("riemann", epsilon=0.2, sigma=0.5)
    rho = m.rho_table(10)
    assert abs(rho[1] - 0.2) < 1e-15
    assert abs(rho[4]) == 0.0  # mu(4) = 0
    assert abs(rho[6] - 0.2 / math.sqrt(6)) < 1e-15
    d = models.ModelSpec("dirichlet", epsilon=0.2, sigma=0.5, character=chi4)
    rhod = d.rho_table(10)
    assert abs(rhod[2]) == 0.0  # chi(2) = 0
    assert abs(rhod[3] - (-0.2 / math.sqrt(3)) * chi4(3)) < 1e-15


def _reflection_sum(model, E: float, K: int) -> complex:
    """sum_{n <= K} varrho_n ell_n^{-2iE} from the model's own tables."""
    n0 = model.boundary_index
    terms = model.rho_table(K) * np.exp(-2j * E * model.log_ell_table(K))
    return complex(np.sum(terms[n0:]))


def test_r_infinity_against_partial_sums(chi4):
    # large-k limits of the reflection sums, in closed form from mpmath:
    # eps / (1 - e^{-lam - iE}), eps Li_s(e^{-lam}), eps / zeta(s) and
    # eps / L(s, chi), with s = 2 + iE; the sigma = 2 tails stay below eps / K
    E, eps, K = 3.7, 0.25, 20000
    s = mpmath.mpc(2.0, E)
    chi = [chi4(n) for n in range(4)]
    cases = [
        (models.ModelSpec("harmonic-damped", epsilon=eps, lam=0.4),
         eps / (1 - cmath.exp(-0.4 - 1j * E)), 1e-12),
        (models.ModelSpec("polylog", epsilon=eps, sigma=2.0, lam=0.4),
         eps * complex(mpmath.polylog(s, math.exp(-0.4))), 1e-12),
        (models.ModelSpec("riemann", epsilon=eps, sigma=2.0),
         eps / complex(mpmath.zeta(s)), 1e-4),
        (models.ModelSpec("dirichlet", epsilon=eps, sigma=2.0, character=chi4),
         eps / complex(mpmath.dirichlet(s, chi)), 1e-4),
    ]
    for model, want, tol in cases:
        assert abs(_reflection_sum(model, E, K) - want) < tol, model.kind


def test_riemann_zeros_known_ordinates(zeros10):
    known = (14.134725141734693, 21.022039638771555, 25.010857580145688)
    for got, want in zip(zeros10, known):
        assert abs(got - want) < 1e-6
    # interlacing sanity: strictly increasing
    assert all(b > a for a, b in zip(zeros10, zeros10[1:]))


def test_zero_ordinates_are_hardy_z_roots(zeros10):
    for E in zeros10[:5]:
        assert abs(numkit.hardy_z(E)) < 1e-8


def test_z_prime_sign_alternates(zeros10):
    for n, E in enumerate(zeros10, start=1):
        assert models.z_prime_sign(n) == (1 if mpmath.siegelz(E, derivative=1) > 0 else -1)
    # Z is even, so Z' is odd: the mirrored zero carries the opposite sign
    assert models.z_prime_sign(-1) == -models.z_prime_sign(1)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_z_prime_sign_dirichlet_matches_finite_difference(q):
    # Re Z_chi starts at sign central_sign(chi), not zeta's -1
    from mirrorspec.arith import characters_mod
    h = 1e-5
    for chi in (c for c in characters_mod(q) if c.primitive):
        z = lambda t: numkit.l_phase_split(t, chi).z.real
        for n, E in enumerate(models.l_function_zeros(chi, count=5), start=1):
            fd = 1 if z(E + h) - z(E - h) > 0 else -1
            assert models.z_prime_sign(n, chi) == fd, (q, chi.index, n)


def test_theta_star_wrap_and_decay_phase(E1):
    th = models.theta_star_riemann(1, E1)
    assert -math.pi < th <= math.pi
    # the tuned phase really aligns the semiclassical phase: cos(Phi - th) -> 1
    m = models.ModelSpec("riemann", epsilon=0.25, sigma=0.5)
    sums = transfer.semiclassical_sums(m, E1, 2000)
    _, Phi = sums.at(2000)
    assert math.cos(Phi - th) > 0.99


def test_l_function_zeros_and_theta_star(chi4):
    zs = models.l_function_zeros(chi4, count=2)
    assert abs(zs[0] - 6.0209489) < 1e-5
    th = models.theta_star_dirichlet(chi4, 1, zs[0])
    assert -math.pi < th <= math.pi
    md = models.ModelSpec("dirichlet", epsilon=0.25, sigma=0.5, character=chi4)
    sums = transfer.semiclassical_sums(md, zs[0], 2000)
    _, Phi = sums.at(2000)
    assert math.cos(Phi - th) > 0.99


def test_perron_partial_sum_convergent_region():
    got = models.perron_partial_sum(2.0, 200_000)
    assert abs(got - 6 / math.pi**2) < 1e-4


def test_perron_residue_expansion_tracks_direct(zeros10, perron_residue_series):
    z = 2.0
    for x in (2000.0, 20000.0):
        direct = models.perron_partial_sum(z, int(x))
        series = perron_residue_series(z, x, list(zeros10))
        assert abs(series - direct) < 0.05 * max(abs(direct), 0.1)


def test_perron_residue_expansion_double_pole_at_zero(E1, perron_residue_series):
    # at z = rho_1 the leading residue is log(x)/zeta' - zeta''/(2 zeta'^2);
    # dropping the constant leaves a 3-6% error over this range
    z = 0.5 + 1j * E1
    zeros50 = models.riemann_zeros(count=50)
    for x in (10**3, 10**4, 10**5, 10**6):
        direct = models.perron_partial_sum(z, x)
        series = perron_residue_series(z, float(x), zeros50)
        assert abs(series - direct) < 0.01 * abs(direct)


def test_classify_harmonic_verdict_matrix():
    hp = models.ModelSpec("harmonic", epsilon=0.3)
    hn = models.ModelSpec("harmonic", epsilon=-0.3)
    cases = [
        (hp, 2 * math.pi, 0.0, 400, "DiscreteCandidate"),
        (hp, 2 * math.pi, math.pi, 400, "Gap"),
        (hp, math.pi, 0.0, 400, "Continuum"),
        (hn, 2 * math.pi, math.pi, 400, "DiscreteCandidate"),
        (hn, 2 * math.pi, 0.0, 400, "Gap"),
        # the bound state decays below 1e-300 by k ~ 1200: the exact
        # propagation rescales it instead of underflowing to NaN
        (hp, 0.0, 0.0, 3000, "DiscreteCandidate"),
    ]
    for m, E, th, K, want in cases:
        r = models.classify_energy(m, E, th, K_max=K)
        assert r.verdict == want, (E, th, K)
    g = math.log(1.3 / 0.7)
    assert abs(r.growth_exponent + 2 * g) < 1e-12


def test_classify_in_gap_tuned_bound_state():
    # boundary phases admitting an in-gap eigenvalue: tan(E/2) derived from
    # the kicked-map fixed point
    eps, th = 0.3, 2.0
    g = math.log((1 + eps) / (1 - eps))
    E = 2 * math.atan(math.sin(th) / (math.cos(th) + 1 / math.tanh(g)))
    m = models.ModelSpec("harmonic", epsilon=eps)
    r = models.classify_energy(m, E + 4 * math.pi, th, K_max=400)
    assert r.verdict == "DiscreteCandidate"


def test_classify_riemann_first_zero(E1):
    m = models.ModelSpec("riemann", epsilon=0.25, sigma=0.5)
    th = models.theta_star_riemann(1, E1)
    r = models.classify_energy(m, E1, th, K_max=2000)
    assert r.verdict == "DiscreteCandidate"
    assert r.ci[1] < 0
    off = models.classify_energy(m, 24.0, math.pi, K_max=2000)
    assert off.verdict == "Continuum"


def test_classify_synthetic_off_critical_probe():
    # a coupling sequence whose reflection sum grows like a power of k mimics
    # a zero off the critical line; the verdict must be NonNormalizable
    class _Probe:
        kind = "synthetic"
        boundary_index = 1

        def log_ell_table(self, kmax):
            n = np.arange(kmax + 1, dtype=float)
            out = 0.5 * np.log(np.maximum(n, 1.0))
            return out

        def rho_table(self, kmax):
            n = np.arange(kmax + 1, dtype=float)
            growth = 0.3
            out = 0.25 * growth * np.maximum(n, 1.0) ** (growth - 1.0)
            out[0] = 0.0
            return out.astype(np.complex128)

    r = models.classify_energy(_Probe(), 0.0, math.pi, K_max=2000)
    assert r.verdict == "NonNormalizable"
    assert r.ci[0] > 0


def test_classify_rejects_short_fit_window():
    for kind, K in (("riemann", 5), ("harmonic", 19)):
        with pytest.raises(DomainError, match="at least 3 sites"):
            models.classify_energy(models.ModelSpec(kind), 14.0, math.pi, K_max=K)
    assert models.classify_energy(models.ModelSpec("harmonic"), 14.0, math.pi,
                                  K_max=20).verdict


def test_weighted_slope_recovers_known_line():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 5.0, 400)
    y = -0.8 * x + 0.3 + rng.normal(0, 0.05, size=x.size)
    slope, half = models._weighted_slope(x, y, np.full(x.size, 1.0))
    assert abs(slope + 0.8) < 0.02
    assert half < 0.02


def test_central_sign_negative_for_even_quadratic():
    # chi mod 5 real even character has positive central section; chi mod 4
    # odd character defines b through the central value sign
    from mirrorspec.arith import characters_mod
    chi4 = next(c for c in characters_mod(4) if not c.is_principal)
    assert models.central_sign(chi4) in (-1, 1)
    assert models.central_sign(chi4) == (
        1 if numkit.l_phase_split(0.0, chi4).z.real >= 0 else -1)
