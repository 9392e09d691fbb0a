"""numkit oracles: every nontrivial evaluator is checked against mpmath."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorspec import arith, models, numkit
from mirrorspec.errors import AccuracyLossWarning, BracketError, DomainError, PoleError


def _mp(z):
    return complex(z)


@pytest.mark.parametrize("s", [
    2.0, 3.5, -0.5 + 0j, 0.5 + 14.134725j, 0.5 + 150.2j, 0.5 + 1400.5j,
    1.5 - 40.0j, 2.0 + 700.0j,
])
def test_zeta_against_mpmath(s):
    got = numkit.zeta(s)
    want = _mp(mpmath.zeta(s))
    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("s,a", [
    (2.5 + 3j, 0.5), (0.5 + 30j, 0.25), (1.5 + 0j, 0.75), (-0.5 + 5j, 1.0),
])
def test_hurwitz_zeta_against_mpmath(s, a):
    got = numkit.hurwitz_zeta(s, a)
    want = _mp(mpmath.zeta(s, a))
    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_zeta_pole_raises():
    with pytest.raises(PoleError):
        numkit.zeta(1.0)


def test_zeta_two_closed_form():
    assert abs(numkit.zeta(2.0).real - math.pi**2 / 6) < 1e-12


@pytest.mark.parametrize("t", [14.0, 100.5, 500.25])
def test_riemann_siegel_theta_and_hardy_z(t, chi1):
    assert abs(numkit.l_theta(t, chi1) - float(mpmath.siegeltheta(t))) < 1e-9
    assert abs(numkit.hardy_z(t, chi1) - float(mpmath.siegelz(t))) < 1e-8


def test_character_mod_one_is_bitwise_riemann_siegel(chi1):
    # the Riemann-Siegel theta and Hardy Z as written for zeta alone, before
    # zeta became the character mod 1: the general theta_chi and Z_chi must
    # reproduce them to the last bit
    def theta(t):
        return numkit.loggamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)

    def hardy_z(t):
        return (cmath.exp(1j * theta(t)) * numkit.zeta(0.5 + 1j * t)).real

    for t in np.linspace(2.0, 1500.0, 400):
        t = float(t)
        assert numkit.l_theta(t, chi1) == theta(t), t
        assert numkit.hardy_z(t, chi1) == hardy_z(t), t


def test_riemann_siegel_pair_reconstructs_zeta(chi1):
    # zeta(1/2 + it) = Z(t) e^{-i theta(t)}
    t = 35.2
    got = numkit.hardy_z(t, chi1) * cmath.exp(-1j * numkit.l_theta(t, chi1))
    want = _mp(mpmath.zeta(0.5 + 1j * t))
    assert abs(got - want) < 1e-10


def test_hardy_z_is_real_even(chi1):
    assert abs(numkit.hardy_z(21.3, chi1) - numkit.hardy_z(-21.3, chi1)) < 1e-10


def test_smoothed_zero_count_near_100(chi1):
    # independent closed form: (t/2pi)(log(t/2pi) - 1) + 7/8 at t = 100
    t = 100.0
    want = t / (2 * math.pi) * (math.log(t / (2 * math.pi)) - 1) + 7 / 8
    assert abs(models.zero_count(chi1, t) - want) < 1e-3


def _bessel_k_quad(nu: complex, x: float) -> complex:
    """Slow oracle: K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du, cut where
    the integrand is 40 e-folds below the answer. The result is
    ~exp(-pi |Im nu| / 2) while the integrand peaks at ~exp(-x), so the
    quadrature runs with 25 + 0.69 |Im nu| digits to survive the cancellation."""
    E = abs(nu.imag)
    u_max = 1.0
    while x * math.cosh(u_max) - E * u_max < 40.0:
        u_max += 0.5
    npts = max(2, int(E * u_max / 3) + 2)
    with mpmath.workdps(int(0.69 * E) + 25):
        mnu, mx = mpmath.mpc(nu), mpmath.mpf(x)
        f = lambda u: mpmath.e ** (-mx * mpmath.cosh(u)) * mpmath.cosh(mnu * u)
        return complex(mpmath.quad(f, [u_max * i / npts for i in range(npts + 1)]))


@pytest.mark.parametrize("nu,x", [
    (0.5 + 0j, 2 * math.pi),
    (0.5 - 1.0j, 2 * math.pi),
    (0.5 - 10.0j, 2 * math.pi),
    (0.5 - 30.0j, 2 * math.pi),
    (1.5 + 4.0j, 1.0),
])
def test_bessel_k_complex_order_against_mpmath(nu, x):
    # the oracle is the independent mpmath.quad integral, not mpmath.besselk
    want = _bessel_k_quad(nu, x)
    assert abs(numkit.bessel_k_complex_order(nu, x) - want) <= 1e-13 * abs(want)


def test_bessel_k_rejects_nonpositive_argument():
    with pytest.raises(DomainError):
        numkit.bessel_k_complex_order(0.5 - 1j, 0.0)


def test_bessel_k_half_order_closed_form():
    x = 3.0
    want = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert abs(numkit.bessel_k_complex_order(0.5, x) - want) < 1e-13


def test_polylog_against_mpmath():
    # Li_s(z) = sum_n z^n / n^s is what the polylog model's couplings sum to:
    # varrho_n = eps e^{-lam n} / n^sigma at E = 0 with z = e^{-lam}; outside the
    # unit disk (lam < 0) the model is refused
    s, z, eps, K = 1.5, 0.5, 0.25, 80
    m = models.ModelSpec("polylog", epsilon=eps, sigma=s, lam=-math.log(z))
    got = complex(np.sum(m.rho_table(K)[1:])) / eps
    assert abs(got - _mp(mpmath.polylog(s, z))) < 1e-13
    with pytest.raises(DomainError):
        models.ModelSpec("polylog", lam=-0.1)


def test_dirichlet_l_known_values(chi4):
    catalan = 0.915965594177219015054603514932
    assert abs(numkit.dirichlet_l(2.0, chi4).real - catalan) < 1e-12
    assert abs(numkit.dirichlet_l(1.5, chi4) - _mp(mpmath.dirichlet(1.5, [0, 1, 0, -1]))) < 1e-12
    # at s = 1 the Hurwitz poles cancel and are not evaluated termwise
    with pytest.raises(DomainError):
        numkit.dirichlet_l(1.0, chi4)


def test_dirichlet_l_against_hurwitz_route(chi4):
    # independent slow check: direct series at sigma = 2.5
    s = 2.5 + 1.0j
    direct = sum(chi4(n) * n ** (-s) for n in range(1, 4000))
    assert abs(numkit.dirichlet_l(s, chi4) - direct) < 1e-7


def test_hardy_z_reconstructs_l_on_the_critical_line(chi4):
    for t in (0.0, 3.3, 12.7):
        want = _mp(mpmath.dirichlet(0.5 + 1j * t, [0, 1, 0, -1]))
        got = numkit.hardy_z(t, chi4) * cmath.exp(-1j * numkit.l_theta(t, chi4))
        assert abs(got - want) < 1e-9


def test_functional_equation_phase_identity(chi4):
    # eps_chi = 2 arg(i^-a tau(chi) / sqrt(q)), from the Gauss sum
    eps = 2 * cmath.phase((1j) ** (-chi4.parity) * arith.gauss_sum(chi4))
    for t in (1.0, 7.5, 20.0):
        lhs = cmath.exp(2j * (numkit.l_theta(t, chi4) + numkit.l_theta(-t, chi4)))
        assert abs(lhs - cmath.exp(-1j * eps)) < 1e-10


@pytest.mark.parametrize("q", range(3, 13))
def test_hardy_z_is_real_for_every_primitive_character(q):
    # the functional equation makes Z_chi real for even and odd, real and
    # complex primitive chi alike: no imaginary residue reaches the warning
    chars = [c for c in arith.characters_mod(q) if c.primitive]
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyLossWarning)
        for chi in chars:
            for t in np.linspace(0.0, 60.0, 121):
                numkit.hardy_z(float(t), chi)


def test_theta_chi_refuses_imprimitive_characters():
    principal4 = arith.characters_mod(4)[0]
    with pytest.raises(DomainError, match="primitive"):
        numkit.l_theta(5.0, principal4)


# numkit.zeta is smooth to its last digits: 4th-order central differences of
# it match mpmath's derivatives

def test_zeta_deriv_matches_mpmath():
    s, h = 0.5 + 14.0j, 1e-5
    z = numkit.zeta
    got = (8 * (z(s + h) - z(s - h)) - (z(s + 2 * h) - z(s - 2 * h))) / (12 * h)
    want = _mp(mpmath.zeta(s, derivative=1))
    assert abs(got - want) < 1e-7


@pytest.mark.parametrize("s", [0.5 + 14.134725141734693j, 0.5 + 150.2j, 2.0 + 3.0j])
def test_zeta_second_deriv_matches_mpmath(s):
    h, z = 2e-3, numkit.zeta
    got = (16 * (z(s + h) + z(s - h)) - (z(s + 2 * h) + z(s - 2 * h)) - 30 * z(s)) / (12 * h * h)
    want = _mp(mpmath.zeta(s, derivative=2))
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_hardy_z_deriv_sign_at_first_zero(E1, chi1):
    # Z rises through its first zero: mpmath's Z'(E1) > 0, matched by a
    # central difference of hardy_z
    want = float(mpmath.siegelz(E1, derivative=1))
    assert want > 0
    h = 1e-5
    z = lambda t: numkit.hardy_z(t, chi1)
    assert abs((z(E1 + h) - z(E1 - h)) / (2 * h) - want) < 1e-8
    assert np.sign(z(E1 - 0.01)) < 0 < np.sign(z(E1 + 0.01))


def test_scan_roots_grid_zeros_and_brackets():
    # grid 0, 0.5, ..., 3: exact zeros at 0 and 1 are roots, the zero at
    # t_max = 3 is not, and the one inside (1.5, 2] is refined by _brent
    f = lambda t: t * (t - 1.0) * (t - 1.75) * (t - 3.0)
    pairs = numkit.scan_roots(f, 0.0, 3.0, lambda t: 0.5)
    assert pairs[:2] == [(0.0, 0.0), (1.0, 0.0)] and len(pairs) == 3
    assert abs(pairs[2][0] - 1.75) <= numkit.ROOT_XTOL
    assert pairs[2][1] == f(pairs[2][0])
    # a step that grows with t still brackets every zero once
    roots = [r for r, _ in numkit.scan_roots(math.sin, 1.0, 20.0, lambda t: 0.1 + 0.02 * t)]
    assert len(roots) == 6
    for r in roots:
        assert abs(r - float(mpmath.findroot(mpmath.sin, r))) <= numkit.ROOT_XTOL
    # a sign change between values of 1e-170, whose product underflows to 0
    tiny = lambda t: 1e-170 * math.sin(t)
    pairs = numkit.scan_roots(tiny, 1.0, 20.0, lambda t: 0.1)
    assert len(pairs) == 6
    for r, g in pairs:
        want = mpmath.findroot(lambda x: mpmath.mpf("1e-170") * mpmath.sin(x), r)
        assert abs(r - float(want)) <= numkit.ROOT_XTOL and g == tiny(r)


def test_scan_roots_evaluates_each_point_once():
    # f once per grid point plus once per Brent iterate: the bracket ends,
    # already known from the grid, are never evaluated again
    seen = []

    def f(t):
        seen.append(t)
        return math.cos(t)

    pairs = numkit.scan_roots(f, 0.0, 10.0, lambda t: 0.7)
    grid = [0.0]
    while grid[-1] < 10.0:
        grid.append(min(grid[-1] + 0.7, 10.0))
    assert len(pairs) == 3 and len(seen) == len(set(seen))
    assert [t for t in seen if t in grid] == grid
    assert all(t in seen for t, _ in pairs)


def test_brent_raises_on_nan_inside_bracket():
    f = lambda t: math.nan if 0.4 < t < 0.6 else t - 0.5
    with pytest.raises(BracketError, match="inside a bracket"):
        numkit.scan_roots(f, 0.0, 1.0, lambda t: 1.0)


def test_brent_raises_when_not_converged():
    # a unit step at t = 1 bracketed by [0, 1e300]: bisection alone would need
    # about 1000 halvings to reach ROOT_XTOL, past the 100-iteration limit
    step = lambda t: -1.0 if t < 1.0 else 1.0
    with pytest.raises(BracketError, match="did not converge"):
        numkit.scan_roots(step, 0.0, 1e300, lambda t: 1e300)


@settings(max_examples=300)
@given(a=st.sampled_from([0.25, 0.75]),
       t=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
@example(a=0.25, t=0.0)
@example(a=0.75, t=0.0)
@example(a=0.25, t=13.9)  # |Im z| = 6.95: shifted up before the series
@example(a=0.75, t=-3.0)
def test_loggamma_matches_mpmath(a, t):
    z = complex(a, 0.5 * t)
    want = complex(mpmath.loggamma(mpmath.mpc(a, 0.5 * t)))
    assert abs(numkit.loggamma(z) - want) <= 1e-14 * max(1.0, abs(want.imag))
