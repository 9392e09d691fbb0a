"""numkit oracles: every nontrivial evaluator is checked against mpmath."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from mirrorspec import models, numkit
from mirrorspec.errors import DomainError, PoleError


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
def test_riemann_siegel_theta_and_hardy_z(t):
    assert abs(numkit.riemann_siegel_theta(t) - float(mpmath.siegeltheta(t))) < 1e-9
    assert abs(numkit.hardy_z(t) - float(mpmath.siegelz(t))) < 1e-8


def test_riemann_siegel_pair_reconstructs_zeta():
    # zeta(1/2 + it) = Z(t) e^{-i theta(t)}
    t = 35.2
    got = numkit.hardy_z(t) * cmath.exp(-1j * numkit.riemann_siegel_theta(t))
    want = _mp(mpmath.zeta(0.5 + 1j * t))
    assert abs(got - want) < 1e-10


def test_hardy_z_is_real_even():
    assert abs(numkit.hardy_z(21.3) - numkit.hardy_z(-21.3)) < 1e-10


def test_smoothed_zero_count_near_100():
    # independent closed form: (t/2pi)(log(t/2pi) - 1) + 7/8 at t = 100
    t = 100.0
    want = t / (2 * math.pi) * (math.log(t / (2 * math.pi)) - 1) + 7 / 8
    assert abs(numkit.smoothed_zero_count(t) - want) < 1e-3


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


def test_l_phase_split_real_section(chi4):
    for t in (0.0, 3.3, 12.7):
        pair = numkit.l_phase_split(t, chi4)
        assert abs(pair.z.imag) < 1e-9
        # phase split reconstructs L on the critical line
        want = numkit.dirichlet_l(0.5 + 1j * t, chi4)
        got = pair.z * cmath.exp(-1j * pair.theta)
        assert abs(got - want) < 1e-9


def test_functional_equation_phase_identity(chi4):
    for t in (1.0, 7.5, 20.0):
        lhs = cmath.exp(2j * (numkit.l_theta(t, chi4) + numkit.l_theta(-t, chi4)))
        rhs = cmath.exp(-1j * numkit.l_phase_split(t, chi4).eps_chi)
        assert abs(lhs - rhs) < 1e-10


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


def test_hardy_z_deriv_sign_at_first_zero(E1):
    # Z rises through its first zero: mpmath's Z'(E1) > 0, matched by a
    # central difference of hardy_z
    want = float(mpmath.siegelz(E1, derivative=1))
    assert want > 0
    h = 1e-5
    assert abs((numkit.hardy_z(E1 + h) - numkit.hardy_z(E1 - h)) / (2 * h) - want) < 1e-8
    assert np.sign(numkit.hardy_z(E1 - 0.01)) < 0 < np.sign(numkit.hardy_z(E1 + 0.01))


def test_scan_roots_grid_zeros_and_brackets():
    # grid 0, 0.5, ..., 3: exact zeros at 0 and 1 are roots, the zero at
    # t_max = 3 is not, and the one inside (1.5, 2] is refined by brentq
    f = lambda t: t * (t - 1.0) * (t - 1.75) * (t - 3.0)
    roots = numkit.scan_roots(f, 0.0, 3.0, lambda t: 0.5)
    assert roots[:2] == [0.0, 1.0] and len(roots) == 3
    assert abs(roots[2] - 1.75) <= numkit.ROOT_XTOL
    # a step that grows with t still brackets every zero once
    roots = numkit.scan_roots(math.sin, 1.0, 20.0, lambda t: 0.1 + 0.02 * t)
    assert len(roots) == 6
    assert max(abs(r - math.pi * n) for n, r in enumerate(roots, start=1)) < 1e-9
    # a sign change between values of 1e-170, whose product underflows to 0
    roots = numkit.scan_roots(lambda t: 1e-170 * math.sin(t), 1.0, 20.0, lambda t: 0.1)
    assert len(roots) == 6
