"""Special-function kernel: zeta and Hurwitz zeta off the critical line,
log Gamma, modified Bessel functions of complex order, Dirichlet L-functions
with their phase theta_chi and Hardy function Z_chi on the critical line
(zeta is L of the character mod 1), and the sign-change root scan with its
Brent refinement that the zero tables and the boundary spectrum share.

Everything here is double precision; K of complex order comes from
mpmath.besselk, rounded to a complex double.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from functools import lru_cache

import mpmath
import numpy as np

from .arith import DirichletCharacter, gauss_sum
from .errors import AccuracyLossWarning, BracketError, DomainError, PoleError

ROOT_XTOL = 1e-10
_ROOT_RTOL = 4 * sys.float_info.epsilon
_ROOT_MAXITER = 100

_B2J = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510]
_B2J_FACT = [b / math.factorial(2 * (j + 1)) for j, b in enumerate(_B2J)]
# Stirling coefficients B_2j / (2j (2j - 1)), j = 1..8, highest first for Horner
_STIRLING = [b / (2 * j * (2 * j - 1)) for j, b in enumerate(_B2J, start=1)][::-1]
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def hurwitz_zeta(s: complex, a: float = 1.0) -> complex:
    """zeta(s, a) by Euler-Maclaurin, valid for Re s > -1 (s != 1), a > 0.

    Head length scales with |Im s| so the 8-term Bernoulli tail stays inside
    its asymptotic regime; relative error ~1e-13 up to |Im s| ~ 1500.
    """
    s = complex(s)
    if a <= 0:
        raise DomainError(f"hurwitz_zeta requires a > 0, got a={a}")
    if s == 1:
        raise PoleError("hurwitz_zeta pole at s = 1")
    if s.real <= -1.0:
        raise DomainError(f"Euler-Maclaurin tail diverges for Re s <= -1 (s={s})")
    N = max(30, int(math.ceil(abs(s.imag))))
    n = np.arange(N, dtype=np.float64) + a
    head = np.sum(n ** (-s))
    M = N + a
    tail = M ** (1 - s) / (s - 1) + 0.5 * M ** (-s)
    corr = 0j
    M2 = M ** (-2.0)
    rising = s
    Mp = M ** (-s - 1)
    for j, bf in enumerate(_B2J_FACT, start=1):
        corr += bf * rising * Mp
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        Mp *= M2
    return complex(head + tail + corr)


def zeta(s: complex) -> complex:
    """Riemann zeta via hurwitz_zeta(s, 1); Re s > -1, s != 1."""
    return hurwitz_zeta(s, 1.0)


def loggamma(z: complex) -> complex:
    """Principal branch of log Gamma(z) for Re z > 0 (DLMF 5.11.1).

    z is shifted up by log Gamma(z) = log Gamma(z + 1) - log z until
    Re z > 7 or |Im z| > 7, where the 8-term Stirling series is accurate to
    about 1e-15; this is also where scipy's loggamma switches to the same
    series, so Im log Gamma, and theta with it, keep their last bits."""
    z = complex(z)
    shift = 0j
    while z.real <= 7 and abs(z.imag) <= 7:
        shift += cmath.log(z)
        z += 1
    rz = 1 / z
    rzz = rz * rz
    series = 0.0
    for c in _STIRLING:
        series = series * rzz + c
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + rz * series - shift


def bessel_k_complex_order(nu: complex, x: float) -> complex:
    """K_nu(x) for complex order nu and real x > 0, from mpmath.besselk."""
    if x <= 0:
        raise DomainError(f"bessel_k_complex_order needs x > 0, got {x}")
    return complex(mpmath.besselk(nu, x))


def scan_roots(f, t_start: float, t_max: float, step_fn) -> list[tuple[float, float]]:
    """Zeros of a real f on [t_start, t_max] as (root, f(root)) pairs: sign
    changes over steps of step_fn(t), each refined by Brent's method to
    ROOT_XTOL. An exact zero at a grid point counts as a root; t_max itself is
    never one. f is evaluated once per grid point and once per Brent iterate."""
    roots = []
    t = t_start
    ft = f(t)
    while t < t_max:
        t2 = min(t + step_fn(t), t_max)
        ft2 = f(t2)
        if ft == 0.0:
            roots.append((t, ft))
        # not ft * ft2 < 0: the product underflows to 0 once |f| ~ 1e-162
        elif min(ft, ft2) < 0 < max(ft, ft2):
            roots.append(_brent(f, t, t2, ft, ft2))
        t, ft = t2, ft2
    return roots


def _brent(f, xpre: float, xcur: float, fpre: float, fcur: float) -> tuple[float, float]:
    """(root, f(root)) of f in the bracket [xpre, xcur], whose end values
    fpre = f(xpre) and fcur = f(xcur) are nonzero with opposite signs.

    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) in the form of scipy's brentq, step for step: inverse quadratic or
    secant steps, bisection when they stall, converged once the bracket is
    narrower than ROOT_XTOL + 4 eps |root|. Raises BracketError when f is not
    finite at an iterate or 100 iterations do not converge."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if (fpre < 0) != (fcur < 0):  # (an fcur of 0 returns below either way)
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # a zero den (it underflows where |f| ~ 1e-170) is an infinite
            # step in IEEE arithmetic, which the test below rejects
            stry = num / den if den != 0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if not math.isfinite(fcur):
            raise BracketError(f"root refinement met f({xcur!r}) = {fcur} inside a bracket")
    raise BracketError(f"root refinement did not converge in {_ROOT_MAXITER} "
                       f"iterations near {xcur!r}")


def dirichlet_l(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) as a Hurwitz-zeta combination; Re s > -1, s != 1.

    At s = 1 the Hurwitz poles cancel for non-principal chi but cannot be
    evaluated termwise, so that point is outside the domain.
    """
    q = chi.modulus
    s = complex(s)
    if s == 1:
        raise DomainError("dirichlet_l is not evaluated at s = 1")
    total = 0j
    for a in range(1, q + 1):
        ca = chi(a)
        if ca != 0:
            total += ca * hurwitz_zeta(s, a / q)
    return complex(total * q ** (-s))


@lru_cache(maxsize=64)
def _root_number_arg(chi: DirichletCharacter) -> float:
    """eps_chi / 2, the argument of the root number i^-a tau(chi) / sqrt(q)."""
    if not chi.primitive:
        raise DomainError(f"theta_chi requires a primitive character (q={chi.modulus})")
    return cmath.phase((1j) ** (-chi.parity) * gauss_sum(chi) / math.sqrt(chi.modulus))


def l_theta(t: float, chi: DirichletCharacter) -> float:
    """theta_chi(t) = Im log Gamma((1 + 2a)/4 + it/2) - (t/2) log(pi/q) - eps_chi/4
    for primitive chi of parity a, with exp(2i (theta_chi(t) + theta_chi(-t)))
    = exp(-i eps_chi). For the character mod 1 it is the Riemann-Siegel theta."""
    return (loggamma((1 + 2 * chi.parity) / 4 + 0.5j * t).imag
            - 0.5 * t * math.log(math.pi / chi.modulus) - 0.5 * _root_number_arg(chi))


def hardy_z(t: float, chi: DirichletCharacter) -> float:
    """Z_chi(t) = exp(i theta_chi(t)) L(1/2 + it, chi), Hardy's Z for the
    character mod 1. The functional equation makes Z_chi real for every
    primitive chi, odd complex ones included; warns when the imaginary
    residue shows lost accuracy."""
    z = cmath.exp(1j * l_theta(t, chi)) * dirichlet_l(0.5 + 1j * t, chi)
    if abs(z.imag) > 1e-8 * max(1.0, abs(z.real)):
        warnings.warn(f"Z_chi(t) imaginary residue {z.imag:.3e} at t={t} "
                      f"(q={chi.modulus})", AccuracyLossWarning, stacklevel=2)
    return z.real
