"""Special-function kernel: zeta and Hurwitz zeta off the critical line,
the Riemann-Siegel theta and Hardy Z, modified Bessel functions of complex
order, Dirichlet L-functions with their completed phases, and the
sign-change root scan that the zero tables and the boundary spectrum share.

Everything here is double precision; K of complex order comes from
mpmath.besselk, rounded to a complex double.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import loggamma

from .arith import DirichletCharacter, gauss_sum
from .errors import AccuracyLossWarning, DomainError, PoleError

ROOT_XTOL = 1e-10

_B2J = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510]
_B2J_FACT = [b / math.factorial(2 * (j + 1)) for j, b in enumerate(_B2J)]


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


def riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi."""
    return float(loggamma(0.25 + 0.5j * t).imag) - 0.5 * t * math.log(math.pi)


def smoothed_zero_count(t: float) -> float:
    """Mean zero-counting function theta(t)/pi + 1 on the critical line."""
    return riemann_siegel_theta(t) / math.pi + 1.0


def hardy_z(t: float) -> float:
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it), real on the critical line;
    warns when the imaginary residue shows lost accuracy."""
    z = cmath.exp(1j * riemann_siegel_theta(t)) * zeta(0.5 + 1j * t)
    if abs(z.imag) > 1e-8 * max(1.0, abs(z.real)):
        warnings.warn(f"Hardy Z(t) imaginary residue {z.imag:.3e} at t={t}",
                      AccuracyLossWarning, stacklevel=2)
    return z.real


def bessel_k_complex_order(nu: complex, x: float) -> complex:
    """K_nu(x) for complex order nu and real x > 0, from mpmath.besselk."""
    if x <= 0:
        raise DomainError(f"bessel_k_complex_order needs x > 0, got {x}")
    return complex(mpmath.besselk(nu, x))


def scan_roots(f, t_start: float, t_max: float, step_fn) -> list[float]:
    """Zeros of a real f on [t_start, t_max]: sign changes over steps of
    step_fn(t), each refined by Brent's method to ROOT_XTOL. An exact zero at
    a grid point counts as a root; t_max itself is never one."""
    roots = []
    t = t_start
    ft = f(t)
    while t < t_max:
        t2 = min(t + step_fn(t), t_max)
        ft2 = f(t2)
        if ft == 0.0:
            roots.append(t)
        # not ft * ft2 < 0: the product underflows to 0 once |f| ~ 1e-162
        elif min(ft, ft2) < 0 < max(ft, ft2):
            roots.append(float(brentq(f, t, t2, xtol=ROOT_XTOL)))
        t, ft = t2, ft2
    return roots


def dirichlet_l(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) as a Hurwitz-zeta combination; Re s > -1, s != 1.

    At s = 1 the Hurwitz poles cancel for non-principal chi but cannot be
    evaluated termwise, so that point is outside the domain.
    """
    q = chi.modulus
    s = complex(s)
    if s == 1:
        raise DomainError("dirichlet_l is not evaluated at s = 1")
    if q == 1:
        return zeta(s)
    total = 0j
    for a in range(1, q + 1):
        ca = chi(a)
        if ca != 0:
            total += ca * hurwitz_zeta(s, a / q)
    return complex(total * q ** (-s))


@dataclass(frozen=True)
class LFunctionPair:
    """Split L(1/2 + it, chi) = Z_chi(t) exp(-i theta_chi(t)).

    Z_chi is real for even characters and for odd real ones; in general the
    functional equation only guarantees Z_chi(-t) = conj(Z_chi(t)) up to the
    fixed root-number phase stored in eps_chi, which satisfies
    exp(2i (theta_chi(t) + theta_chi(-t))) = exp(-i eps_chi).
    """

    t: float
    theta: float
    z: complex
    eps_chi: float


def l_phase_split(t: float, chi: DirichletCharacter) -> LFunctionPair:
    """Completed-phase split of L on the critical line for primitive chi."""
    if not chi.primitive:
        raise DomainError(f"phase split requires a primitive character (q={chi.modulus})")
    theta, eps_half = _l_theta(t, chi)
    z = cmath.exp(1j * theta) * dirichlet_l(0.5 + 1j * t, chi)
    return LFunctionPair(t=t, theta=theta, z=z, eps_chi=2.0 * eps_half)


def _l_theta(t: float, chi: DirichletCharacter) -> tuple[float, float]:
    """theta_chi(t) and half the root-number phase, eps_chi / 2."""
    q = chi.modulus
    a = chi.parity
    root = (1j) ** (-a) * gauss_sum(chi) / math.sqrt(q)
    eps_half = cmath.phase(root)
    theta = (float(loggamma((1 + 2 * a) / 4 + 0.5j * t).imag)
             - 0.5 * t * math.log(math.pi / q) - 0.5 * eps_half)
    return theta, eps_half


def l_theta(t: float, chi: DirichletCharacter) -> float:
    """theta_chi(t) without evaluating L itself."""
    return _l_theta(t, chi)[0]
