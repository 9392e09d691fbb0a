"""Special-function kernel: zeta and Hurwitz zeta off the critical line,
Riemann-Siegel phase splitting, modified Bessel functions of complex order,
polylogarithms, Dirichlet L-functions with their completed phases, and the
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
from scipy.special import digamma, loggamma

from .arith import DirichletCharacter, gauss_sum
from .errors import AccuracyLossWarning, DomainError, PoleError

ROOT_XTOL = 1e-10

_B2J = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510]
_B2J_FACT = [b / math.factorial(2 * (j + 1)) for j, b in enumerate(_B2J)]


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma, rejecting the poles at 0, -1, -2, ..."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"log_gamma pole at {z}")
    return complex(loggamma(z))


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


def zeta_deriv(s: complex, h: float | None = None, order: int = 1) -> complex:
    """zeta'(s) (order 1) or zeta''(s) (order 2) by 4th-order central
    differences; the default steps 1e-5 and 2e-3 keep the absolute
    errors below ~1e-10 and ~5e-9 for |Im s| up to ~1500."""
    if order == 1:
        h = 1e-5 if h is None else h
        return (8 * (zeta(s + h) - zeta(s - h)) - (zeta(s + 2 * h) - zeta(s - 2 * h))) / (12 * h)
    if order == 2:
        h = 2e-3 if h is None else h
        return (16 * (zeta(s + h) + zeta(s - h)) - (zeta(s + 2 * h) + zeta(s - 2 * h))
                - 30 * zeta(s)) / (12 * h * h)
    raise DomainError(f"zeta_deriv supports order 1 or 2, got {order}")


@dataclass(frozen=True)
class RiemannSiegelPair:
    """Factorization zeta(1/2 + it) = Z(t) exp(-i theta(t)) with Z real."""

    t: float
    theta: float
    z: float

    @property
    def zeta_value(self) -> complex:
        return self.z * cmath.exp(-1j * self.theta)


def riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi."""
    return float(loggamma(0.25 + 0.5j * t).imag) - 0.5 * t * math.log(math.pi)


def riemann_siegel(t: float) -> RiemannSiegelPair:
    """Hardy function split of zeta on the critical line."""
    theta = riemann_siegel_theta(t)
    z = cmath.exp(1j * theta) * zeta(0.5 + 1j * t)
    if abs(z.imag) > 1e-8 * max(1.0, abs(z.real)):
        warnings.warn(f"Hardy Z(t) imaginary residue {z.imag:.3e} at t={t}",
                      AccuracyLossWarning, stacklevel=2)
    return RiemannSiegelPair(t=t, theta=theta, z=z.real)


def smoothed_zero_count(t: float) -> float:
    """Mean zero-counting function theta(t)/pi + 1 on the critical line."""
    return riemann_siegel_theta(t) / math.pi + 1.0


def hardy_z(t: float) -> float:
    return riemann_siegel(t).z


def hardy_z_deriv(t: float, h: float = 1e-5) -> float:
    return (8 * (hardy_z(t + h) - hardy_z(t - h))
            - (hardy_z(t + 2 * h) - hardy_z(t - 2 * h))) / (12 * h)


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


def polylog(s: complex, z: complex) -> complex:
    """Li_s(z) by direct summation, |z| <= 1 (excluding z ~ 1 when Re s <= 1)."""
    z = complex(z)
    s = complex(s)
    r = abs(z)
    if r > 1.0 + 1e-14:
        raise DomainError(f"polylog direct series needs |z| <= 1, got |z|={r}")
    if abs(z.imag) < 1e-15 and z.real >= 1.0 - 1e-15:
        raise DomainError(f"polylog series boundary z >= 1 excluded, got z={z}")
    total = 0j
    zn = 1.0 + 0j
    n = 0
    chunk = 256
    while True:
        ns = np.arange(n + 1, n + chunk + 1, dtype=np.float64)
        zs = zn * np.cumprod(np.full(chunk, z))  # z^{n+1} .. z^{n+chunk}
        block = np.sum(zs * ns ** (-s))
        total += block
        zn = zs[-1]
        n += chunk
        # geometric/monotone tail bound
        if r < 1.0:
            tail = abs(zn) * r / (1 - r) * max(1.0, n ** (-s.real))
        else:
            tail = abs(block)
        if tail < 1e-12 and n >= 512:
            return complex(total)
        if n > 20_000_000:
            raise DomainError(f"polylog series not converging for s={s}, z={z}")


def dirichlet_l(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) as a Hurwitz-zeta combination; Re s > -1.

    At s = 1 the Hurwitz poles cancel for non-principal chi but cannot be
    evaluated termwise, so that point uses the digamma closed form
    L(1, chi) = -(1/q) sum_a chi(a) psi(a/q).
    """
    q = chi.modulus
    s = complex(s)
    if q == 1:
        return zeta(s)
    if s == 1:
        if chi.is_principal:
            raise PoleError("L(s, chi_0) has a pole at s = 1")
        total = 0j
        for a in range(1, q):
            ca = chi(a)
            if ca != 0:
                total += ca * digamma(a / q)
        return complex(-total / q)
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

    @property
    def l_value(self) -> complex:
        return self.z * cmath.exp(-1j * self.theta)


def l_phase_split(t: float, chi: DirichletCharacter) -> LFunctionPair:
    """Completed-phase split of L on the critical line for primitive chi."""
    if not chi.primitive:
        raise DomainError(f"phase split requires a primitive character (q={chi.modulus})")
    q = chi.modulus
    a = chi.parity
    g = gauss_sum(chi)
    root = (1j) ** (-a) * g / math.sqrt(q)
    eps_half = cmath.phase(root)
    theta = (float(loggamma((1 + 2 * a) / 4 + 0.5j * t).imag)
             - 0.5 * t * math.log(math.pi / q) - 0.5 * eps_half)
    z = cmath.exp(1j * theta) * dirichlet_l(0.5 + 1j * t, chi)
    return LFunctionPair(t=t, theta=theta, z=z, eps_chi=2.0 * eps_half)


def l_theta(t: float, chi: DirichletCharacter) -> float:
    """theta_chi(t) without evaluating L itself."""
    q = chi.modulus
    a = chi.parity
    root = (1j) ** (-a) * gauss_sum(chi) / math.sqrt(q)
    eps_half = cmath.phase(root)
    return (float(loggamma((1 + 2 * a) / 4 + 0.5j * t).imag)
            - 0.5 * t * math.log(math.pi / q) - 0.5 * eps_half)
