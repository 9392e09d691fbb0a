"""Mirror-array model families and their spectral analysis: critical-line
zero tables, the fine-tuned boundary phase per zero, the truncated Moebius
sums of the Perron formula, and growth-based energy classification.

Model kinds (couplings varrho_n, radii ell_n):
  harmonic          ell_n = e^{n/2},  varrho_n = eps                  (n >= 0)
  harmonic-damped   ell_n = e^{n/2},  varrho_n = eps e^{-lam n}       (n >= 0)
  polylog           ell_n = sqrt(n),  varrho_n = eps e^{-lam n}/n^s   (n >= 1)
  riemann           ell_n = sqrt(n),  varrho_n = eps mu(n)/n^s        (n >= 1)
  dirichlet         ell_n = sqrt(n),  varrho_n = eps mu(n)chi(n)/n^s  (n >= 1)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numkit, transfer
from .arith import DirichletCharacter, moebius_sieve
from .errors import BracketError, DomainError

KINDS = ("harmonic", "harmonic-damped", "polylog", "riemann", "dirichlet")


@dataclass(frozen=True)
class ModelSpec:
    """A mirror-array family instance; supplies coupling and log-radius tables."""

    kind: str
    epsilon: float = 0.25
    sigma: float = 0.5
    lam: float = 0.0
    character: DirichletCharacter | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}")
        if abs(self.epsilon) >= 1.0:
            raise DomainError("|epsilon| must be < 1")
        if self.lam < 0:
            raise DomainError("damping lambda must be >= 0")
        if self.kind == "dirichlet" and self.character is None:
            raise DomainError("dirichlet model needs a character")

    @property
    def boundary_index(self) -> int:
        return 0 if self.kind.startswith("harmonic") else 1

    def log_ell_table(self, kmax: int) -> np.ndarray:
        """log ell_n for n = 0..kmax (index 0 unused in sqrt-array kinds)."""
        n = np.arange(kmax + 1, dtype=np.float64)
        if self.kind.startswith("harmonic"):
            return n / 2.0
        with np.errstate(divide="ignore"):
            out = 0.5 * np.log(n)
        out[0] = 0.0
        return out

    def rho_table(self, kmax: int) -> np.ndarray:
        """varrho_n for n = 0..kmax (index 0 unused in sqrt-array kinds)."""
        n = np.arange(kmax + 1, dtype=np.float64)
        if self.kind == "harmonic":
            return np.full(kmax + 1, self.epsilon, dtype=np.complex128)
        if self.kind == "harmonic-damped":
            return (self.epsilon * np.exp(-self.lam * n)).astype(np.complex128)
        with np.errstate(divide="ignore"):
            power = n ** (-self.sigma)
        power[0] = 0.0
        if self.kind == "polylog":
            out = self.epsilon * np.exp(-self.lam * n) * power
            return out.astype(np.complex128)
        out = (self.epsilon * moebius_sieve(kmax) * power).astype(np.complex128)
        if self.kind == "dirichlet":
            out *= self.character.values_upto(kmax)
        return out


def _wrap_pi(x: float) -> float:
    """Wrap to (-pi, pi]."""
    y = math.fmod(x + math.pi, 2 * math.pi)
    if y <= 0:
        y += 2 * math.pi
    return y - math.pi


def theta_star(chi: DirichletCharacter, n: int, E_n: float) -> float:
    """Boundary phase that turns the n-th critical-line ordinate of L(s, chi)
    into a decaying state: vartheta/pi = n + (1 + b + sign n)/2 -
    theta_chi(E_n)/pi, wrapped to (-pi, pi], with b = central_sign(chi). For
    zeta (b = -1) this is n + sign(n)/2 - theta(E_n)/pi."""
    if n == 0:
        raise DomainError("zero labels are nonzero integers")
    b = central_sign(chi)
    raw = (math.pi * (n + 0.5 * (1 + b + math.copysign(1, n)))
           - numkit.l_theta(E_n, chi))
    return _wrap_pi(raw)


@lru_cache(maxsize=64)
def central_sign(chi: DirichletCharacter) -> int:
    """Sign of Z_chi at the center of the critical line (-1 for zeta)."""
    return 1 if numkit.hardy_z(0.0, chi) >= 0 else -1


def z_prime_sign(n: int, chi: DirichletCharacter) -> int:
    """Sign of Z_chi'(E_n) at the n-th critical-line zero of L(s, chi).

    Z_chi starts at the center with sign b = central_sign(chi) and every
    simple zero flips it, so Z_chi' at the n-th zero has sign b (-1)^n; the
    mirrored zero -n carries the opposite sign.
    """
    if n == 0:
        raise DomainError("zero labels are nonzero integers")
    return central_sign(chi) * (-1) ** abs(n) * (1 if n > 0 else -1)


# ---------------------------------------------------------------------------
# zero tables (self-computed by sign-change bisection of Z_chi)

def zero_count(chi: DirichletCharacter, t: float) -> float:
    """Mean number of critical-line zeros of L(s, chi) with ordinate in (0, t]:
    (theta_chi(t) - theta_chi(0))/pi, plus 1 for zeta, whose pole at s = 1
    adds one to the argument principle count."""
    pole = 1.0 if chi.modulus == 1 else 0.0
    return (numkit.l_theta(t, chi) - numkit.l_theta(0.0, chi)) / math.pi + pole


def _zeta_step(t: float) -> float:
    return max(0.05, 0.25 * 2 * math.pi / math.log(max(t, 10.0) / (2 * math.pi) + 2.0))


def critical_zeros(chi: DirichletCharacter, count: int | None = None,
                   t_max: float | None = None) -> list[float]:
    """Positive ordinates of the critical-line zeros of L(s, chi), zeta for
    the character mod 1, from sign changes of Z_chi: all up to t_max, or the
    first `count`, with t grown until zero_count reaches count + 3.

    The scan grid is per family: zeta's quarter mean spacing from t = 2, and
    steps of 0.2 from t = 0.05 for L, whose first zero can lie below 2."""
    if count is None and t_max is None:
        raise DomainError("give count or t_max")
    if t_max is None:
        t_max = 10.0
        while zero_count(chi, t_max) < count + 3:
            t_max *= 1.3
    t_start, step = (2.0, _zeta_step) if chi.modulus == 1 else (0.05, lambda t: 0.2)
    roots = [r for r, _ in numkit.scan_roots(lambda t: numkit.hardy_z(t, chi),
                                             t_start, t_max, step)]
    if count is not None:
        if len(roots) < count:
            raise BracketError(f"found {len(roots)} zeros, wanted {count}")
        roots = roots[:count]
    return roots


# ---------------------------------------------------------------------------
# Perron sums

def perron_partial_sum(z: complex, xs) -> np.ndarray:
    """sum_{n <= x} mu(n) n^{-z} with the last term half-weighted, for each x
    of the ascending xs. One sieve and one term array serve every x: each sum
    is np.sum over a prefix slice, which keeps numpy's pairwise rounding."""
    xs = [int(x) for x in xs]
    sums = np.empty(len(xs), dtype=np.complex128)
    if not xs:
        return sums
    if xs[0] < 1:
        raise DomainError("x must be >= 1")
    mu = moebius_sieve(xs[-1])
    n = np.arange(xs[-1] + 1, dtype=np.float64)
    n[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        terms = n ** (-complex(z))
        terms *= mu
        for i, x in enumerate(xs):
            last = terms[x]
            terms[x] *= 0.5
            sums[i] = np.sum(terms[1:x + 1])
            terms[x] = last
    if not np.all(np.isfinite(sums)):
        raise OverflowError(f"Perron sum at z = {complex(z)} overflows a double")
    return sums


# ---------------------------------------------------------------------------
# energy classification

@dataclass(frozen=True)
class SpectrumReport:
    """Growth-fit verdict for one (E, vartheta) probe."""

    E: float
    verdict: str  # 'Continuum' | 'DiscreteCandidate' | 'Gap' | 'NonNormalizable' | 'Inconclusive'
    growth_exponent: float
    ci: tuple[float, float]
    theta_used: float
    R_K: float = 0.0
    Phi_K: float = 0.0


def _weighted_slope(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Weighted least-squares slope and its 95% half-width."""
    wn = w * (len(w) / np.sum(w))
    xm = np.mean(wn * x)
    ym = np.mean(wn * y)
    sxx = np.sum(wn * (x - xm) ** 2)
    slope = np.sum(wn * (x - xm) * (y - ym)) / sxx
    resid = y - ym - slope * (x - xm)
    dof = max(len(x) - 2, 1)
    var = np.sum(wn * resid**2) / dof / sxx
    return float(slope), 1.96 * float(math.sqrt(max(var, 0.0)))


def classify_energy(model: ModelSpec, E: float, vartheta: float,
                    K_max: int = 10_000) -> SpectrumReport:
    """Growth-fit verdict for one probe energy.

    Geometric arrays are classified from the exactly propagated amplitudes
    over the last decade of k, with abscissa k (exponential verdicts).
    The sqrt arrays are classified from the phase-summed (one-kick) amplitude
    norms over k >= 10 with abscissa log k (power-law verdicts): the decaying
    candidates exist in that normalization, whereas exact site-by-site
    propagation retains an O(epsilon) phase slack at the boundary that feeds
    the growing branch even at a tuned phase.

    A positive exponent with confidence interval excluding zero reads 'Gap'
    for geometric arrays and 'NonNormalizable' for sqrt arrays; negative
    reads 'DiscreteCandidate'; small or bounded oscillation reads
    'Continuum'.
    """
    geometric = model.kind.startswith("harmonic")
    sums = transfer.semiclassical_sums(model, E, K_max)
    if geometric:
        trace = transfer.propagate_exact(model, E, vartheta, K_max)
        k = trace.indices.astype(np.float64)
        y = trace.log_norm2
        lo = max(1, int(0.9 * len(y)))
        kw, yw = k[lo:], y[lo:]
        # spurious last-decade drift from finite-window beats stays below
        # ~0.03 in absolute exponent, genuine gap growth at 0.05 from a band
        # edge exceeds ~0.19 even at epsilon = 0.1
        x, floor = kw, 0.05
    else:
        trace = transfer.bch_trace(sums, vartheta)
        k = trace.indices.astype(np.float64)
        y = trace.log_norm2
        mask = k >= min(10.0, k[-1])
        kw, yw = k[mask], y[mask]
        x, floor = np.log(kw), 0.2
    if len(kw) < 3:
        raise DomainError(f"growth fit needs at least 3 sites, K_max = {K_max} "
                          f"leaves {len(kw)}")
    slope, half = _weighted_slope(x, yw, 1.0 / kw)
    ci = (slope - half, slope + half)
    window = np.exp(yw - yw.max())
    bounded = window.min() > 0.1  # max/min ratio of ||A_k||^2 below 10
    if ci[1] < 0 and slope < -floor:
        verdict = "DiscreteCandidate"
    elif ci[0] > 0 and slope > floor:
        if geometric:
            # forward shooting leaks the growing branch through rounding even
            # when the seed is exactly the decaying direction, so growth alone
            # cannot rule out a bound state: test the boundary vector's
            # alignment with the outward-decaying direction.
            v = transfer.decaying_direction(model, E, K=min(K_max, 400))
            b = np.array([1.0, cmath.exp(1j * vartheta)])
            mis = abs(b[0] * v[1] - b[1] * v[0]) / math.sqrt(2.0)
            verdict = "DiscreteCandidate" if mis < 1e-8 else "Gap"
        else:
            verdict = "NonNormalizable"
    elif bounded or abs(slope) <= floor:
        verdict = "Continuum"
    else:
        verdict = "Inconclusive"
    R_K, Phi_K = sums.at(sums.n0 + len(sums) - 1)
    return SpectrumReport(E=E, verdict=verdict, growth_exponent=slope, ci=ci,
                          theta_used=vartheta, R_K=R_K, Phi_K=Phi_K)
