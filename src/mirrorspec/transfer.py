"""Transfer-matrix engine: SU(1,1) transfer matrices, exact outward
amplitude propagation, semiclassical running sums with their one-kick
(BCH-summed) amplitudes, wave-function norms, and the closed-form band
structure of the geometric array.

Models enter through duck typing: any object with `boundary_index`,
`log_ell_table(kmax)` and `rho_table(kmax)` (arrays indexed by mirror label)
can be propagated; radii enter only through log ell_n, which keeps the
geometric arrays finite at any depth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularCouplingError


def t_matrix(E: float, varrho: complex, ell: float) -> np.ndarray:
    """Transfer matrix across mirror at radius ell; unit determinant SU(1,1)."""
    if ell <= 0:
        raise DomainError(f"mirror radius must be positive, got {ell}")
    a2 = abs(varrho) ** 2
    if a2 >= 1.0:
        raise SingularCouplingError(f"|varrho| must be < 1, got {math.sqrt(a2)}")
    d = 1 - a2
    phase = cmath.exp(-2j * E * math.log(ell))
    return np.array([[(1 + a2) / d, 2 * varrho * phase / d],
                     [2 * varrho.conjugate() / (phase * d), (1 + a2) / d]],
                    dtype=np.complex128)


class AmplitudeTrace:
    """Amplitude sequence A_n for n = boundary_index .. K, stored as arrays
    (a_minus, a_plus) with a shared per-step log_scale renormalization."""

    def __init__(self, n0: int, a_minus: np.ndarray, a_plus: np.ndarray, log_scale: np.ndarray):
        self.n0 = n0
        self.a_minus = a_minus
        self.a_plus = a_plus
        self.log_scale = log_scale

    def __len__(self) -> int:
        return len(self.a_minus)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n0, self.n0 + len(self.a_minus))

    @property
    def norm2(self) -> np.ndarray:
        return (np.abs(self.a_minus) ** 2 + np.abs(self.a_plus) ** 2) * np.exp(2 * self.log_scale)

    @property
    def log_norm2(self) -> np.ndarray:
        # 2 log ||A|| stays finite where the squares would underflow
        return 2 * np.log(np.hypot(np.abs(self.a_minus), np.abs(self.a_plus))) + 2 * self.log_scale

    @property
    def charge(self) -> np.ndarray:
        return (np.abs(self.a_minus) ** 2 - np.abs(self.a_plus) ** 2) * np.exp(2 * self.log_scale)


_RESCALE = 1e150


def _step_tables(model, E: float, K: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Entries of T(E, sign * varrho_n, ell_n) for n = boundary_index + 1 .. K:
    diagonal (1 + |varrho|^2)/(1 - |varrho|^2) and upper off-diagonal
    2 sign varrho ell^{-2iE}/(1 - |varrho|^2); the lower one is its conjugate."""
    n0 = model.boundary_index
    rhos = model.rho_table(K)[n0 + 1:]
    # libm hypot and pow: the rounding of abs(rho) ** 2 on scalars (x * x
    # differs in the last bit, and with it every propagated amplitude)
    a2 = np.float_power(np.hypot(rhos.real, rhos.imag), 2.0)
    if np.any(a2 >= 1.0):
        raise SingularCouplingError("all |varrho_n| must be < 1")
    d = 1.0 - a2
    phases = np.exp(-2j * E * model.log_ell_table(K)[n0 + 1:])
    return (1.0 + a2) / d, sign * 2.0 * rhos * phases / d


def _propagate(diag: np.ndarray, off: np.ndarray, x: complex, y: complex):
    """Apply (x, y) -> (d x + o y, conj(o) x + d y) site by site; returns the
    lists of x, y and log scale from the seed on.

    Once the larger modulus leaves [1e-150, 1e150] both are divided by it
    and its log is added to the running scale, so neither a growing nor a
    decaying sequence leaves the double range.
    """
    scale = 0.0
    hi, lo = _RESCALE, 1 / _RESCALE  # locals: the cheapest test in this hot loop
    xs, ys, scales = [x], [y], [scale]
    for d, o in zip(diag.tolist(), off.tolist()):
        x, y = d * x + o * y, o.conjugate() * x + d * y
        m = max(abs(x), abs(y))
        if m > hi or m < lo:
            x /= m
            y /= m
            scale += math.log(m)
        xs.append(x)
        ys.append(y)
        scales.append(scale)
    return xs, ys, scales


def propagate_exact(model, E: float, vartheta: float, K: int) -> AmplitudeTrace:
    """Outward recursion A_n = T_n^{-1} A_{n-1} from the boundary seed.

    T^{-1}(E, varrho, ell) = T(E, -varrho, ell), so each step uses the
    transfer matrix with the coupling negated.
    """
    diag, off = _step_tables(model, E, K, -1.0)
    am, ap, ls = _propagate(diag, off, 1.0 + 0j, cmath.exp(1j * vartheta))
    return AmplitudeTrace(model.boundary_index, np.array(am, dtype=np.complex128),
                          np.array(ap, dtype=np.complex128), np.array(ls))


def decaying_direction(model, E: float, K: int = 400) -> np.ndarray:
    """Unit vector at the boundary site whose outward propagation decays.

    Found by inward power iteration: applying the inward transfer maps from
    site K back to the boundary amplifies precisely the outward-contracting
    direction, so any generic seed converges onto it.
    """
    diag, off = _step_tables(model, E, K, 1.0)
    xs, ys, _ = _propagate(diag[::-1], off[::-1], 1.0 + 0j, 0.7 - 0.3j)
    v = np.array([xs[-1], ys[-1]], dtype=np.complex128)
    return v / np.linalg.norm(v)


class SemiclassicalSums:
    """Running modulus/phase split of S_k = sum_n varrho_n ell_n^{-2iE}.

    Convention: R_k = |S_k| >= 0 and Phi_k = -arg(S_k), with Phi unwrapped
    continuously along k (carried through zeros of S_k).
    """

    def __init__(self, n0: int, R: np.ndarray, Phi: np.ndarray):
        self.n0 = n0
        self.R = R
        self.Phi = Phi

    def __len__(self) -> int:
        return len(self.R)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n0, self.n0 + len(self.R))

    def at(self, k: int) -> tuple[float, float]:
        i = k - self.n0
        return float(self.R[i]), float(self.Phi[i])


def semiclassical_sums(model, E: float, K: int, amplitude_scale: float = 1.0,
                       include_boundary: bool = True) -> SemiclassicalSums:
    """Partial sums over mirror couplings in modulus/phase form.

    amplitude_scale multiplies every varrho_n; the matched one-kick amplitude
    of the exact product needs scale 2 because the transfer matrix carries
    2*varrho in its off-diagonal entries.
    """
    n0 = model.boundary_index
    start = n0 if include_boundary else n0 + 1
    log_ells = model.log_ell_table(K)
    rhos = model.rho_table(K)
    terms = amplitude_scale * rhos[start:K + 1] * np.exp(-2j * E * log_ells[start:K + 1])
    partial = np.cumsum(terms)
    R = np.abs(partial)
    raw = -np.angle(partial)
    good = R > 1e-300
    # unwrap only over well-defined phases, then carry the last one through
    # the gaps (0 before the first)
    idx = np.flatnonzero(good)
    raw[idx] = np.unwrap(raw[idx])
    last = np.maximum.accumulate(np.where(good, np.arange(len(R)), -1))
    return SemiclassicalSums(start, R, np.where(last >= 0, raw[last], 0.0))


def bch_trace(sums: SemiclassicalSums, vartheta: float) -> AmplitudeTrace:
    """One-kick amplitudes exp(-R_k (cos Phi_k sigma_x + sin Phi_k sigma_y))
    applied to the boundary seed along the whole running sum; squared norm
    e^{2R}(1 - cos(Phi - vartheta)) + e^{-2R}(1 + cos(Phi - vartheta)).

    With delta = vartheta - Phi, s = sin(delta/2) and c = cos(delta/2),
    cosh R - sinh R e^{i delta} = e^{-R} + 2 sinh R s (s - ic): both real
    parts are positive, so a tuned phase (s ~ 0) loses nothing to
    cancellation. Where R > 300 both components are divided by e^L with
    L = max(R + log|s|, -R), which leaves them O(1) and puts L into
    log_scale: e^{-R} becomes e^{-R-L} and 2 sinh R s becomes
    (1 - e^{-2R}) sign(s) e^{R + log|s| - L}.
    """
    R = sums.R
    half = 0.5 * (vartheta - sums.Phi)
    s, c = np.sin(half), np.cos(half)
    big = np.flatnonzero(R > 300.0)
    Rs = R.copy()
    Rs[big] = 0.0
    decay, sh, w, log_scale = np.exp(-Rs), np.sinh(Rs), s.copy(), np.zeros_like(R)
    if big.size:
        Rb, sb = R[big], s[big]
        with np.errstate(divide="ignore"):  # log 0 = -inf at an exactly tuned phase
            log_s = np.log(np.abs(sb))
        L = np.maximum(Rb + log_s, -Rb)
        decay[big] = np.exp(-Rb - L)
        sh[big] = 0.5 - 0.5 * np.exp(-2 * Rb)
        w[big] = np.sign(sb) * np.exp(Rb + log_s - L)
        log_scale[big] = L
    am = decay + 2 * sh * w * (s - 1j * c)
    ap = cmath.exp(1j * vartheta) * (decay + 2 * sh * w * (s + 1j * c))
    return AmplitudeTrace(sums.n0, am, ap, log_scale)


@dataclass(frozen=True)
class NormReport:
    """Partial wave-function norm with a convergence verdict."""

    partial: float
    verdict: str  # 'convergent' | 'divergent' | 'marginal'
    tail_ratio: float


def wavefunction_norm(model, trace: AmplitudeTrace) -> NormReport:
    """Norm sum_n log(ell_{n+1}/ell_n) * ||A_n||^2 over the computed window.

    Verdict by ratio test on decade increments: the last decade's contribution
    against the previous decade's (< 0.9 convergent, > 1.1 divergent).
    """
    K = trace.n0 + len(trace) - 1
    log_ells = model.log_ell_table(K + 1)
    idx = trace.indices
    weights = log_ells[idx + 1] - log_ells[idx]
    n2 = trace.norm2
    if not np.all(np.isfinite(n2)):
        # overflowed sequence: certainly divergent
        return NormReport(partial=math.inf, verdict="divergent", tail_ratio=math.inf)
    contrib = weights * n2
    total = float(np.sum(contrib))
    n = len(contrib)
    c2 = float(np.sum(contrib[n - n // 10:]))
    c1 = float(np.sum(contrib[n - n // 10 - n // 10:n - n // 10])) if n >= 20 else c2
    ratio = c2 / c1 if c1 > 0 else 0.0
    if ratio < 0.9:
        verdict = "convergent"
    elif ratio > 1.1:
        verdict = "divergent"
    else:
        verdict = "marginal"
    return NormReport(partial=total, verdict=verdict, tail_ratio=ratio)


@dataclass(frozen=True)
class BandStructure:
    """Continuum bands 2 pi [n + delta, n + 1 - delta] of the geometric array."""

    epsilon: float
    g: float
    delta: float

    def in_continuum(self, E: float) -> bool:
        x = (E / (2 * math.pi)) % 1.0
        return self.delta < x < 1.0 - self.delta


def harmonic_bands(epsilon: float) -> BandStructure:
    """Band half-gap delta with sin(pi delta) = tanh g = 2 eps / (1 + eps^2)."""
    if abs(epsilon) >= 1:
        raise DomainError("|epsilon| must be < 1")
    g = math.log((1 + epsilon) / (1 - epsilon))
    delta = math.asin(abs(math.tanh(g))) / math.pi
    return BandStructure(epsilon=epsilon, g=g, delta=delta)
