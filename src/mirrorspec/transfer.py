"""Transfer-matrix engine: matching matrices, SU(1,1) transfer matrices,
exact outward amplitude propagation, semiclassical running sums with their
one-kick (BCH-summed) amplitudes, norms and scalar products, and the
kicked-rotator decomposition with the closed-form geometric-array spectrum.

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

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


@dataclass(frozen=True)
class ReflectionParams:
    """Dimensionless mirror couplings (r, r', r'')."""

    r: float
    r_prime: float = 0.0
    r_dprime: float = 0.0

    @property
    def varrho(self) -> complex:
        return self.r - 1j * self.r_prime

    @property
    def det(self) -> float:
        return 1.0 - self.r**2 - self.r_prime**2 + self.r_dprime**2


@dataclass(frozen=True)
class AmplitudeVector:
    """Two-component amplitude (A_-, A_+), optionally carrying a log scale
    so super-exponentially growing sequences stay representable."""

    a_minus: complex
    a_plus: complex
    log_scale: float = 0.0

    @property
    def norm2(self) -> float:
        return (abs(self.a_minus) ** 2 + abs(self.a_plus) ** 2) * math.exp(2 * self.log_scale)

    @property
    def log_norm2(self) -> float:
        return math.log(abs(self.a_minus) ** 2 + abs(self.a_plus) ** 2) + 2 * self.log_scale

    @property
    def charge(self) -> float:
        """sigma_z charge |A_-|^2 - |A_+|^2 (conserved; 0 off the boundary seed)."""
        return (abs(self.a_minus) ** 2 - abs(self.a_plus) ** 2) * math.exp(2 * self.log_scale)

    def as_array(self) -> np.ndarray:
        return np.array([self.a_minus, self.a_plus], dtype=np.complex128) * math.exp(self.log_scale)


def n_matrices(params: ReflectionParams) -> tuple[np.ndarray, np.ndarray]:
    """Matching matrices N_+ and N_- across one mirror; det = 1 - r^2 - r'^2 + r''^2."""
    r, rp, rpp = params.r, params.r_prime, params.r_dprime
    n_plus = np.array([[1 + 1j * rpp, 1j * r + rp],
                       [-1j * r + rp, 1 - 1j * rpp]], dtype=np.complex128)
    n_minus = np.array([[1 - 1j * rpp, -(1j * r + rp)],
                        [-(-1j * r + rp), 1 + 1j * rpp]], dtype=np.complex128)
    return n_plus, n_minus


def l_matrix(params: ReflectionParams) -> np.ndarray:
    """Gauge-reduced matching matrix (r'' = 0): an SU(1,1)/U(1) coset element."""
    r, rp = params.r, params.r_prime
    if params.r_dprime != 0.0:
        raise DomainError("gauge-reduced form requires r'' = 0")
    d = 1 - r**2 - rp**2
    if d <= 0:
        raise SingularCouplingError(f"need r^2 + r'^2 < 1, got {r**2 + rp**2}")
    diag = (1 + r**2 + rp**2) / d
    return np.array([[diag, 2 * (1j * r + rp) / d],
                     [2 * (-1j * r + rp) / d, diag]], dtype=np.complex128)


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


def boundary_vector(vartheta: float) -> AmplitudeVector:
    """Amplitude seed (1, e^{i vartheta}) fixed by the self-adjoint boundary."""
    return AmplitudeVector(1.0 + 0j, cmath.exp(1j * vartheta))


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

    Once either modulus passes 1e150 both are divided by it and its log is
    added to the running scale.
    """
    scale = 0.0
    xs, ys, scales = [x], [y], [scale]
    for d, o in zip(diag.tolist(), off.tolist()):
        x, y = d * x + o * y, o.conjugate() * x + d * y
        m = max(abs(x), abs(y))
        if m > _RESCALE:
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

    @property
    def complex_sum(self) -> np.ndarray:
        return self.R * np.exp(-1j * self.Phi)


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
    cancellation. Where R > 300, e^R moves into log_scale, leaving e^{-2R}
    and (1 - e^{-2R})/2 in place of e^{-R} and sinh R.
    """
    R = sums.R
    small = R <= 300.0
    Rs = np.where(small, R, 0.0)
    em2r = np.exp(-2 * R)
    decay = np.where(small, np.exp(-Rs), em2r)
    sh = np.where(small, np.sinh(Rs), 0.5 - 0.5 * em2r)
    half = 0.5 * (vartheta - sums.Phi)
    s, c = np.sin(half), np.cos(half)
    am = decay + 2 * sh * s * (s - 1j * c)
    ap = cmath.exp(1j * vartheta) * (decay + 2 * sh * s * (s + 1j * c))
    return AmplitudeTrace(sums.n0, am, ap, np.where(small, 0.0, R))


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


def scalar_product(E1: float, trace1: AmplitudeTrace, E2: float, trace2: AmplitudeTrace,
                   model) -> complex:
    """Truncated eigenfunction overlap for E1 != E2."""
    if E1 == E2:
        raise DomainError("scalar product needs distinct energies")
    if trace1.n0 != trace2.n0 or len(trace1) != len(trace2):
        raise DomainError("traces must share index range")
    E12 = E1 - E2
    K = trace1.n0 + len(trace1) - 1
    log_ells = model.log_ell_table(K + 1)
    idx = trace1.indices
    up = np.exp(1j * E12 * log_ells[idx + 1]) - np.exp(1j * E12 * log_ells[idx])
    dn = np.exp(-1j * E12 * log_ells[idx + 1]) - np.exp(-1j * E12 * log_ells[idx])
    s1 = np.exp(trace1.log_scale)
    s2 = np.exp(trace2.log_scale)
    total = np.sum(up * np.conj(trace1.a_minus * s1) * trace2.a_minus * s2
                   - dn * np.conj(trace1.a_plus * s1) * trace2.a_plus * s2)
    return complex(total / (1j * E12))


def decompose_T(r: float, ell: float, E: float) -> tuple[float, float]:
    """Split T(E, r, ell) (real coupling) as e^{-i phi sz} e^{g sx} e^{i phi sz}."""
    if abs(r) >= 1:
        raise DomainError(f"|r| must be < 1, got {r}")
    if ell <= 0:
        raise DomainError("mirror radius must be positive")
    g = math.log((1 + r) / (1 - r))
    phi = E * math.log(ell)
    return g, phi


def recompose_T(g: float, phi: float) -> np.ndarray:
    """Inverse of decompose_T: [[cosh g, e^{-2i phi} sinh g], [e^{2i phi} sinh g, cosh g]]."""
    return np.array([[math.cosh(g), cmath.exp(-2j * phi) * math.sinh(g)],
                     [cmath.exp(2j * phi) * math.sinh(g), math.cosh(g)]],
                    dtype=np.complex128)


def kicked_step(a_hat: AmplitudeVector, delta: float, g: float) -> AmplitudeVector:
    """Inward kicked-rotator step e^{-i delta sigma_z} e^{g sigma_x}: free spin
    precession for a time delta followed by an imaginary x-kick of strength g.
    The outward propagation of propagate_exact applies this map's inverse."""
    ch, sh = math.cosh(g), math.sinh(g)
    x = a_hat.a_minus * ch + a_hat.a_plus * sh
    y = a_hat.a_minus * sh + a_hat.a_plus * ch
    ph = cmath.exp(-1j * delta)
    return AmplitudeVector(ph * x, y / ph, a_hat.log_scale)


def harmonic_S(E: float, g: float) -> np.ndarray:
    """One-period outward step e^{-g sigma_x} e^{i E sigma_z / 2} of the
    geometric mirror array; Tr S = 2 cosh g cos(E/2) and S(E + 2 pi) = -S(E)."""
    ch, sh = math.cosh(g), math.sinh(g)
    e = cmath.exp(1j * E / 2)
    return np.array([[ch * e, -sh / e], [-sh * e, ch / e]], dtype=np.complex128)


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
