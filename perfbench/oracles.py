"""Output checks for the benchmark's CLI operations, computed apart from the
program: mpmath special functions, closed forms, a Moebius table built here
with a numpy sieve, plain numpy transfer-matrix products, exact integer
arithmetic and trial division. Nothing in this module imports mirrorspec.

Every check takes the captured CSV text of one operation and returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import io
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def numeric_table(text: str, columns: list[str]) -> np.ndarray | str:
    """The CSV as a float array with the expected header, or a problem."""
    header, rows = parse_csv(text)
    if header != columns:
        return f"header {header} != {columns}"
    if not rows:
        return np.empty((0, len(columns)))
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def wrap_pi(x):
    """Wrap to (-pi, pi]."""
    y = np.mod(np.asarray(x, dtype=float) + math.pi, 2 * math.pi)
    return np.where(y <= 0, y + 2 * math.pi, y) - math.pi


@lru_cache(maxsize=2)
def moebius_table(limit: int) -> np.ndarray:
    """mu(0..limit) as float64 (mu(0) = 0), by an Eratosthenes-style sieve:
    flip the sign on every multiple of each prime and zero the multiples of
    its square."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p::p] = True
    for p in np.nonzero(~composite[2:])[0] + 2:
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu.astype(np.float64)


def moebius_terms(kmax: int, z: complex) -> np.ndarray:
    """mu(n) n^{-z} for n = 1..kmax."""
    n = np.arange(1, kmax + 1, dtype=np.float64)
    return moebius_table(kmax)[1:] * np.exp(-complex(z) * np.log(n))


# ---------------------------------------------------------------------------
# boundary spectrum

def boundary_residual(E: float, m_ell1: float, theta: float) -> float:
    """Im(e^{i theta/2} K_{1/2 - iE}(m l1)) from mpmath.besselk."""
    with mpmath.workdps(30):
        k = mpmath.besselk(mpmath.mpc(0.5, -E), m_ell1)
        return float(mpmath.im(mpmath.expj(theta / 2) * k))


def root_count_formula(E: float, m_ell1: float, theta: float) -> float:
    return (E / math.pi) * (math.log(2 * E / m_ell1) - 1) - theta / (2 * math.pi)


def check_xp_spectrum(text: str, *, emax: float, m_ell1: float, theta: float,
                      delta: float, grid_step: float, grid_offset: float) -> list[str]:
    """Root table of the single-mirror boundary problem.

    The roots are paired one to one with the sign changes of the mpmath
    residual on an independent grid (spacing grid_step, shifted by
    grid_offset), each root shows a sign change across +-delta, the count is
    within 1 of the closed form, and the count_formula column is that closed
    form at the root.
    """
    table = numeric_table(text, ["E_root", "residual", "count_formula"])
    if isinstance(table, str):
        return [table]
    problems = []
    roots = table[:, 0]
    est = root_count_formula(emax, m_ell1, theta)
    if abs(len(roots) - est) > 1.0:
        problems.append(f"{len(roots)} roots below {emax}, closed form {est:.3f}")
    if np.any(np.diff(roots) <= 0) or np.any(roots <= 0) or np.any(roots > emax):
        problems.append("roots not ascending inside (0, emax]")
    grid = np.concatenate(([0.0], np.arange(grid_offset, emax, grid_step), [emax]))
    g = np.array([boundary_residual(float(E), m_ell1, theta) for E in grid])
    brackets = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)
                if g[i] * g[i + 1] < 0]
    if len(brackets) != len(roots):
        problems.append(f"{len(roots)} roots, mpmath residual changes sign "
                        f"{len(brackets)} times on [0, {emax}]")
    else:
        for r, (lo, hi) in zip(roots, brackets):
            if not lo <= r <= hi:
                problems.append(f"root {r:.17g} outside mpmath bracket [{lo}, {hi}]")
    for r, res, count in table:
        g_lo = boundary_residual(r - delta, m_ell1, theta)
        g_hi = boundary_residual(r + delta, m_ell1, theta)
        if g_lo * g_hi >= 0:
            problems.append(f"no sign change of the mpmath residual across {r:.17g}")
        if not 0 <= res <= max(abs(g_lo), abs(g_hi)):
            problems.append(f"residual {res:.17g} at {r:.17g} not below the residual "
                            f"{delta:.1e} away")
        if r > 0 and abs(count - root_count_formula(r, m_ell1, theta)) > 1e-9:
            problems.append(f"count_formula {count:.17g} at {r:.17g}")
    return problems


# ---------------------------------------------------------------------------
# energy scans

SCAN_COLUMNS = ["E", "theta", "verdict", "growth_exponent", "ci_lo", "ci_hi",
                "R_K", "Phi_K"]
VERDICTS = {"Continuum", "DiscreteCandidate", "Gap", "NonNormalizable",
            "Inconclusive"}


def _scan_rows(text: str, emin: float, emax: float, grid: int, theta: float):
    header, rows = parse_csv(text)
    if header != SCAN_COLUMNS:
        return None, [f"header {header}"]
    problems = []
    if len(rows) != grid:
        return None, [f"{len(rows)} rows for a grid of {grid}"]
    E = np.array([float(r[0]) for r in rows])
    want = np.linspace(emin, emax, grid)
    if np.max(np.abs(E - want)) > 1e-12 * max(1.0, abs(emax)):
        problems.append("E column is not the requested grid")
    if any(float(r[1]) != theta for r in rows):
        problems.append("theta column differs from the requested phase")
    verdicts = [r[2] for r in rows]
    if not set(verdicts) <= VERDICTS:
        problems.append(f"unknown verdicts {set(verdicts) - VERDICTS}")
    fit = np.array([[float(v) for v in r[3:6]] for r in rows])
    bad = ~(np.isfinite(fit).all(axis=1)
            & (fit[:, 1] <= fit[:, 0]) & (fit[:, 0] <= fit[:, 2]))
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"growth_exponent not finite inside its interval at E={E[i]:.17g}")
    S = np.array([float(r[6]) * cmath.exp(-1j * float(r[7])) for r in rows])
    return (E, verdicts, S), problems


def _compare_sums(E, S_prog, S_ref, what: str) -> list[str]:
    err = np.abs(S_prog - S_ref)
    bad = err > 1e-9 * (1.0 + np.abs(S_ref))
    return [f"R_K e^(-i Phi_K) at E={E[i]:.17g} is {S_prog[i]:.12g}, {what} "
            f"gives {S_ref[i]:.12g}" for i in np.nonzero(bad)[0]]


def check_scan_riemann(text: str, *, emin: float, emax: float, grid: int,
                       theta: float, epsilon: float, kmax: int) -> list[str]:
    """R_K and Phi_K against eps sum_{n<=K} mu(n) n^{-1/2-iE} from the
    benchmark's own Moebius table."""
    parsed, problems = _scan_rows(text, emin, emax, grid, theta)
    if parsed is None:
        return problems
    E, _, S = parsed
    n = np.arange(1, kmax + 1, dtype=np.float64)
    w = epsilon * moebius_table(kmax)[1:] * n ** -0.5
    ref = np.array([np.sum(w * np.exp(-1j * e * np.log(n))) for e in E])
    problems += _compare_sums(E, S, ref, "the Moebius sum")
    return problems


def harmonic_band_edges(epsilon: float, emax: float) -> tuple[float, np.ndarray]:
    """Half-gap delta with sin(pi delta) = 2 eps/(1 + eps^2) and the band
    edges 2 pi (q +- delta) up to emax."""
    delta = math.asin(2 * abs(epsilon) / (1 + epsilon**2)) / math.pi
    qs = range(int(emax / (2 * math.pi)) + 2)
    return delta, np.array([2 * math.pi * (q + s * delta) for q in qs for s in (-1, 1)])


def check_scan_harmonic(text: str, *, emin: float, emax: float, grid: int,
                        theta: float, epsilon: float, kmax: int,
                        edge_margin: float = 0.05) -> list[str]:
    """Verdicts against the closed-form bands of the geometric array (points
    within edge_margin of a band edge are skipped), and R_K, Phi_K against
    the direct sum eps sum_{n=0..K} e^{-iEn}."""
    parsed, problems = _scan_rows(text, emin, emax, grid, theta)
    if parsed is None:
        return problems
    E, verdicts, S = parsed
    delta, edges = harmonic_band_edges(epsilon, emax)
    for e, v in zip(E, verdicts):
        if np.min(np.abs(e - edges)) < edge_margin:
            continue
        x = (e / (2 * math.pi)) % 1.0
        want = "Continuum" if delta < x < 1 - delta else "Gap"
        if v != want:
            problems.append(f"verdict {v} at E={e:.17g}, bands say {want}")
    n = np.arange(kmax + 1, dtype=np.float64)
    ref = np.array([epsilon * np.sum(np.exp(-1j * e * n)) for e in E])
    problems += _compare_sums(E, S, ref, "the geometric sum")
    return problems


# ---------------------------------------------------------------------------
# amplitude traces and Perron sums

def outward_norms(E: float, theta: float, epsilon: float, sigma: float,
                  prefix: int) -> np.ndarray:
    """||A_k||^2 for k = 1..prefix on the sqrt array with Moebius couplings:
    A_k = T_k^{-1} A_{k-1} from (1, e^{i theta}), where
    T_k = [[1 + |r|^2, 2 r l^{-2iE}], [2 conj(r) l^{2iE}, 1 + |r|^2]] / (1 - |r|^2),
    r = eps mu(k) k^{-sigma}, l = sqrt(k), inverted with numpy.linalg.inv."""
    k = np.arange(1, prefix + 1, dtype=np.float64)
    r = epsilon * moebius_table(prefix)[1:] * k ** -sigma
    a2 = np.abs(r) ** 2
    phase = np.exp(-1j * E * np.log(k))
    T = np.empty((prefix, 2, 2), dtype=np.complex128)
    T[:, 0, 0] = T[:, 1, 1] = (1 + a2) / (1 - a2)
    T[:, 0, 1] = 2 * r * phase / (1 - a2)
    T[:, 1, 0] = 2 * np.conj(r) / phase / (1 - a2)
    T_inv = np.linalg.inv(T)
    A = np.array([1.0 + 0j, cmath.exp(1j * theta)])
    out = np.empty(prefix)
    out[0] = np.vdot(A, A).real  # the seed sits on the boundary mirror k = 1
    for i in range(1, prefix):
        A = T_inv[i] @ A
        out[i] = np.vdot(A, A).real
    return out


def check_amp_trace(text: str, *, E: float, theta: float, epsilon: float,
                    sigma: float, kmax: int, prefix: int,
                    slope_target: bool) -> list[str]:
    """Amplitude trace of the Moebius model along one energy.

    R_k, Phi_k at every k against the Moebius sum; A2_bch against the
    one-kick norm e^{2R}(1 - cos(Phi - theta)) + e^{-2R}(1 + cos(Phi - theta))
    of the emitted columns; A2_exact over the first `prefix` sites against a
    numpy matrix product. With slope_target, the slope of R_k against log k
    (k >= 100) lies within 20% of eps/|zeta'(rho)| (mpmath); without it,
    the last decade of A2_bch stays below twice its earlier maximum.
    """
    table = numeric_table(text, ["k", "A2_exact", "A2_bch", "R_k", "Phi_k"])
    if isinstance(table, str):
        return [table]
    problems = []
    k, a2_exact, a2_bch, R, Phi = table.T
    if len(k) != kmax or np.any(k != np.arange(1, kmax + 1)):
        return [f"k column is not 1..{kmax} ({len(k)} rows)"]
    S_ref = np.cumsum(epsilon * moebius_terms(kmax, sigma + 1j * E))
    S = R * np.exp(-1j * Phi)
    for i in np.nonzero(np.abs(S - S_ref) > 1e-9 * (1.0 + np.abs(S_ref)))[0][:3]:
        problems.append(f"R_k, Phi_k at k={i + 1} give {S[i]:.12g}, "
                        f"the Moebius sum {S_ref[i]:.12g}")
    c = np.cos(Phi - theta)
    bch = np.exp(2 * R) * (1 - c) + np.exp(-2 * R) * (1 + c)
    tol = 1e-9 * bch + 1e-13 * np.exp(2 * R) * (1 + np.abs(Phi))
    for i in np.nonzero(np.abs(a2_bch - bch) > tol)[0][:3]:
        problems.append(f"A2_bch {a2_bch[i]:.17g} at k={int(k[i])}, one-kick norm "
                        f"of the emitted R, Phi is {bch[i]:.17g}")
    exact = outward_norms(E, theta, epsilon, sigma, prefix)
    for i in np.nonzero(np.abs(a2_exact[:prefix] - exact) > 1e-9 * exact)[0][:3]:
        problems.append(f"A2_exact {a2_exact[i]:.17g} at k={int(k[i])}, matrix "
                        f"product gives {exact[i]:.17g}")
    if slope_target:
        with mpmath.workdps(20):
            target = epsilon / float(abs(mpmath.zeta(mpmath.mpc(sigma, E), derivative=1)))
        tail = k >= 100
        slope = float(np.polyfit(np.log(k[tail]), R[tail], 1)[0])
        if abs(slope / target - 1) > 0.2:
            problems.append(f"R_k slope {slope:.4f} per log k, eps/|zeta'(rho)| = {target:.4f}")
    else:
        last = a2_bch[k >= kmax // 10]
        before = a2_bch[(k >= 10) & (k < kmax // 10)]
        if last.max() > 2 * before.max():
            problems.append(f"A2_bch grows: {last.max():.4g} in the last decade, "
                            f"{before.max():.4g} before")
    return problems


def check_perron(text: str, *, sigma: float, E: float, kmax: int,
                 grid: int) -> list[str]:
    """Each row against sum_{n<=x} mu(n) n^{-z} (last term halved) over the
    benchmark's Moebius table; log_x_fit refitted from the emitted columns."""
    table = numeric_table(text, ["x", "re", "im", "modulus", "log_x_fit"])
    if isinstance(table, str):
        return [table]
    problems = []
    x = table[:, 0].astype(np.int64)
    if (len(x) == 0 or len(x) > grid or x[0] != 10 or x[-1] != kmax
            or np.any(np.diff(x) <= 0)):
        return [f"x column is not an increasing grid from 10 to {kmax}"]
    terms = moebius_terms(kmax, complex(sigma, E))
    partial = np.cumsum(terms)
    ref = partial[x - 1] - 0.5 * terms[x - 1]
    got = table[:, 1] + 1j * table[:, 2]
    for i in np.nonzero(np.abs(got - ref) > 1e-9 * (1 + np.abs(ref)))[0]:
        problems.append(f"sum to x={x[i]} is {got[i]:.12g}, direct sum {ref[i]:.12g}")
    mod = table[:, 3]
    if np.any(np.abs(mod - np.abs(got)) > 1e-12 * (1 + mod)):
        problems.append("modulus column is not |re + i im|")
    logs = np.log(x.astype(np.float64))
    for i in range(len(x)):
        want = float(np.polyfit(logs[:i + 1], mod[:i + 1], 1)[0]) if i >= 2 else 0.0
        if abs(table[i, 4] - want) > 1e-9 * (1 + abs(want)):
            problems.append(f"log_x_fit {table[i, 4]:.17g} at x={x[i]}, refit gives {want:.17g}")
    return problems


# ---------------------------------------------------------------------------
# zero tables

ZERO_COLUMNS = ["n", "E_n", "Zprime_sign", "theta_at_zero", "vartheta_star"]


def _zero_rows(text: str, columns: list[str]):
    table = numeric_table(text, columns)
    if isinstance(table, str):
        return None, [table]
    n = table[:, 0]
    if np.any(n != np.arange(1, len(n) + 1)):
        return None, ["n column is not 1, 2, ..."]
    problems = []
    if np.any(np.diff(table[:, 1]) <= 0):
        problems.append("E_n not strictly ascending")
    return table, problems


def _fd_sign(f, t: float, h: float) -> int:
    return 1 if f(t + h) - f(t - h) > 0 else -1


def check_zeros_riemann(text: str, *, emax: float, fd_step: float) -> list[str]:
    """Riemann zero table: row count is mpmath.nzeros(emax), each E_n is
    mpmath.zetazero(n), Zprime_sign is the sign of a central difference of
    mpmath.siegelz, theta_at_zero is mpmath.siegeltheta and vartheta_star is
    pi(n + 1/2) - siegeltheta(E_n) wrapped to (-pi, pi]."""
    table, problems = _zero_rows(text, ZERO_COLUMNS)
    if table is None:
        return problems
    with mpmath.workdps(20):
        count = int(mpmath.nzeros(emax))
        if len(table) != count:
            problems.append(f"{len(table)} zeros below {emax}, mpmath.nzeros gives {count}")
        for n, E, sign, th, star in table:
            ref = float(mpmath.zetazero(int(n)).imag)
            if abs(E - ref) > 1e-8:
                problems.append(f"E_{int(n)} = {E:.17g}, mpmath.zetazero gives {ref:.17g}")
            fd = _fd_sign(lambda t: float(mpmath.siegelz(t)), ref, fd_step)
            if sign != fd:
                problems.append(f"Zprime_sign {int(sign)} at E_{int(n)}, finite "
                                f"difference of siegelz gives {fd}")
            theta = float(mpmath.siegeltheta(E))
            if abs(th - theta) > 1e-9:
                problems.append(f"theta_at_zero {th:.17g} at E_{int(n)}, siegeltheta {theta:.17g}")
            if abs(wrap_pi(star - (math.pi * (n + 0.5) - theta))) > 1e-9:
                problems.append(f"vartheta_star {star:.17g} at n={int(n)}")
    return problems


def dirichlet_z(t: float, chi: list[int], parity: int) -> tuple[complex, float]:
    """(Z_chi(t), theta_chi(t)) with Z_chi = e^{i theta_chi} L(1/2 + it, chi) from mpmath and
    theta_chi(t) = Im log Gamma((1 + 2a)/4 + it/2) - (t/2) log(pi/q)
    - arg(eps_chi)/2 and eps_chi = tau(chi) / (i^a sqrt q)."""
    q = len(chi)
    tau = sum(c * mpmath.expjpi(2 * mpmath.mpf(n) / q) for n, c in enumerate(chi))
    eps = tau / (mpmath.mpc(0, 1) ** parity * mpmath.sqrt(q))
    theta = (mpmath.im(mpmath.loggamma(mpmath.mpf(1 + 2 * parity) / 4 + 0.5j * t))
             - 0.5 * t * mpmath.log(mpmath.pi / q) - 0.5 * mpmath.arg(eps))
    return complex(mpmath.expj(theta) * mpmath.dirichlet(mpmath.mpc(0.5, t), chi)), float(theta)


def check_zeros_dirichlet(text: str, *, chi: list[int], parity: int, emax: float,
                          fd_step: float, count_step: float,
                          count_offset: float) -> list[str]:
    """Zero table of L(s, chi) for a real primitive character: each E_n is a
    zero of mpmath.dirichlet, the row count is the number of sign changes of
    Re Z_chi on a grid of spacing count_step, theta_at_zero is theta_chi,
    Zprime_sign is the sign of a central difference of Re Z_chi, and
    vartheta_star/pi = n + (2 + b)/2 - theta_chi/pi (wrapped), b the sign of
    Re Z_chi(0)."""
    table, problems = _zero_rows(text, ZERO_COLUMNS)
    if table is None:
        return problems
    with mpmath.workdps(20):
        grid = np.arange(count_offset, emax, count_step)
        z = np.array([dirichlet_z(float(t), chi, parity)[0].real for t in grid])
        count = int(np.sum(z[:-1] * z[1:] < 0))
        if len(table) != count:
            problems.append(f"{len(table)} zeros below {emax}, Re Z_chi changes "
                            f"sign {count} times")
        b = 1 if dirichlet_z(0.0, chi, parity)[0].real >= 0 else -1
        for n, E, sign, th, star in table:
            l_abs = float(abs(mpmath.dirichlet(mpmath.mpc(0.5, E), chi)))
            if l_abs > 1e-7:
                problems.append(f"|L(1/2 + i E_{int(n)})| = {l_abs:.3g} at {E:.17g}")
            theta = dirichlet_z(E, chi, parity)[1]
            if abs(th - theta) > 1e-9:
                problems.append(f"theta_at_zero {th:.17g} at E_{int(n)}, mpmath {theta:.17g}")
            fd = _fd_sign(lambda t: dirichlet_z(t, chi, parity)[0].real, E, fd_step)
            if sign != fd:
                problems.append(f"Zprime_sign {int(sign)} at E_{int(n)} = {E:.6f}, "
                                f"finite difference of Re Z_chi gives {fd}")
            want = math.pi * (n + 0.5 * (2 + b)) - theta
            if abs(wrap_pi(star - want)) > 1e-9:
                problems.append(f"vartheta_star {star:.17g} at n={int(n)}")
    return problems


def check_theta_of_zero(text: str, *, count: int, sample_n: list[int]) -> list[str]:
    """Tuned phases of the first `count` zeros: vartheta_star against
    pi(n + 1/2) - siegeltheta(E_n) on every row, E_n against
    mpmath.zetazero(n) at the sampled n."""
    table, problems = _zero_rows(text, ["n", "E_n", "vartheta_star"])
    if table is None:
        return problems
    if len(table) != count:
        return problems + [f"{len(table)} rows, {count} zeros requested"]
    with mpmath.workdps(20):
        theta = np.array([float(mpmath.siegeltheta(E)) for E in table[:, 1]])
        bad = np.abs(wrap_pi(table[:, 2] - (math.pi * (table[:, 0] + 0.5) - theta))) > 1e-9
        for i in np.nonzero(bad)[0]:
            problems.append(f"vartheta_star {table[i, 2]:.17g} at n={i + 1}")
        for n in sample_n:
            ref = float(mpmath.zetazero(n).imag)
            if abs(table[n - 1, 1] - ref) > 1e-8:
                problems.append(f"E_{n} = {float(table[n - 1, 1]):.17g}, mpmath.zetazero gives {ref:.17g}")
    return problems


# ---------------------------------------------------------------------------
# mirror paths

def is_prime_trial(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def check_mirror_paths(text: str, *, n: int, max_depth: int) -> list[str]:
    """Every path obeys the zig-zag rule n_1 > n_2 < n_3 > ... (odd
    positions >= 2, even positions >= 1 and below both neighbours), has at
    most 2 max_depth - 1 bounces on mirrors up to 4n, and prod(odd)/prod(even)
    = n exactly; tau and tau_as_log_of match that ratio; paths are distinct
    and sorted; the summary row counts them and its verdict matches trial
    division."""
    header, rows = parse_csv(text)
    if header != ["path_id", "bounce_sequence", "tau", "tau_as_log_of"]:
        return [f"header {header}"]
    if not rows or rows[-1][0] != "summary":
        return ["no summary row"]
    problems = []
    paths = rows[:-1]
    seen = []
    for i, (pid, seq, tau, ratio) in enumerate(paths):
        if pid != str(i):
            problems.append(f"path_id {pid} at row {i}")
        b = tuple(int(v) for v in seq.split("-"))
        zigzag = (len(b) % 2 == 1 and len(b) <= 2 * max_depth - 1
                  and max(b) <= 4 * n
                  and all(v >= 2 for v in b[0::2]) and all(v >= 1 for v in b[1::2])
                  and all(b[j - 1] > b[j] < b[j + 1] for j in range(1, len(b), 2)))
        if not zigzag:
            problems.append(f"path {seq} breaks the zig-zag rule")
        num, den = math.prod(b[0::2]), math.prod(b[1::2])
        if Fraction(num, den) != n:
            problems.append(f"path {seq}: prod odd / prod even = {num}/{den} != {n}")
        if ratio != f"{num}/{den}":
            problems.append(f"tau_as_log_of {ratio} for {seq}")
        if abs(float(tau) - math.log(n)) > 1e-12:
            problems.append(f"tau {tau} for {seq}, log {n} = {math.log(n):.17g}")
        seen.append(b)
    if seen != sorted(set(seen)):
        problems.append("paths not distinct and sorted")
    _, verdict, npaths, target = rows[-1]
    if float(npaths) != len(paths) or target != str(n):
        problems.append(f"summary {rows[-1]} for {len(paths)} paths")
    want = "prime" if is_prime_trial(n) else "composite"
    if verdict != want:
        problems.append(f"verdict {verdict}, trial division says {want}")
    return problems
