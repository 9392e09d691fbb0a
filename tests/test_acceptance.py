"""End-to-end acceptance criteria.

Each test prints exactly one PASS/FAIL line for its criterion, with the
measured quantities, then asserts at the stated tolerances.
"""

import math
import time

import mpmath
import numpy as np

from mirrorspec import boundary_spectrum as bs
from mirrorspec import mirrors, models, numkit, transfer
from mirrorspec.arith import characters_mod


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_zeta_hardy_machinery():
    t0 = time.monotonic()
    zeta2_err = abs(numkit.zeta(2.0).real - math.pi**2 / 6)
    zs = models.riemann_zeros(t_max=100.0)
    e1_err = abs(zs[0] - 14.1347)
    count = len(zs)
    fluct = abs(count - numkit.smoothed_zero_count(100.0))
    dt = time.monotonic() - t0
    ok = (zeta2_err < 1e-10 and e1_err < 1e-3 and count == 29
          and fluct < 2 and dt < 10)
    _report(1, ok, f"zeta(2) err {zeta2_err:.2e}, E1 err {e1_err:.2e}, "
                   f"count(100) {count}, |fluct| {fluct:.3f}, {dt:.1f}s")


def test_criterion_2_boundary_spectrum():
    t0 = time.monotonic()
    prob_pi = bs.BoundaryProblem(m_ell1=2 * math.pi, vartheta=math.pi)
    roots = bs.solve_spectrum(prob_pi, 30.0)
    est = bs.counting_estimate(prob_pi, 30.0)
    count_ok = abs(len(roots.roots) - est) <= 1.0
    # theta = pi: even residual, so mirrored roots satisfy the same equation
    sym_pi = max(abs(bs.eigen_residual(prob_pi, -r)) for r in roots.roots)
    prob_0 = bs.BoundaryProblem(m_ell1=2 * math.pi, vartheta=0.0)
    sym_0 = max(abs(bs.eigen_residual(prob_0, E) + bs.eigen_residual(prob_0, -E))
                for E in (0.7, 5.5, 13.1, 22.4))
    zero_root_0 = abs(bs.eigen_residual(prob_0, 0.0))
    zero_root_pi = abs(bs.eigen_residual(prob_pi, 0.0))
    dt = time.monotonic() - t0
    ok = (count_ok and sym_pi < 1e-9 and sym_0 < 1e-9
          and zero_root_0 < 1e-12 and zero_root_pi > 1e-6 and dt < 60)
    _report(2, ok, f"count {len(roots.roots)} vs est {est:.2f}, "
                   f"symmetry {max(sym_pi, sym_0):.1e}, "
                   f"G(0): {zero_root_0:.1e}/{zero_root_pi:.1e}, {dt:.1f}s")


def test_criterion_3_harmonic_exactness():
    t0 = time.monotonic()
    mismatches = 0
    used = 0
    delta_err = 0.0
    for eps in (0.1, 0.3, 0.6):
        bands = transfer.harmonic_bands(eps)
        delta_err = max(delta_err, abs(
            bands.delta - math.asin(2 * eps / (1 + eps**2)) / math.pi))
        m = models.ModelSpec("harmonic", epsilon=eps)
        edges = np.array([2 * math.pi * q + s * 2 * math.pi * bands.delta
                          for q in range(4) for s in (-1, 1)])
        for E in np.linspace(0.0, 4 * math.pi, 800):
            if np.min(np.abs(E - edges)) < 0.05:
                continue
            used += 1
            verdict = models.classify_energy(m, float(E), math.pi,
                                             K_max=600).verdict
            want = "Continuum" if bands.in_continuum(float(E)) else "Gap"
            mismatches += verdict != want
    # discrete candidates at E = 2*pi*n exactly for (th=0,eps>0), (th=pi,eps<0)
    discrete_ok = True
    for eps in (0.1, 0.3, 0.6):
        for sign, th, want in ((1, 0.0, True), (-1, math.pi, True),
                               (1, math.pi, False), (-1, 0.0, False)):
            m = models.ModelSpec("harmonic", epsilon=sign * eps)
            v = models.classify_energy(m, 2 * math.pi, th, K_max=400).verdict
            discrete_ok &= (v == "DiscreteCandidate") == want
    dt = time.monotonic() - t0
    ok = mismatches == 0 and delta_err < 1e-3 and discrete_ok and dt < 60
    _report(3, ok, f"{used} grid points, {mismatches} mismatches, "
                   f"delta err {delta_err:.1e}, 2pi-n bound states "
                   f"{'ok' if discrete_ok else 'WRONG'}, {dt:.1f}s")


def test_criterion_4_su11_conservation():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    sz = np.diag([1.0, -1.0])
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(-0.95, 0.95)
        rp = rng.uniform(-math.sqrt(max(0.9 - r * r, 0.0)),
                         math.sqrt(max(0.9 - r * r, 0.0)))
        varrho = complex(r, -rp)
        E = rng.uniform(-40, 40)
        ell = math.exp(rng.uniform(0, 4))
        T = transfer.t_matrix(E, varrho, ell)
        worst = max(worst, abs(np.linalg.det(T) - 1.0))
        worst = max(worst, np.max(np.abs(T.conj().T @ sz @ T - sz)))
        worst = max(worst, np.max(np.abs(
            T @ transfer.t_matrix(E, -varrho, ell) - np.eye(2))))
    m = models.ModelSpec("riemann", epsilon=0.4, sigma=0.5)
    q = transfer.propagate_exact(m, 12.2, 0.9, 1000).charge
    charge_drift = float(np.max(np.abs(q - q[0])))
    dt = time.monotonic() - t0
    ok = worst < 1e-12 and charge_drift < 1e-8 and dt < 10
    _report(4, ok, f"matrix identities {worst:.1e} (tol 1e-12), "
                   f"charge drift {charge_drift:.1e} (tol 1e-8), {dt:.1f}s")


def _bch_deviation(kind: str, E: float, eps: float, th: float, K: int = 100):
    m = models.ModelSpec(kind, epsilon=eps, sigma=0.5)
    ex = transfer.propagate_exact(m, E, th, K)
    sums = transfer.semiclassical_sums(m, E, K, amplitude_scale=2.0,
                                       include_boundary=False)
    bc = transfer.bch_trace(sums, th)
    v1 = np.stack([ex.a_minus * np.exp(ex.log_scale),
                   ex.a_plus * np.exp(ex.log_scale)])[:, 1:]
    v2 = np.stack([bc.a_minus * np.exp(bc.log_scale),
                   bc.a_plus * np.exp(bc.log_scale)])
    return float(np.max(np.linalg.norm(v1 - v2, axis=0)))


def test_criterion_5_bch_order():
    t0 = time.monotonic()
    factors = {}
    for kind, E in (("harmonic", 1.0), ("riemann", 10.0)):
        d1 = _bch_deviation(kind, E, 0.05, math.pi / 3)
        d2 = _bch_deviation(kind, E, 0.025, math.pi / 3)
        factors[kind] = d1 / d2
    dt = time.monotonic() - t0
    ok = all(2.5 <= f <= 6.0 for f in factors.values()) and dt < 10
    _report(5, ok, "halving factors " +
            ", ".join(f"{k} {f:.2f}" for k, f in factors.items()) +
            f" (window [2.5, 6]), {dt:.1f}s")


def test_criterion_6_riemann_model_at_zeros(E1):
    t0 = time.monotonic()
    m = models.ModelSpec("riemann", epsilon=0.25, sigma=0.5)
    th1 = models.theta_star_riemann(1, E1)
    rep = models.classify_energy(m, E1, th1, K_max=2000)
    decay_ok = rep.verdict == "DiscreteCandidate" and rep.ci[1] < 0
    m5 = models.ModelSpec("riemann", epsilon=0.5, sigma=0.5)
    rep24 = models.classify_energy(m5, 24.0, math.pi, K_max=2000)
    sums24 = transfer.semiclassical_sums(m5, 24.0, 2000)
    y24 = transfer.bch_trace(sums24, math.pi).log_norm2[9:]
    bounded_ok = rep24.verdict == "Continuum" and y24.max() - y24.min() < math.log(100)
    # R_k / log k slope against eps/|Z'(E1)|
    sums = transfer.semiclassical_sums(m, E1, 100_000)
    k = sums.indices.astype(float)
    mask = k >= 100
    slope = float(np.polyfit(np.log(k[mask]), sums.R[mask], 1)[0])
    rho = mpmath.mpc(0.5, E1)
    d1 = complex(mpmath.zeta(rho, derivative=1))
    d2 = complex(mpmath.zeta(rho, derivative=2))
    target = 0.25 / abs(d1)  # |zeta'(rho)| = |Z'(E1)| at a zero
    slope_ok = abs(slope / target - 1.0) <= 0.20
    # intercept of R_k = target log k + c from the double-pole residue
    # log k/zeta' - zeta''/(2 zeta'^2) of the Perron integrand at rho
    c_pred = target * (-d2 / (2 * d1)).real
    c_meas = float(np.mean(sums.R[mask] - target * np.log(k[mask])))
    intercept_ok = abs(c_meas / c_pred - 1.0) <= 0.20
    # wavefunction norm: ||A_n||^2 ~ 2 e^{-2c} n^{-2 target} at the tuned
    # phase, summed with the mirror-gap weights (1/2) log(1 + 1/n), gives
    # e^{-2c} W(2 target), W(s) = sum_n log(1 + 1/n) n^{-s}
    #   = log 2 + sum_{j>=1} (-1)^{j+1} (zeta(j + s) - 1) / j
    s2 = 2 * target
    W = float(mpmath.log(2) + mpmath.nsum(
        lambda j: (-1) ** (j + 1) * (mpmath.zeta(j + s2) - 1) / j, [1, mpmath.inf]))
    norm_pred = math.exp(-2 * c_pred) * W
    zeta_target = float(mpmath.zeta(1 + s2))  # continuum weights, c = 0
    norm = transfer.wavefunction_norm(m, transfer.bch_trace(sums, th1)).partial
    norm_ratio = norm / norm_pred
    norm_ok = abs(norm_ratio - 1.0) <= 0.25
    dt = time.monotonic() - t0
    ok = (decay_ok and bounded_ok and slope_ok and intercept_ok and norm_ok
          and dt < 300)
    _report(6, ok,
            f"E1 fit {rep.growth_exponent:.3f} CI ({rep.ci[0]:.3f},{rep.ci[1]:.3f}) "
            f"{rep.verdict}; E=24 {rep24.verdict}; R_k/log k {slope:.4f} vs "
            f"{target:.4f}; intercept {c_meas:.4f} vs {c_pred:.4f}; "
            f"norm {norm:.3f} vs e^-2c W {norm_pred:.3f} (ratio {norm_ratio:.2f}, "
            f"tol 25%), vs zeta(1+2t) {zeta_target:.3f} (ratio "
            f"{norm / zeta_target:.2f}), {dt:.1f}s")


def test_criterion_7_theta_statistics():
    t0 = time.monotonic()
    zs = models.riemann_zeros(count=1000)
    ths = np.array([models.theta_star_riemann(n, E)
                    for n, E in enumerate(zs, start=1)])
    frac = float(np.mean(np.abs(ths) < math.pi / 2))
    dt = time.monotonic() - t0
    ok = frac > 0.60 and dt < 600
    _report(7, ok, f"{100 * frac:.1f}% of vartheta(E_n) in (-pi/2, pi/2) "
                   f"over 1000 zeros (need > 60%), {dt:.1f}s")


def test_criterion_8_perron_oracle(E1, perron_residue_series):
    t0 = time.monotonic()
    basel_err = abs(models.perron_partial_sum(2.0, 10**6) - 6 / math.pi**2)
    z = 0.5 + 1j * E1
    xs = np.unique(np.round(np.logspace(3, 6, 12)).astype(int))
    mods = [abs(models.perron_partial_sum(z, int(x))) for x in xs]
    slope = float(np.polyfit(np.log(xs.astype(float)), mods, 1)[0])
    target = 1.0 / abs(float(mpmath.siegelz(E1, derivative=1)))
    slope_ok = abs(slope / target - 1.0) <= 0.25
    zeros50 = models.riemann_zeros(count=50)
    resid_ratios = []
    for x in (10**4, 10**5, 10**6):
        direct = abs(models.perron_partial_sum(z, x))
        series = abs(perron_residue_series(z, float(x), zeros50))
        resid_ratios.append(series / direct)
    resid_ok = all(abs(r - 1.0) <= 0.25 for r in resid_ratios)
    dt = time.monotonic() - t0
    ok = basel_err < 1e-3 and slope_ok and resid_ok and dt < 300
    _report(8, ok, f"basel err {basel_err:.1e}, slope {slope:.3f} vs "
                   f"{target:.3f}, residue/direct "
                   + "/".join(f"{r:.2f}" for r in resid_ratios) + f", {dt:.1f}s")


def test_criterion_9_mirror_path_sieve(is_prime):
    t0 = time.monotonic()
    wrong = sum(
        mirrors.classify_integer(n, max_depth=4)
        != ("prime" if is_prime(n) else "composite")
        for n in range(2, 10_001))
    four_paths = len(mirrors.enumerate_paths(4, max_depth=4))
    prime_bad = sum(len(mirrors.enumerate_paths(p, max_depth=4)) != 1
                    for p in range(2, 200) if is_prime(p))
    dt = time.monotonic() - t0
    ok = wrong == 0 and four_paths >= 2 and prime_bad == 0 and dt < 60
    _report(9, ok, f"2..10^4 mismatches {wrong}, |paths(4)| {four_paths}, "
                   f"primes<=199 with extra rays {prime_bad}, {dt:.1f}s")


def test_criterion_10_dirichlet_extension(chi4):
    t0 = time.monotonic()
    worst = 0.0
    nchars = 0
    for q in range(3, 13):
        for chi in characters_mod(q):
            if not chi.primitive:
                continue
            nchars += 1
            for t in np.linspace(0.5, 50.0, 100):
                lhs = np.exp(2j * (numkit.l_theta(float(t), chi)
                                   + numkit.l_theta(float(-t), chi)))
                rhs = np.exp(-1j * numkit.l_phase_split(float(t), chi).eps_chi)
                worst = max(worst, abs(lhs - rhs))
    z1 = models.l_function_zeros(chi4, count=1)[0]
    near_ok = abs(z1 - 6.02) < 0.01
    th = models.theta_star_dirichlet(chi4, 1, z1)
    md = models.ModelSpec("dirichlet", epsilon=0.25, sigma=0.5, character=chi4)
    verdict = models.classify_energy(md, z1, th, K_max=2000).verdict
    dt = time.monotonic() - t0
    ok = worst < 1e-8 and near_ok and verdict == "DiscreteCandidate" and dt < 120
    _report(10, ok, f"{nchars} primitive chars q<=12, phase residual "
                    f"{worst:.1e} (tol 1e-8), first L-zero {z1:.5f} -> "
                    f"{verdict}, {dt:.1f}s")
