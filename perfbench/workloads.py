"""The benchmark's four workloads: each is a list of CLI operations with the
independent check that judges the output.

The seed picks the sampled check points and shifts the scan windows by less
than one grid step; it never changes the amount of work.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@dataclass(frozen=True)
class Op:
    """One mirrorspec command: its argv, the check of its output, and, for an
    operation that fails on every run because of a known program fault, a
    description of that fault."""

    name: str
    argv: list[str]
    check: Callable[[str], list[str]]
    known_fault: str | None = None


def read_config(name: str) -> dict[str, str]:
    out = {}
    for line in (CONFIGS / name).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _window(rng: random.Random, lo: float, hi: float, grid: int) -> tuple[float, float]:
    shift = rng.random() * (hi - lo) / (grid - 1)
    return lo + shift, hi + shift


def boundary_spectrum(rng: random.Random) -> list[Op]:
    emax, m_ell1, theta = 12.5, 2 * math.pi, math.pi
    check = functools.partial(
        oracles.check_xp_spectrum, emax=emax, m_ell1=m_ell1, theta=theta,
        delta=10 ** rng.uniform(-7.5, -6.5), grid_step=0.1,
        grid_offset=rng.uniform(0.01, 0.1))
    return [Op("xp-spectrum", ["xp-spectrum", "--emax", repr(emax)], check)]


def energy_scan(rng: random.Random) -> list[Op]:
    # Riemann model across the first three zero ordinates at theta = pi
    r_emin, r_emax = _window(rng, 13.0, 26.0, 48)
    riemann = Op(
        "scan-riemann",
        ["scan", "--model", "riemann", "--epsilon", "0.25", "--theta", repr(math.pi),
         "--emin", repr(r_emin), "--emax", repr(r_emax), "--grid", "48",
         "--kmax", "20000"],
        functools.partial(oracles.check_scan_riemann, emin=r_emin, emax=r_emax,
                          grid=48, theta=math.pi, epsilon=0.25, kmax=20000))
    # geometric array over two bands and the gaps around E = 0, 2 pi, 4 pi
    h_emin, h_emax = _window(rng, 0.0, 4 * math.pi, 120)
    harmonic = Op(
        "scan-harmonic",
        ["scan", "--model", "harmonic", "--epsilon", "0.3", "--theta", repr(math.pi),
         "--emin", repr(h_emin), "--emax", repr(h_emax), "--grid", "120",
         "--kmax", "5000"],
        functools.partial(oracles.check_scan_harmonic, emin=h_emin, emax=h_emax,
                          grid=120, theta=math.pi, epsilon=0.3, kmax=5000))
    return [riemann, harmonic]


def long_chain(rng: random.Random) -> list[Op]:
    kmax = 100_000
    ops = []
    for name, slope in (("amp-trace-first-zero", True), ("amp-trace-continuum", False)):
        cfg = read_config(f"{name}.cfg")
        check = functools.partial(
            oracles.check_amp_trace, E=float(cfg["emin"]), theta=float(cfg["theta"]),
            epsilon=float(cfg["epsilon"]), sigma=0.5, kmax=kmax,
            prefix=rng.randint(1500, 2500), slope_target=slope)
        ops.append(Op(name, ["amp-trace", "--config", f"configs/{name}.cfg",
                             "--kmax", str(kmax)], check))
    E1 = 14.1347251417347
    ops.append(Op("perron",
                  ["perron", "--sigma", "0.5", "--emin", repr(E1),
                   "--kmax", "2000000", "--grid", "20"],
                  functools.partial(oracles.check_perron, sigma=0.5, E=E1,
                                    kmax=2_000_000, grid=20)))
    return ops


def zero_tables(rng: random.Random) -> list[Op]:
    count = int(read_config("theta-histogram.cfg")["grid"])
    # one sampled zero from each fifth of the table
    sample = [rng.randint(i * count // 5 + 1, (i + 1) * count // 5) for i in range(5)]
    return [
        Op("zeros", ["zeros", "--emax", "50"],
           functools.partial(oracles.check_zeros_riemann, emax=50.0,
                             fd_step=rng.uniform(1e-5, 1e-4))),
        Op("zeros-mod4", ["zeros", "--modulus", "4", "--char-index", "1", "--emax", "30"],
           functools.partial(oracles.check_zeros_dirichlet, chi=[0, 1, 0, -1], parity=1,
                             emax=30.0, fd_step=rng.uniform(1e-5, 1e-4),
                             count_step=0.1, count_offset=rng.uniform(0.02, 0.08)),
           known_fault="Zprime_sign comes from Riemann's parity formula "
                       "(models.z_prime_sign), opposite to Re Z_chi'"),
        Op("theta-of-zero", ["theta-of-zero", "--config", "configs/theta-histogram.cfg"],
           functools.partial(oracles.check_theta_of_zero, count=count, sample_n=sample),
           known_fault="models.riemann_zeros steps past the close pair n = 453, 454, "
                       "so every row from n = 453 holds the (n+2)-th zero"),
        Op("mirror-paths", ["mirror-paths", "--n", "36"],
           functools.partial(oracles.check_mirror_paths, n=36, max_depth=4)),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "boundary-spectrum": boundary_spectrum,
    "energy-scan": energy_scan,
    "long-chain": long_chain,
    "zero-tables": zero_tables,
}


def operations(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
