"""Command-line driver: energy scans, zero tables, amplitude traces,
mirror-path queries, boundary-problem spectra, and Perron-sum emission.

Commands: scan, zeros, amp-trace, mirror-paths, xp-spectrum, theta-of-zero,
perron. Output is CSV (one header row, round-trip float precision) or JSON
with the same column names. Exit codes: 0 ok, 2 configuration error,
3 numerical-domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import boundary_spectrum, mirrors, models, numkit, transfer
from .arith import characters_mod
from .errors import (BracketError, DomainError, InvalidPathError, PoleError,
                     SingularCouplingError)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _json_float(v) -> float | None:
    """JSON has no NaN or Infinity: non-finite floats become null."""
    v = float(v)
    return v if math.isfinite(v) else None


def _emit(path: str | None, fmt: str, columns: list[str], rows: list[tuple]) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = [{c: (v if isinstance(v, (str, int)) else _json_float(v))
                    for c, v in zip(columns, row)} for row in rows]
        text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _character(args):
    if args.modulus is None:
        return None
    chars = characters_mod(args.modulus)
    if not 0 <= args.char_index < len(chars):
        raise DomainError(
            f"char index {args.char_index} out of range for modulus {args.modulus}")
    return chars[args.char_index]


def _model(args) -> models.ModelSpec:
    return models.ModelSpec(kind=args.model, epsilon=args.epsilon,
                            sigma=args.sigma, lam=args.lam,
                            character=_character(args))


def _energy_grid(args) -> np.ndarray:
    if args.grid == 0 or args.emax < args.emin:
        return np.empty(0)
    if args.grid == 1:
        return np.array([args.emin])
    return np.linspace(args.emin, args.emax, args.grid)


def cmd_scan(args) -> int:
    model = _model(args)
    cols = ["E", "theta", "verdict", "growth_exponent", "ci_lo", "ci_hi",
            "R_K", "Phi_K"]
    rows = []
    for E in _energy_grid(args):
        r = models.classify_energy(model, E, args.theta, K_max=args.kmax)
        rows.append((r.E, r.theta_used, r.verdict, r.growth_exponent,
                     r.ci[0], r.ci[1], r.R_K, r.Phi_K))
    _emit(args.out, args.format, cols, rows)
    return 0


def cmd_zeros(args) -> int:
    if args.emax > 1e4:
        raise DomainError("zero tables are certified only up to ordinate 1e4")
    chi = _character(args) or characters_mod(1)[0]
    zs = models.critical_zeros(chi, t_max=args.emax)
    expected = models.zero_count(chi, args.emax)
    if len(zs) < expected - 2:
        raise BracketError(
            f"found {len(zs)} zeros below {args.emax}, expected ~{expected:.1f}")
    rows = [(n, E, models.z_prime_sign(n, chi), numkit.l_theta(E, chi),
             models.theta_star(chi, n, E))
            for n, E in enumerate(zs, start=1)]
    cols = ["n", "E_n", "Zprime_sign", "theta_at_zero", "vartheta_star"]
    _emit(args.out, args.format, cols, rows)
    return 0


def cmd_amp_trace(args) -> int:
    model = _model(args)
    E = args.emin
    exact = transfer.propagate_exact(model, E, args.theta, args.kmax)
    sums = transfer.semiclassical_sums(model, E, args.kmax)
    bch = transfer.bch_trace(sums, args.theta)
    cols = ["k", "A2_exact", "A2_bch", "R_k", "Phi_k"]
    rows = []
    with np.errstate(over="ignore"):
        a2_exact = np.exp(exact.log_norm2)
        a2_bch = np.exp(bch.log_norm2)
    for i, k in enumerate(exact.indices):
        R, Phi = sums.at(int(k))
        rows.append((int(k), a2_exact[i], a2_bch[i], R, Phi))
    _emit(args.out, args.format, cols, rows)
    return 0


def cmd_mirror_paths(args) -> int:
    paths = mirrors.enumerate_paths(args.n, max_depth=args.max_depth)
    cols = ["path_id", "bounce_sequence", "tau", "tau_as_log_of"]
    rows = []
    for i, p in enumerate(paths):
        pt = mirrors.proper_time(p)
        rows.append((i, "-".join(str(b) for b in p.bounces), pt.tau,
                     f"{pt.numerator}/{pt.denominator}"))
    # the direct ray is always a path, and n = a*b adds (a, 1, b) at depth 2
    verdict = "prime" if len(paths) == 1 else "composite"
    rows.append(("summary", verdict, float(len(paths)), str(args.n)))
    _emit(args.out, args.format, cols, rows)
    return 0


def cmd_xp_spectrum(args) -> int:
    problem = boundary_spectrum.BoundaryProblem(m_ell1=args.m_ell1,
                                                vartheta=args.theta)
    roots = boundary_spectrum.solve_spectrum(problem, args.emax)
    cols = ["E_root", "residual", "count_formula"]
    rows = [(E, res, boundary_spectrum.counting_estimate(problem, E)
             if E > 0 else 0.0)
            for E, res in zip(roots.roots, roots.residuals)]
    _emit(args.out, args.format, cols, rows)
    return 0


def cmd_theta_of_zero(args) -> int:
    chi = _character(args) or characters_mod(1)[0]
    zs = models.critical_zeros(chi, count=args.grid)
    cols = ["n", "E_n", "vartheta_star"]
    rows = [(n, E, models.theta_star(chi, n, E)) for n, E in enumerate(zs, start=1)]
    _emit(args.out, args.format, cols, rows)
    return 0


def cmd_perron(args) -> int:
    z = complex(args.sigma, args.emin)
    if args.kmax < 10:
        raise DomainError("perron needs kmax >= 10")
    xs = np.unique(np.round(np.logspace(1, math.log10(args.kmax),
                                        args.grid)).astype(int))
    cols = ["x", "re", "im", "modulus", "log_x_fit"]
    rows = []
    logs, mods = [], []
    for x, s in zip(xs, models.perron_partial_sum(z, xs)):
        s = complex(s)
        logs.append(math.log(x))
        mods.append(abs(s))
        if len(logs) >= 3:
            slope = float(np.polyfit(logs, mods, 1)[0])
        else:
            slope = 0.0
        rows.append((int(x), s.real, s.imag, abs(s), slope))
    _emit(args.out, args.format, cols, rows)
    return 0


_COMMANDS = (("scan", cmd_scan), ("zeros", cmd_zeros),
             ("amp-trace", cmd_amp_trace), ("mirror-paths", cmd_mirror_paths),
             ("xp-spectrum", cmd_xp_spectrum),
             ("theta-of-zero", cmd_theta_of_zero), ("perron", cmd_perron))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mirrorspec",
                                description=__doc__.splitlines()[0])
    p.add_argument("--config", help="key=value file; explicit flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    # argparse rejects what these raise with exit 2 and a usage line
    def finite(text: str) -> float:
        v = float(text)
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return v

    def at_least(lo: int):
        def integer(text: str) -> int:
            v = int(text)
            if v < lo:
                raise argparse.ArgumentTypeError(f"must be at least {lo}, got {v}")
            return v
        return integer

    def common(sp):
        sp.add_argument("--model", choices=models.KINDS, default="riemann")
        sp.add_argument("--epsilon", type=finite, default=0.25)
        sp.add_argument("--sigma", type=finite, default=0.5)
        sp.add_argument("--lambda", dest="lam", type=finite, default=0.0)
        sp.add_argument("--modulus", type=int, default=None)
        sp.add_argument("--char-index", type=int, default=1)
        sp.add_argument("--theta", type=finite, default=math.pi)
        sp.add_argument("--emin", type=finite, default=0.0)
        sp.add_argument("--emax", type=finite, default=30.0)
        sp.add_argument("--grid", type=at_least(0), default=100)
        sp.add_argument("--kmax", type=at_least(1), default=2000)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, fn in _COMMANDS:
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(func=fn)
    sub.choices["mirror-paths"].add_argument("--n", type=int, required=True)
    sub.choices["mirror-paths"].add_argument("--max-depth", type=at_least(2), default=4)
    sub.choices["xp-spectrum"].add_argument("--m-ell1", type=finite,
                                            default=2 * math.pi)
    return p


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert key=value pairs from --config FILE (or --config=FILE) as flags
    right after the subcommand, wherever --config stands, so explicit flags
    win."""
    i = next((k for k, a in enumerate(argv)
              if a == "--config" or a.startswith("--config=")), None)
    if i is None:
        return argv
    if argv[i] == "--config":
        path = argv[i + 1] if i + 1 < len(argv) else ""
        rest = argv[:i] + argv[i + 2:]
    else:
        path = argv[i].partition("=")[2]
        rest = argv[:i] + argv[i + 1:]
    if not path:
        raise DomainError("--config needs a file path")
    extra = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            extra.append(f"--{key.strip()}={value.strip()}")
    j = next((k for k, a in enumerate(rest) if a in dict(_COMMANDS)), len(rest) - 1)
    return rest[:j + 1] + extra + rest[j + 1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (DomainError, SingularCouplingError, InvalidPathError,
            FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, PoleError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
