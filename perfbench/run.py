"""mirrorspec benchmark: CLI workloads, timed end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations until S seconds have passed.
Each operation is one mirrorspec command in a fresh interpreter
(perfbench/op.py), so the package's caches start cold; its output is checked
by perfbench/oracles.py outside the timed region. With --trace 0 the last
line of stdout holds the end-to-end metrics (medians over rounds: user-space
instructions retired by the commands, read from the hardware counter by
perfbench/counter.py, the set-up time and instructions of each fresh
interpreter, and the peak RSS); with
--trace 1 untraced and traced rounds alternate and it holds the per-layer
metrics of the traced rounds (perfbench/tracer.py) and the tracing overhead.
The line before it records the run's context, including the median wall
and CPU time of the untraced rounds, which are shown but not gated because
they drift with the load of the shared host. Run records and the spans of
the last traced round go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
OP_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "instructions": "Ginstr", "setup_instructions": "Ginstr",
              "peak_rss_mb": "MB"}

# name -> unit; "<layer>.<function>.<kind>" metrics are read from the spans
PER_LAYER = {
    "numkit.bessel_k_complex_order.calls": "count",
    "numkit.bessel_k_complex_order.s": "s",
    "boundary_spectrum.eigen_residual.calls": "count",
    "boundary_spectrum.solve_spectrum.self_s": "s",
    "boundary_spectrum.roots_per_residual": "roots/call",
    "transfer.bch_trace.calls": "count",
    "transfer.bch_trace.s": "s",
    "transfer.semiclassical_sums.s": "s",
    "models.classify_energy.self_s": "s",
    "transfer.propagate_exact.calls": "count",
    "transfer.propagate_exact.s": "s",
    "transfer.propagate_exact.steps": "count",
    "transfer.decaying_direction.calls": "count",
    "transfer.decaying_direction.s": "s",
    "arith.moebius_sieve.calls": "count",
    "arith.moebius_sieve.s": "s",
    "arith.moebius_sieve.integers": "count",
    "models.perron_partial_sum.calls": "count",
    "models.perron_partial_sum.self_s": "s",
    "numkit.hardy_z.calls": "count",
    "numkit.hardy_z.s": "s",
    "numkit.hurwitz_zeta.calls": "count",
    "numkit.hurwitz_zeta.s": "s",
    "models.zeros_per_hardy_z": "zeros/call",
    "numkit.l_phase_split.calls": "count",
    "numkit.l_phase_split.s": "s",
    "arith.characters_mod.s": "s",
    "mirrors.enumerate_paths.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class OpFailed(Exception):
    pass


class Unmeasurable(Exception):
    """The instruction counter cannot be opened: no run can be measured."""


def run_op(argv: list[str], trace_dir: str | None) -> dict:
    """One operation in a fresh interpreter; its whole process group is
    killed if it outlives OP_TIMEOUT_S.

    The string-hash seed is fixed: with random seeds the time of one
    `mirror-paths --n 36` varied by 22% (interquartile range over ten
    processes) against 5% with a fixed seed."""
    cmd = [sys.executable, str(HERE / "op.py"), str(SRC), trace_dir or "-", *argv]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise OpFailed(f"timed out after {OP_TIMEOUT_S} s")
    head, _, output = out.partition("\n")
    if proc.returncode != 0 or not head:
        raise OpFailed(f"exit {proc.returncode}: {err.strip()[-400:]}")
    result = json.loads(head)
    if "unavailable" in result:
        raise Unmeasurable(result["unavailable"])
    if result["rc"] != 0:
        raise OpFailed(f"mirrorspec exit {result['rc']}: {err.strip()[-400:]}")
    result["setup_s"] = result["ready"] - spawned
    result["output"] = output
    return result


# ---------------------------------------------------------------------------
# spans

def load_spans(trace_dir: str, main_pid: int) -> list[dict]:
    """Spans of one operation from every process that ran it. Root spans of
    pool workers are attached to the operation's cli.main span."""
    spans = []
    for path in Path(trace_dir).glob("spans-*.json"):
        data = json.loads(path.read_text())
        pid = data["pid"]
        for sid, parent, name, t0, t1, info in data["spans"]:
            spans.append({"key": (pid, sid), "parent": None if parent is None else (pid, parent),
                          "name": name, "t0": t0, "t1": t1, "info": info})
    main = [s for s in spans if s["name"] == "cli.main" and s["key"][0] == main_pid]
    for s in spans:
        if s["parent"] is None and s["key"][0] != main_pid and main:
            s["parent"] = main[0]["key"]
    return spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_stats(op_spans: list[list[dict]]) -> dict:
    """Calls, inclusive time (outermost span of each name), self time and
    counters per span name, plus the cli layer's own time, over the spans
    of one round's operations."""
    calls, incl, own, counts = Counter(), defaultdict(float), defaultdict(float), Counter()
    cli_self = 0.0
    for spans in op_spans:
        by_key = {s["key"]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["t0"], s["t1"]))
        for s in spans:
            name, dur = s["name"], s["t1"] - s["t0"]
            calls[name] += 1
            for k, v in s["info"].items():
                counts[f"{name}.{k}"] += v
            own[name] += dur - covered(children[s["key"]], s["t0"], s["t1"])
            p = s["parent"]
            while p is not None and by_key[p]["name"] != name:
                p = by_key[p]["parent"]
            if p is None:
                incl[name] += dur
        library = [(s["t0"], s["t1"]) for s in spans if not s["name"].startswith("cli.")]
        for s in spans:
            if s["name"] == "cli.main":
                cli_self += s["t1"] - s["t0"] - covered(library, s["t0"], s["t1"])
    return {"calls": calls, "s": incl, "self_s": own, "counts": counts, "cli_self": cli_self}


def per_layer_values(stats: dict, output_bytes: int) -> dict[str, float]:
    calls, counts = stats["calls"], stats["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    special = {
        "boundary_spectrum.roots_per_residual": ratio(
            counts["boundary_spectrum.solve_spectrum.roots"],
            calls["boundary_spectrum.eigen_residual"]),
        "models.zeros_per_hardy_z": ratio(counts["models.riemann_zeros.zeros"],
                                          calls["numkit.hardy_z"]),
        "cli.self_s": stats["cli_self"],
        "cli.output_bytes": float(output_bytes),
    }
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name in special:
            out[name] = special[name]
            continue
        fn, kind = name.rsplit(".", 1)
        if kind == "calls":
            out[name] = float(calls[fn])
        elif kind in ("s", "self_s"):
            out[name] = stats[kind][fn]
        else:
            out[name] = float(counts[name])
    return out


# ---------------------------------------------------------------------------
# rounds

class Runner:
    def __init__(self, ops, tmp_root: Path):
        self.ops = ops
        self.tmp_root = tmp_root
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failed = Counter()
        self.unexpected: list[str] = []
        self.last_spans: list = []

    def check(self, op, output: str) -> list[str]:
        key = (op.name, hashlib.sha256(output.encode()).hexdigest())
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(output)
            except Exception as exc:  # malformed output can break a check
                self.verdicts[key] = [f"check raised {exc!r}"]
            problems = self.verdicts[key]
            for p in problems[:8]:
                print(f"{op.name}: {p}", file=sys.stderr)
            if len(problems) > 8:
                print(f"{op.name}: ... {len(problems) - 8} more", file=sys.stderr)
        return self.verdicts[key]

    def round(self, trace: bool) -> dict:
        rec = {"instructions": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
               "setup_s": [], "setup_instructions": [], "output_bytes": 0, "spans": []}
        for op in self.ops:
            self.attempted += 1
            trace_dir = tempfile.mkdtemp(dir=self.tmp_root) if trace else None
            try:
                res = run_op(op.argv, trace_dir)
                problems = self.check(op, res["output"])
                if trace:
                    rec["spans"].append(load_spans(trace_dir, res["pid"]))
            except OpFailed as exc:
                res, problems = None, [str(exc)]
                print(f"{op.name}: {exc}", file=sys.stderr)
            finally:
                if trace_dir:
                    shutil.rmtree(trace_dir, ignore_errors=True)
            if problems:
                self.failed[op.name] += 1
                if not op.known_fault:
                    self.unexpected.append(f"{op.name}: {problems[0]}")
            if res is not None:
                rec["instructions"] += res["instructions"] / 1e9
                rec["setup_instructions"].append(res["setup_instructions"] / 1e9)
                rec["wall_s"] += res["wall_s"]
                rec["cpu_s"] += res["cpu_s"]
                rec["peak_rss_mb"] = max(rec["peak_rss_mb"], res["peak_rss_mb"])
                rec["setup_s"].append(res["setup_s"])
                rec["output_bytes"] += res["output_bytes"]
        if trace:
            self.last_spans = rec["spans"]
            rec["layers"] = per_layer_values(layer_stats(rec["spans"]), rec["output_bytes"])
            del rec["spans"]
        return rec


def context(args, ops, runner: Runner, plain: list[dict], traced: list[dict]) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain) + len(traced), "nproc": os.cpu_count(),
        # time of the untraced rounds: shown, not gated (see counter.py)
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "python": platform.python_version(),
        **{m: importlib.metadata.version(m) for m in ("numpy", "scipy", "mpmath")},
        "operations": [{"name": op.name, "argv": op.argv,
                        "attempted": runner.attempted // len(ops),
                        "failed": runner.failed[op.name],
                        "known_fault": op.known_fault} for op in ops],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "mirrorspec" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"mirrorspec sources not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.operations(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="spans-", dir=OUT_DIR))
    runner = Runner(ops, tmp_root)
    plain, traced = [], []
    start = time.perf_counter()
    try:
        while True:
            if args.trace and len(traced) < len(plain):
                traced.append(runner.round(trace=True))
            else:
                plain.append(runner.round(trace=False))
            if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
                break
    except Unmeasurable as exc:
        print(f"cannot count instructions: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(s for r in plain for s in r["setup_s"]),
            "instructions": statistics.median(r["instructions"] for r in plain),
            "setup_instructions": statistics.median(
                s for r in plain for s in r["setup_instructions"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    ctx = context(args, ops, runner, plain, traced)
    result = {"correct": not runner.unexpected, "attempted": runner.attempted,
              "failed": sum(runner.failed.values()), "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"context": ctx, "result": result, "rounds": plain + traced,
         "unexpected_failures": runner.unexpected}, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(runner.last_spans))
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
