"""Show that every output check of the benchmark can fail.

Usage (from the root of a checkout): python3 perfbench/selftest.py [--seed N]

Runs each operation of every workload once, confirms that its check passes
(or, for the two operations with known program faults, reports the fault),
then corrupts the output (a dropped row, a flipped sign, a value perturbed
by one part in a million) and confirms that the check reports every
corruption as a new problem. It also confirms that BENCHMARK.json names the
metrics and workloads that run.py and workloads.py define. Exits 1 on any
miss.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

# op name -> corruptions (kind, data row, column)
CORRUPTIONS = {
    "xp-spectrum": [("drop", 0, None), ("flip", 1, "E_root"), ("perturb", 1, "E_root"),
                    ("flip", 0, "residual"), ("perturb", 0, "count_formula")],
    "scan-riemann": [("drop", 40, None), ("perturb", 5, "E"), ("perturb", 10, "R_K"),
                     ("flip", 10, "Phi_K")],
    "scan-harmonic": [("drop", 100, None), ("flip", 7, "verdict"), ("perturb", 50, "R_K"),
                      ("flip", 50, "Phi_K")],
    "amp-trace-first-zero": [("drop", 500, None), ("perturb", 100, "A2_exact"),
                             ("perturb", 5000, "A2_bch"), ("perturb", 5000, "R_k"),
                             ("flip", 5000, "Phi_k")],
    "amp-trace-continuum": [("drop", 500, None), ("perturb", 100, "A2_exact"),
                            ("perturb", 5000, "A2_bch"), ("perturb", 5000, "R_k"),
                            ("flip", 5000, "Phi_k")],
    "perron": [("drop", 10, None), ("perturb", 5, "re"), ("flip", 5, "im"),
               ("perturb", 8, "modulus"), ("perturb", 8, "log_x_fit")],
    "zeros": [("drop", 3, None), ("flip", 2, "Zprime_sign"), ("perturb", 4, "E_n"),
              ("perturb", 1, "theta_at_zero"), ("perturb", 4, "vartheta_star")],
    "zeros-mod4": [("drop", 3, None), ("perturb", 2, "E_n"), ("perturb", 1, "theta_at_zero"),
                   ("perturb", 2, "vartheta_star")],
    "theta-of-zero": [("drop", 100, None), ("perturb", 10, "E_n"),
                      ("flip", 10, "vartheta_star")],
    "mirror-paths": [("drop", 100, None), ("flip", 5, "tau"), ("perturb", 5, "tau"),
                     ("flip", 7, "tau_as_log_of")],
}

SWAP = {"Continuum": "Gap", "Gap": "Continuum"}


def corrupt(text: str, kind: str, row: int, column: str | None) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    i = row + 1
    if kind == "drop":
        del lines[i]
    else:
        cells = lines[i].split(",")
        j = header.index(column)
        v = cells[j]
        if v in SWAP:
            cells[j] = SWAP[v]
        elif "/" in v:  # an exact ratio: invert it
            num, den = v.split("/")
            cells[j] = f"{den}/{num}"
        elif kind == "flip":
            cells[j] = v[1:] if v.startswith("-") else "-" + v
        else:
            x = float(v)
            cells[j] = repr(x * (1 + 1e-6) if x else 1e-6)
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    misses = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        misses.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        misses.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER:
        misses.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return misses


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    misses = check_benchmark_json()
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload, args.seed):
            try:
                output = run.run_op(op.argv, None)["output"]
            except run.OpFailed as exc:
                misses.append(f"{op.name}: {exc}")
                continue
            clean = op.check(output)
            if bool(clean) != bool(op.known_fault):
                misses.append(f"{op.name}: clean output gives {clean or 'no problem'}")
            status = f"fails as known: {clean[0]}" if clean else "passes"
            print(f"{workload}/{op.name}: clean output {status}")
            for kind, row, column in CORRUPTIONS[op.name]:
                found = set(op.check(corrupt(output, kind, row, column))) - set(clean)
                label = f"{kind} row {row}" + (f" {column}" if column else "")
                print(f"  {label}: {'caught' if found else 'MISSED'}"
                      + (f" ({sorted(found)[0]})" if found else ""))
                if not found:
                    misses.append(f"{op.name}: {label} not caught")
    for m in misses:
        print(f"MISS {m}")
    print("selftest " + ("failed" if misses else "passed"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
