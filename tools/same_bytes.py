"""Compare the CLI output of two mirrorspec source trees, command by command.

Usage (from anywhere):

    python3 tools/same_bytes.py OLD_SRC NEW_SRC

Runs every command of the fixed list below as `python -m mirrorspec.cli`,
once with PYTHONPATH=OLD_SRC and once with PYTHONPATH=NEW_SRC, both with
PYTHONHASHSEED=0 and the checkout root as working directory (so the
`configs/` paths resolve). Prints one line per command: `identical`, or the
first stdout line that differs, plus any exit-code mismatch. Exits 1 if any
command differs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
E1 = "14.1347251417347"

README = [
    "zeros --emax 50",
    "zeros --modulus 4 --char-index 1 --emax 30",
    "scan --model harmonic --epsilon 0.3 --emin 0 --emax 12.6 --grid 400",
    f"amp-trace --model riemann --epsilon 0.25 --emin {E1} "
    "--theta 0.15787391988094157 --kmax 2000",
    "mirror-paths --n 12",
    "xp-spectrum --emax 30",
    f"perron --sigma 0.5 --emin {E1} --kmax 1000000 --grid 20",
]

# the argvs of perfbench/workloads.py, scan windows at their unshifted start
BENCHMARK = [
    "xp-spectrum --emax 12.5",
    "scan --model riemann --epsilon 0.25 --theta 3.141592653589793 "
    "--emin 13.0 --emax 26.0 --grid 48 --kmax 20000",
    "scan --model harmonic --epsilon 0.3 --theta 3.141592653589793 "
    "--emin 0.0 --emax 12.566370614359172 --grid 120 --kmax 5000",
    "amp-trace --config configs/amp-trace-first-zero.cfg --kmax 100000",
    "amp-trace --config configs/amp-trace-continuum.cfg --kmax 100000",
    f"perron --sigma 0.5 --emin {E1} --kmax 2000000 --grid 20",
    "zeros --emax 50",
    "zeros --modulus 4 --char-index 1 --emax 30",
    "theta-of-zero --config configs/theta-histogram.cfg",
    "mirror-paths --n 36",
]

# the primitive characters of each modulus, by index in arith.characters_mod
PRIMITIVE = {3: [1], 4: [1], 5: [1, 2, 3], 7: [1, 2, 3, 4, 5], 8: [1, 3], 12: [3]}
EXTRA = [
    f"perron --sigma 0.5 --emin {E1} --kmax 10000000 --grid 20",
    *(f"zeros --modulus {q} --char-index {i} --emax 40"
      for q, indices in PRIMITIVE.items() for i in indices),
    *(f"theta-of-zero --modulus {q} --char-index 1 --grid 40" for q in (3, 4, 5, 7, 8)),
    # the character mod 1 is zeta: its table is that of `zeros --emax 40`
    "zeros --modulus 1 --char-index 0 --emax 40",
    "zeros --emax 40",
    # count mode on a character whose first zero, 1.23, lies below zeta's t = 2
    "theta-of-zero --modulus 11 --char-index 7 --grid 30",
    "mirror-paths --n 60",
    "mirror-paths --n 24 --max-depth 5",
    "mirror-paths --n 36 --format json",
    "mirror-paths --n 97",
]
# README and BENCHMARK share the two zero tables
COMMANDS = list(dict.fromkeys(README + BENCHMARK + EXTRA))


def run(src: str, command: str) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-m", "mirrorspec.cli", *command.split()],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def compare(old_src: str, new_src: str, command: str) -> str:
    (old_rc, old), (new_rc, new) = run(old_src, command), run(new_src, command)
    notes = [] if old_rc == new_rc else [f"exit {old_rc} -> {new_rc}"]
    if old != new:
        old, new = old.splitlines(keepends=True), new.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                 min(len(old), len(new)))
        a = old[i] if i < len(old) else "<end>"
        b = new[i] if i < len(new) else "<end>"
        notes.append(f"line {i + 1}: {a!r} -> {b!r}")
    return "; ".join(notes) or "identical"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old_src, new_src = (str(Path(p).resolve()) for p in sys.argv[1:])
    differ = 0
    for command in COMMANDS:
        verdict = compare(old_src, new_src, command)
        differ += verdict != "identical"
        print(f"{verdict}: {command}", flush=True)
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
