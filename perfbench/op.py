"""Run one mirrorspec command in this fresh interpreter, as a user runs it.

Usage: python3 op.py SRC_DIR TRACE_DIR ARG...   (TRACE_DIR "-" for no tracing)

Opens the instruction counter (counter.py), imports `mirrorspec.cli` from
SRC_DIR, then times `cli.main(ARG...)` with stdout captured. Writes one JSON
line to stdout (exit code, the `time.perf_counter` reading once the import
finished, the instructions of the import, wall time, CPU time and
instructions of `cli.main` including waited-for children such as the `scan`
pool workers, peak RSS of this process and of its largest child, output
bytes), followed by the captured output itself. Without the counter the
JSON line holds only the reason.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

from counter import InstructionCounter, Unavailable


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def main() -> None:
    src, trace_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    try:
        counter = InstructionCounter()
    except Unavailable as exc:
        sys.stdout.write(json.dumps({"unavailable": str(exc)}) + "\n")
        return
    sys.path.insert(0, src)
    import mirrorspec.cli as cli
    ready = time.perf_counter()
    setup_instr = counter.read()
    tracer = None
    if trace_dir != "-":
        import tracer as tracing
        tracer = tracing.install(trace_dir)
    buf = io.StringIO()
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    instr0 = counter.read()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    wall = time.perf_counter() - t0
    instr = counter.read() - instr0
    counter.close()
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    if tracer is not None:
        tracer.flush()
    out = buf.getvalue()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    head = {"rc": rc, "pid": os.getpid(), "ready": ready, "wall_s": wall,
            "cpu_s": cpu, "peak_rss_mb": rss_kb / 1024.0,
            "output_bytes": len(out.encode()), "instructions": instr,
            "setup_instructions": setup_instr}
    sys.stdout.write(json.dumps(head) + "\n")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
