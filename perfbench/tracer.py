"""Span tracing of mirrorspec from outside the program.

`install` wraps every public function of the package's modules wherever the
name is bound, so `models.moebius_sieve` and `cli.characters_mod` (bound by
`from ... import`) are traced as well as the module attributes; scipy's
`brentq` is wrapped where `models` and `boundary_spectrum` bind it, so its
own time does not count as theirs. Spans (id, parent, name, start, end,
counters) stay in memory and are written to `<out_dir>/spans-<pid>.json` by
`flush`. Workers forked by a process pool (`scan`) start with an empty span
list and flush their own file when they exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from multiprocessing import util

LAYERS = ("numkit", "arith", "mirrors", "transfer", "models", "boundary_spectrum", "cli")

# called once per chain site inside bch_trace: a span per call would cost
# more than the work it times and swamp the traced run
UNTRACED = {"transfer.bch_amplitude"}


def _counters(name: str):
    """Per-span counters taken from a call's arguments and result."""
    if name == "transfer.propagate_exact":
        return lambda args, kwargs, result: {"steps": len(result) - 1}
    if name == "boundary_spectrum.solve_spectrum":
        return lambda args, kwargs, result: {"roots": len(result.roots)}
    if name == "models.riemann_zeros":
        return lambda args, kwargs, result: {"zeros": len(result)}
    return None


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        util.Finalize(self, self.flush, exitpriority=10)

    def wrap(self, name: str, fn):
        counters = _counters(name)
        # the sieve is lru_cached: count the integers of the calls that sieve
        cache_info = fn.cache_info if name == "arith.moebius_sieve" else None
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            info = {}
            misses = cache_info().misses if cache_info else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counters:
                    info = counters(args, kwargs, result)
                elif cache_info and cache_info().misses > misses:
                    info = {"integers": args[0] if args else kwargs["limit"]}
                return result
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, t0, t1, info))

        return traced

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def install(out_dir: str) -> Tracer:
    tracer = Tracer(out_dir)
    modules = [importlib.import_module(f"mirrorspec.{m}") for m in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and f"{layer}.{attr}" not in UNTRACED):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    from scipy.optimize import brentq
    wrapped[id(brentq)] = tracer.wrap("scipy.brentq", brentq)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    return tracer
