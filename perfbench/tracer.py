"""Outside-in span tracer for the koco library.

The traced benchmark run replaces public koco functions with wrappers
that record a span per call: name, start, end and nesting depth. Spans
stay in memory and are written out once the run ends. A layer's self
time is its spans' duration minus the time covered by child spans.

Every hook patches the name where the calling module looks it up
(`koco.kons.cross_vector`, not only `koco.kernels.cross_vector`), since
a module that did `from .kernels import cross_vector` holds its own
reference. A layer whose targets have all gone is reported as absent;
the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time


def _append_bytes(fn, args, kwargs, result):
    # the bordered update touches the n×n inverse block (8 bytes read,
    # 8 written per entry) at the order n it had before the append
    n = args[0].order - 1
    return {"linalg.append.bytes_computed": 16 * n * n}


def _row_entries(fn, args, kwargs, result):
    return {"kernels.row.entries": len(result)}


def _comparator_iterations(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"oracle.comparator.iterations":
            int(bound.arguments["restarts"]) * int(bound.arguments["iters"])}


def _trace_bytes(fn, args, kwargs, result):
    return {"harness.trace_bytes": os.path.getsize(args[0])}


def _each(modules, names):
    return [f"koco.{m}:{n}" for m in modules for n in names]


# span name -> (targets as "module:attribute.path", work counter or None)
LAYERS = {
    "linalg.append": (["koco.linalg:RegularizedInverse.append"], _append_bytes),
    "linalg.refresh": (["koco.linalg:RegularizedInverse.refresh"], None),
    "linalg.apply": (["koco.linalg:RegularizedInverse.apply"], None),
    "linalg.schur": (["koco.linalg:RegularizedInverse.schur_complement"], None),
    "kernels.row": (_each(("kons", "kors", "skons", "harness", "streams"),
                          ("cross_vector",)), _row_entries),
    "kernels.diag": (_each(("kons", "kors", "skons"), ("eval_kernel",)), None),
    "kernels.gram": (["koco.kernels:gram", "koco.skons:gram"], None),
    "losses": (_each(("kons", "skons", "harness", "oracle"),
                     ("loss_value", "loss_derivative", "clip_to_interval")), None),
    "kons.step": (["koco.kons:Kons.step"], None),
    "skons.step": (["koco.skons:SketchedKons.step"], None),
    "kors.step": (["koco.kors:KorsSampler.step"], None),
    "oracle.comparator": (["koco.oracle:best_comparator"], _comparator_iterations),
    "oracle.bound": (["koco.oracle:effective_dimension", "koco.oracle:prefix_rls"], None),
    "streams.generate": (["koco.streams:generate_stream"], None),
    "streams.ingest": (["koco.streams:ingest_csv"], None),
    "harness.write_trace": (["koco.harness:write_trace"], _trace_bytes),
    "harness.summarize": (["koco.harness:summarize_run"], None),
}

# counters each layer reports, zero until its hook fires
COUNTERS = {
    "linalg.append": ("linalg.append.bytes_computed",),
    "kernels.row": ("kernels.row.entries",),
    "oracle.comparator": ("oracle.comparator.iterations",),
    "harness.write_trace": ("harness.trace_bytes",),
}


def _resolve(target: str):
    """(owner, attribute) for "module:a.b.c", or None when anything is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, depth
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.covered_ns = 0          # top-level span time inside the window
        self._stack: list[int] = []  # child time of each open span
        self._window_start: int | None = None

    # -- hooks -------------------------------------------------------------

    def hook(self, name: str, targets, count=None) -> bool:
        """Wrap every live target as span `name`; False when none is live."""
        live = [r for r in map(_resolve, targets) if r is not None]
        if not live:
            self.absent.append(name)
            return False
        self.stats[name] = [0, 0, 0]
        for key in COUNTERS.get(name, ()):
            self.counts[key] = 0
        for owner, attr in live:
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))
        return True

    def install(self, layers=None) -> None:
        for name, (targets, count) in (LAYERS if layers is None else layers).items():
            self.hook(name, targets, count)

    def _wrap(self, name, fn, count):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if stack:
                    stack[-1] += dur
                elif self._window_start is not None and start >= self._window_start:
                    self.covered_ns += dur
                spans.append((name, start, end, len(stack)))
            if count is not None:
                for key, inc in count(fn, args, kwargs, result).items():
                    self.counts[key] += inc
            return result

        return traced

    # -- timed window ------------------------------------------------------

    def open_window(self) -> None:
        self._window_start = time.perf_counter_ns()

    def close_window(self) -> None:
        self._window_start = None

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls and self_s of every live layer, plus its work counters."""
        out: dict[str, float] = {}
        for name, (calls, _total, self_ns) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,depth\n")
            for name, start, end, depth in self.spans:
                fh.write(f"{name},{start},{end},{depth}\n")
