"""Layer tracing for the benchmark's traced run.

``Tracer.install`` replaces module attributes of the eight ascltlab
modules with timing wrappers: every public function, every public method
of a public class, and every name one module imports from another (such as
``experiments.sample_prefix`` or ``weights._uniform01``). Private helpers
called inside their own module are not wrapped; their time counts as the
caller's self time. Nothing under ``src/`` is edited.

Each call records a span (id, parent id, name, op id, start, end, error,
counts). Spans stay in memory and are written out after the run. Replica
worker threads have no span of their own on their stack, so their spans
take the main thread's innermost span as parent.

A span's self time is its duration minus the union of its children's
intervals. Children from worker threads overlap, so the sum of all self
times exceeds the wall time by exactly that overlap, which
``summarize`` reports separately.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import update_wrapper

LAYERS = ("sources", "transform", "experiments", "empirical", "spectra", "cli", "weights", "accum")
BENCH = "bench"

# per-layer metric names and units, in report order
LAYER_METRICS = {
    "sources": (("draws", "count"), ("ns_per_draw.rademacher", "ns"),
                ("ns_per_draw.normal", "ns"), ("useful_draw_ratio", "ratio")),
    "transform": (("rows", "count"), ("useful_coef_ratio", "ratio")),
    "experiments": (("chunks", "count"), ("parallel_efficiency", "ratio")),
    "empirical": (("points", "count"),),
    "spectra": (),
    "cli": (("bytes_written", "bytes"),),
    "weights": (("haar_rows_used_ratio", "ratio"),),
    "accum": (("terms", "count"), ("ns_per_term", "ns")),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
        for name, unit in LAYER_METRICS[layer]:
            units[f"{layer}.{name}"] = unit
    units["trace.overhead_ratio"] = "ratio"
    return units


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counts recorded at the boundary of the named function, from its
# arguments and result. Each returns a small tuple kept in the span.
def _count_sample_block(a, k, res):
    spec = _arg(a, k, 0, "spec")
    key = (spec.master_seed, spec.stream_id, spec.family, spec.p)
    return (spec.family, key, int(_arg(a, k, 1, "start")), len(res))


def _count_uniform01(a, k, res):
    spec, j = _arg(a, k, 0, "spec"), _arg(a, k, 1, "j")
    key = (spec.master_seed, spec.stream_id, "uniform01", None)
    return ("uniform01", key, int(j.min()), int(j.size))


def _count_batch(a, k, res):
    n, r, x = _arg(a, k, 0, "n"), _arg(a, k, 1, "r"), _arg(a, k, 2, "x")
    return (len(x), r, n // 2 + 1)


def _count_fast(a, k, res):
    return (1, _arg(a, k, 1, "r"), _arg(a, k, 0, "n") // 2 + 1)


def _count_naive(a, k, res):
    return (1,)


def _count_matvec(a, k, res):
    u = _arg(a, k, 0, "u")
    return (u.shape[0] * u.shape[1],)


def _count_gram(a, k, res):
    x, y = _arg(a, k, 0, "a"), _arg(a, k, 1, "b")
    return (x.shape[0] * y.shape[0] * x.shape[1],)


def _count_haar(a, k, res):
    return (res.n,)


def _count_check_conditions(a, k, res):
    w = _arg(a, k, 0, "w")
    return (w.r if w.kind == "haar" else 0,)


def _count_custom_pair(a, k, res):
    return (res.r,)


def _count_asclt(a, k, res):
    kind = a[2] if len(a) > 2 else k.get("kind", "trig")
    if kind != "haar":
        return (0,)
    return (sum(r for _, r in _arg(a, k, 1, "schedule").points),)


def _count_points(a, k, res):
    # sample size of the first argument that is not the class of a classmethod
    x = next((v for v in list(a) + list(k.values()) if not isinstance(v, type)), None)
    size = getattr(x, "size", None)
    if size is None:
        size = len(x) if hasattr(x, "__len__") else 1
    return (int(size),)


_COUNTERS = {
    "sources.sample_block": _count_sample_block,
    "sources._uniform01": _count_uniform01,
    "transform.partial_sums_batch": _count_batch,
    "transform.partial_sums_fast": _count_fast,
    "transform.partial_sums_naive": _count_naive,
    "accum.kahan_matvec": _count_matvec,
    "accum.kahan_gram": _count_gram,
    "weights.sample_haar_orthogonal": _count_haar,
    "weights.check_conditions": _count_check_conditions,
    "weights.custom_pair": _count_custom_pair,
    "experiments.asclt_trajectory": _count_asclt,
}


class Tracer:
    """Collects spans from wrapped ascltlab functions and bench ops."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._main_stack if threading.get_ident() == self._main_ident else []
            self._local.stack = stack
            return stack

    def _wrap(self, fn, name: str):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        spans, ids, get_stack, main = self.spans, self._ids, self._stack, self._main_stack
        clock = time.perf_counter_ns
        count = _COUNTERS.get(name)
        if count is None and name.startswith("empirical."):
            count = _count_points
        tracer = self

        def wrapper(*args, **kwargs):
            stack = get_stack()
            if stack:
                parent = stack[-1]
            elif main and stack is not main:
                parent = main[-1]
            else:
                parent = 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, tracer.op, t0, t1, True, None))
                raise
            t1 = clock()
            stack.pop()
            extra = count(args, kwargs, result) if count is not None else None
            spans.append((sid, parent, name, tracer.op, t0, t1, False, extra))
            return result

        update_wrapper(wrapper, fn)
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self, modules: dict) -> int:
        """Wrap the public and cross-module names of {layer: module};
        returns how many distinct functions were wrapped."""
        owner = {m.__name__: layer for layer, m in modules.items()}
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ in owner:
                    home = owner[val.__module__]
                    if home == layer and attr.startswith("_"):
                        continue
                    setattr(mod, attr, self._wrap(val, f"{home}.{val.__name__}"))
                elif inspect.isclass(val) and val.__module__ == mod.__name__ and not attr.startswith("_"):
                    self._wrap_methods(val, f"{layer}.{val.__name__}")
        return len(self._wrappers)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(raw.__func__, f"{prefix}.{name}")))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(raw.__func__, f"{prefix}.{name}")))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(raw, f"{prefix}.{name}"))

    @contextmanager
    def bench_span(self, op: int):
        """Root span of one bench op; ascltlab spans of the op nest in it."""
        self.op = op
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, 0, f"{BENCH}.op", op, t0, t1, False, None))

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "op", "start_ns", "end_ns", "error"))
            for sid, parent, name, op, t0, t1, err, _ in self.spans:
                out.writerow((sid, parent, name, op, t0, t1, int(err)))


def _union_length(intervals: list[tuple[int, int]]) -> int:
    intervals.sort()
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple], rounds: int) -> dict:
    """Per-layer totals of the traced spans, divided by the traced rounds.

    Returns {"metrics": {name: value}, "self_ns": {layer or bench: ns},
    "overlap_ns": ns}. Ratios are not divided by the round count.
    """
    name_of = {s[0]: s[2] for s in spans}
    children: dict[int, list] = defaultdict(list)
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent:
            children[parent].append((t0, t1))

    self_ns = dict.fromkeys(LAYERS + (BENCH,), 0)
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    overlap = 0
    draws = defaultdict(int)
    draw_ns = defaultdict(int)
    ranges: dict[tuple, list] = defaultdict(list)
    rows = coef_read = coef_done = chunks = points = 0
    terms = haar_factored = haar_used = 0

    for sid, parent, name, op, t0, t1, err, extra in spans:
        layer = name.split(".", 1)[0]
        kids = children.get(sid)
        covered = 0
        if kids:
            covered = _union_length(kids)
            overlap += sum(hi - lo for lo, hi in kids) - covered
        self_ns[layer] += (t1 - t0) - covered
        if layer == BENCH:
            continue
        calls[layer] += 1
        errors[layer] += err
        if extra is None:
            continue
        if name in ("sources.sample_block", "sources._uniform01"):
            family, key, start, count = extra
            draws[family] += count
            draw_ns[family] += t1 - t0
            ranges[(op,) + key].append((start, start + count))
        elif name in ("transform.partial_sums_batch", "transform.partial_sums_fast"):
            n_rows, r, per_row = extra
            rows += n_rows
            coef_read += n_rows * r
            coef_done += n_rows * per_row
            chunks += name == "transform.partial_sums_batch"
        elif name == "transform.partial_sums_naive":
            rows += extra[0]
        elif layer == "accum":
            terms += extra[0]
        elif name == "weights.sample_haar_orthogonal":
            haar_factored += extra[0]
        elif name in ("weights.check_conditions", "weights.custom_pair", "experiments.asclt_trajectory"):
            haar_used += extra[0]
        elif layer == "empirical" and not name_of.get(parent, "").startswith("empirical."):
            points += extra[0]

    total_draws = sum(draws.values())
    needed = sum(_union_length(iv) for iv in ranges.values())
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9 / rounds
        m[f"{layer}.calls"] = calls[layer] / rounds
        m[f"{layer}.errors"] = errors[layer] / rounds
    m["sources.draws"] = total_draws / rounds
    for fam in ("rademacher", "normal"):
        m[f"sources.ns_per_draw.{fam}"] = draw_ns[fam] / draws[fam] if draws[fam] else 0.0
    m["sources.useful_draw_ratio"] = needed / total_draws if total_draws else 0.0
    m["transform.rows"] = rows / rounds
    m["transform.useful_coef_ratio"] = coef_read / coef_done if coef_done else 0.0
    m["experiments.chunks"] = chunks / rounds
    m["empirical.points"] = points / rounds
    m["weights.haar_rows_used_ratio"] = haar_used / haar_factored if haar_factored else 0.0
    m["accum.terms"] = terms / rounds
    m["accum.ns_per_term"] = self_ns["accum"] / terms if terms else 0.0
    return {"metrics": m, "self_ns": self_ns, "overlap_ns": overlap}
