"""Spans around the library's public functions, recorded from outside.

`install` wraps every public function of the layer modules, and the two
`MapUnion` methods named in METHODS, then rebinds each name in every
loaded `multifrac` module that holds it, so calls made between modules
go through the wrappers too.  Nothing under `src/` is edited.  Each call
becomes one span: name, start, end, parent span and query id.  Spans
stay in memory and are written out once, at the end of the run.

`MapComponent.contains` is deliberately left alone: a delta query calls
it millions of times, so a wrapper there would measure itself.
`MapUnion.truncate.values` (integers scanned) stands in for it.  The
one-line accessors `qcore.num` and `qcore.den` are skipped for the same
reason; their cost stays in the caller's self time.

The per-layer metrics and the end-to-end metric and workload each one
should move are listed in LAYER_METRICS; later changes cite these names.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter_ns

LAYERS = ("qcore", "monoid", "factorizer", "lengths", "constructs", "cli")
METHODS = (("lengths", "MapUnion", "truncate"), ("lengths", "MapUnion", "merged"))
UNWRAPPED = ("qcore.num", "qcore.den")

# name, unit, better, end-to-end metrics it should move, workloads.
LAYER_METRICS = (
    ("qcore.factorize.calls", "count", "lower", "query_p90_ms", "hub"),
    ("qcore.factorize.ms", "ms", "lower", "query_p90_ms", "hub"),
    ("factorizer.solve_hub.calls", "count", "lower", "query_p50_ms query_p90_ms", "hub"),
    ("factorizer.solve_hub.ms", "ms", "lower", "query_p50_ms query_p90_ms", "hub"),
    # Inclusive time (trial division included) of the calls that returned None.
    ("factorizer.solve_hub.nonmember_ms", "ms", "lower", "query_p50_ms query_p90_ms", "hub"),
    ("factorizer.solve_hub.calls_per_query", "calls/query", "lower", "queries_per_s", "mixed cli"),
    ("factorizer.hub_normalize.ms", "ms", "lower", "queries_per_s", "hub"),
    ("factorizer.enumerate_factorizations.calls", "count", "lower", "queries_per_s query_p90_ms", "mixed cli"),
    ("factorizer.enumerate_factorizations.ms", "ms", "lower", "queries_per_s query_p90_ms", "mixed cli"),
    ("factorizer.enumerate_factorizations.found", "count", "lower", "queries_per_s query_p90_ms", "mixed cli"),
    ("monoid.build_generator_set.calls", "count", "lower", "queries_per_s setup_s", "mixed"),
    ("monoid.build_generator_set.ms", "ms", "lower", "queries_per_s setup_s", "mixed"),
    ("lengths.length_set.calls", "count", "lower", "all latency metrics", "hub delta mixed"),
    ("lengths.length_set.ms", "ms", "lower", "all latency metrics", "hub delta mixed"),
    ("lengths.route.proper", "count", "lower", "all latency metrics", "hub delta mixed"),
    ("lengths.route.improper", "count", "lower", "all latency metrics", "hub delta mixed"),
    ("lengths.route.mixed", "count", "lower", "all latency metrics", "hub delta mixed"),
    ("lengths.length_set_proper.ms", "ms", "lower", "query_p50_ms", "delta"),
    ("lengths.delta_truncation_bound.horizon_sum", "count", "lower", "query_p50_ms query_p90_ms queries_per_s", "delta"),
    ("lengths.MapUnion.truncate.values", "count", "lower", "query_p50_ms query_p90_ms queries_per_s", "delta"),
    ("lengths.MapUnion.truncate.ms", "ms", "lower", "query_p50_ms query_p90_ms queries_per_s", "delta"),
    ("lengths.delta_of_length_set.ms", "ms", "lower", "query_p50_ms query_p90_ms queries_per_s", "delta"),
    ("lengths.improper_divisor_pairs.calls", "count", "lower", "query_p90_ms queries_per_s", "mixed"),
    ("lengths.improper_divisor_pairs.ms", "ms", "lower", "query_p90_ms queries_per_s", "mixed"),
    ("lengths.improper_divisor_pairs.pairs", "count", "lower", "query_p90_ms queries_per_s", "mixed"),
    ("lengths.improper_lengths.calls", "count", "lower", "queries_per_s", "mixed"),
    ("lengths.improper_lengths.ms", "ms", "lower", "queries_per_s", "mixed"),
    ("lengths.MapUnion.merged.calls", "count", "lower", "query_p90_ms", "mixed"),
    ("lengths.MapUnion.merged.ms", "ms", "lower", "query_p90_ms", "mixed"),
    ("lengths.union_of_lengths.ms", "ms", "lower", "queries_per_s", "mixed"),
    ("lengths.union_of_lengths.elements", "count", "lower", "queries_per_s", "mixed"),
    ("constructs.delta_realization_check.ms", "ms", "lower", "query_p50_ms", "cli"),
    ("constructs.nonatomic_witness.ms", "ms", "lower", "query_p50_ms", "cli"),
    ("cli.startup_ms", "ms", "lower", "query_p50_ms setup_s", "cli"),
    ("cli.parse_command.ms", "ms", "lower", "query_p50_ms query_p90_ms", "cli"),
    ("cli.run.ms", "ms", "lower", "query_p50_ms query_p90_ms", "cli"),
    ("cli.render.ms", "ms", "lower", "query_p50_ms query_p90_ms", "cli"),
    ("cli.cache.hits", "count", "higher", "query_p50_ms", "cli"),
    ("cli.cache.misses", "count", "lower", "query_p50_ms", "cli"),
    ("cli.cache.hit_ratio", "ratio", "higher", "query_p50_ms", "cli"),
    ("cli.cache.bytes_written", "bytes", "lower", "query_p50_ms", "cli"),
    ("cli.cache.hit_p50_ms", "ms", "lower", "query_p50_ms", "cli"),
    ("cli.cache.miss_p50_ms", "ms", "lower", "query_p50_ms", "cli"),
    ("trace.queries", "count", "lower", "none; base of the per-query ratios", "all"),
    ("trace.spans", "count", "lower", "none; the work the trace recorded", "all"),
    ("trace.overhead_frac", "frac", "lower", "none; it qualifies the others", "all"),
)

# Units whose values must repeat exactly between two traced runs.
COUNT_UNITS = ("count", "bytes", "calls/query", "ratio")


def _route(args, kwargs, result):
    B = args[1] if len(args) > 1 else kwargs.get("B")
    if not getattr(B, "improper_part", ()):
        return "proper"
    return "mixed" if getattr(B, "proper_part", ()) else "improper"


# Work counts read off a call's arguments or result, by span name.
EXTRACT = {
    "factorizer.solve_hub": lambda a, k, r: r is None,
    "factorizer.enumerate_factorizations": lambda a, k, r: len(r),
    "lengths.length_set": _route,
    "lengths.delta_truncation_bound": lambda a, k, r: r,
    "lengths.MapUnion.truncate": lambda a, k, r: (a[1] if len(a) > 1 else k["bound"]) + 1,
    "lengths.improper_divisor_pairs": lambda a, k, r: len(r.pairs),
    "lengths.union_of_lengths": lambda a, k, r: r.element_count,
}


class Recorder:
    """In-memory span list: [name, start_ns, end_ns, parent, query, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1

    def wrap(self, name: str, fn):
        extract = EXTRACT.get(name)
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.query, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter_ns()
            if extract is not None:
                span[5] = extract(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "query", "extra"],
                    "names": names,
                    "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def install(recorder: Recorder) -> list[str]:
    """Wrap the layer functions of the loaded multifrac; return the names that are absent."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "multifrac" or name.startswith("multifrac."))
    }
    wrappers = {}
    for layer in LAYERS:
        mod = modules.get(f"multifrac.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                not attr.startswith("_")
                and name not in UNWRAPPED
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrappers[id(obj)] = (obj, recorder.wrap(name, obj))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    absent = []
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules.get(f"multifrac.{layer}"), cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is None:
            absent.append(f"{layer}.{cls_name}.{meth}")
            continue
        setattr(cls, meth, recorder.wrap(f"{layer}.{cls_name}.{meth}", fn))
    return absent


def self_times(spans) -> list[int]:
    """Span duration minus the part of it that its child spans cover."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans, n_queries: int) -> dict[str, float]:
    """Per-layer counts and self times (ms) for the library rows of LAYER_METRICS."""
    own = self_times(spans)
    calls = defaultdict(int)
    ms = defaultdict(float)
    extra = defaultdict(int)
    for s, t in zip(spans, own):
        name = s[0]
        calls[name] += 1
        ms[name] += t / 1e6
        x = s[5]
        if name == "lengths.length_set":
            extra[f"lengths.route.{x}"] += 1
        elif name == "factorizer.solve_hub":
            if x:
                extra["factorizer.solve_hub.nonmember_ms"] += (s[2] - s[1]) / 1e6
        elif x is not None:
            extra[name] += x
    out = {}
    for metric, *_ in LAYER_METRICS:
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            out[metric] = calls[head]
        elif tail == "ms" and head in ms:
            out[metric] = ms[head]
        elif metric.startswith("lengths.route.") or metric.endswith("nonmember_ms"):
            out[metric] = extra[metric]
        elif head in extra:
            out[metric] = extra[head]
    hub_calls = calls["factorizer.solve_hub"]
    out["factorizer.solve_hub.calls_per_query"] = hub_calls / n_queries if n_queries else 0.0
    out["trace.queries"] = n_queries
    out["trace.spans"] = len(spans)
    return out


def p50(values) -> float:
    return statistics.median(values) if values else 0.0
