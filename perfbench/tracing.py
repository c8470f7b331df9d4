"""In-memory spans around vaxnet's public functions, and the per-layer metrics.

A traced benchmark process calls `install(tracer)` before running the CLI.
Each wrapped function records one span (name, parent, start, end); spans
live in four flat lists and are written out once, after the run. Layers
reached through from-imports are wrapped under the name each caller module
binds, and `Graph.matvec` on the class, so nothing in `src/` changes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import time
from collections import defaultdict

ROOT_PARENT = -1
# Time the tracer spends computing input keys; it is subtracted from the
# caller's self time and reported nowhere else.
KEYING = "trace.keying"
RUNNER = "experiments.runner"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack = [ROOT_PARENT]

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, key=None, on_result=None) -> None:
        """Replace `owner.attr` with a function that records a span per call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                k = self.open(KEYING)
                self.keys[name].add(key(*args, **kwargs))
                self.close(k)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        setattr(owner, attr, traced)

    def spans(self) -> list[tuple[str, int, float, float]]:
        return list(zip(self.names, self.parents, self.starts, self.ends))

    def dump(self, path) -> None:
        payload = {"spans": {"name": self.names, "parent": self.parents,
                             "start": self.starts, "end": self.ends},
                   "counters": dict(self.counters),
                   "distinct": {name: len(keys) for name, keys in self.keys.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load(path) -> tuple[list[tuple[str, int, float, float]], dict, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    s = payload["spans"]
    return (list(zip(s["name"], s["parent"], s["start"], s["end"])),
            payload["counters"], payload["distinct"])


# -- self time ---------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end in spans:
        if parent != ROOT_PARENT:
            children[parent].append((start, end))
    out = []
    for idx, (_, _, start, end) in enumerate(spans):
        inside = [(max(lo, start), min(hi, end)) for lo, hi in children.get(idx, ())]
        out.append((end - start) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def by_name(spans) -> dict[str, dict]:
    """Per span name: call count, summed self time and each call's duration."""
    agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += own
        a["durations"].append(end - start)
    return dict(agg)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- per-layer metrics -----------------------------------------------------------

# (metric, unit, kind, span name): kind picks what is read from the trace.
LAYER_METRICS = (
    ("generators.generate.calls", "count", "calls", "generators.generate"),
    ("generators.generate.self_s", "s", "self_s", "generators.generate"),
    ("generators.generate.distinct_frac", "ratio", "distinct_frac", "generators.generate"),
    ("graph.from_arrays.calls", "count", "calls", "graph.from_arrays"),
    ("graph.from_arrays.self_s", "s", "self_s", "graph.from_arrays"),
    ("graph.delete_nodes.calls", "count", "calls", "graph.delete_nodes"),
    ("graph.delete_nodes.self_s", "s", "self_s", "graph.delete_nodes"),
    ("graph.matvec.calls", "count", "calls", "graph.matvec"),
    ("graph.matvec.self_s", "s", "self_s", "graph.matvec"),
    ("spectral.lambda_max.calls", "count", "calls", "spectral.lambda_max"),
    ("spectral.lambda_max.self_s", "s", "self_s", "spectral.lambda_max"),
    ("spectral.lambda_max.iterations", "count", "counter", "spectral.lambda_max.iterations"),
    ("spectral.lambda_max.nonconverged", "count", "counter", "spectral.lambda_max.nonconverged"),
    ("spectral.lambda_max.distinct_frac", "ratio", "distinct_frac", "spectral.lambda_max"),
    ("centrality.betweenness.calls", "count", "calls", "centrality.betweenness"),
    ("centrality.betweenness.self_s", "s", "self_s", "centrality.betweenness"),
    ("centrality.closeness.calls", "count", "calls", "centrality.closeness"),
    ("centrality.closeness.self_s", "s", "self_s", "centrality.closeness"),
    ("centrality.eigenvector.calls", "count", "calls", "centrality.eigenvector"),
    ("centrality.eigenvector.self_s", "s", "self_s", "centrality.eigenvector"),
    ("centrality.degree.self_s", "s", "self_s", "centrality.degree"),
    ("centrality.compute.distinct_frac", "ratio", "distinct_frac", "centrality.compute"),
    ("vaccination.eigen_drop.calls", "count", "calls", "vaccination.eigen_drop"),
    ("vaccination.eigen_drop.self_s", "s", "self_s", "vaccination.eigen_drop"),
    ("vaccination.herd_equivalent.self_s", "s", "self_s", "vaccination.herd_equivalent"),
    ("sirsim.simulate.calls", "count", "calls", "sirsim.simulate"),
    ("sirsim.simulate.self_s", "s", "self_s", "sirsim.simulate"),
    ("sirsim.simulate.p50_s", "s", "p50", "sirsim.simulate"),
    ("sirsim.simulate.p90_s", "s", "p90", "sirsim.simulate"),
    ("sirsim.infections", "count", "counter", "sirsim.infections"),
    ("sirsim.infections_per_s", "1/s", "rate", ("sirsim.infections", "sirsim.simulate")),
    ("sirsim.ensemble.self_s", "s", "self_s", "sirsim.ensemble"),
    ("stats.paired_t_test.self_s", "s", "self_s", "stats.paired_t_test"),
    ("ingest.parse_contacts.self_s", "s", "self_s", "ingest.parse_contacts"),
    ("ingest.records", "count", "counter", "ingest.records"),
    ("ingest.records_per_s", "1/s", "rate", ("ingest.records", "ingest.parse_contacts")),
    ("ingest.build_daily_graphs.self_s", "s", "self_s", "ingest.build_daily_graphs"),
    ("ingest.load_daily_graphs.self_s", "s", "self_s", "ingest.load_daily_graphs"),
    ("experiments.self_s", "s", "self_s", RUNNER),
)


def layer_metrics(spans, counters: dict, distinct: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); a layer that did not run reads 0."""
    agg = by_name(spans)
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    out = {}
    for metric, unit, kind, src in LAYER_METRICS:
        if kind == "counter":
            value = float(counters.get(src, 0.0))
        elif kind == "rate":
            count, span = src
            busy = agg.get(span, empty)["self_s"]
            value = counters.get(count, 0.0) / busy if busy > 0 else 0.0
        else:
            a = agg.get(src, empty)
            if kind == "calls":
                value = a["calls"]
            elif kind == "self_s":
                value = a["self_s"]
            elif kind == "distinct_frac":
                value = distinct.get(src, 0) / a["calls"] if a["calls"] else 0.0
            elif kind == "p50":
                value = _quantile(a["durations"], 0.5)
            else:
                value = _quantile(a["durations"], 0.9)
        out[metric] = (value, unit)
    return out


# -- wrapping vaxnet ---------------------------------------------------------------


def _digest(g) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(g.n).encode())
    h.update(g.indptr.tobytes())
    h.update(g.indices.tobytes())
    return h.hexdigest()


def _spec_key(spec, *args, **kwargs):
    return repr(spec)


def _graph_key(g, *args, **kwargs):
    return (_digest(g), args, tuple(sorted(kwargs.items())))


def _spectral_counts(counters, result):
    counters["spectral.lambda_max.iterations"] += result.iterations
    counters["spectral.lambda_max.nonconverged"] += 0 if result.converged else 1


def _sir_counts(counters, traj):
    inf = traj.meta["infection_time"]
    counters["sirsim.infections"] += int(inf.size - (inf != inf).sum())


def _ingest_counts(counters, parsed):
    counters["ingest.records"] += len(parsed.records)


# (module, attribute path, span name, key, on_result). Every module that
# binds a layer function by from-import, on a path the workloads reach, gets
# its own entry.
TARGETS = (
    ("vaxnet.experiments", "generate", "generators.generate", _spec_key, None),
    ("vaxnet.sirsim", "generate", "generators.generate", _spec_key, None),
    ("vaxnet.generators", "from_arrays", "graph.from_arrays", None, None),
    ("vaxnet.ingest", "from_arrays", "graph.from_arrays", None, None),
    ("vaxnet.vaccination", "delete_nodes", "graph.delete_nodes", None, None),
    ("vaxnet.graph", "Graph.matvec", "graph.matvec", None, None),
    ("vaxnet.vaccination", "lambda_max", "spectral.lambda_max", _graph_key, _spectral_counts),
    ("vaxnet.experiments", "lambda_max", "spectral.lambda_max", _graph_key, _spectral_counts),
    ("vaxnet.centrality", "betweenness_centrality", "centrality.betweenness", None, None),
    ("vaxnet.centrality", "closeness_centrality", "centrality.closeness", None, None),
    ("vaxnet.centrality", "eigenvector_centrality", "centrality.eigenvector", None, None),
    ("vaxnet.centrality", "degree_centrality", "centrality.degree", None, None),
    ("vaxnet.vaccination", "compute", "centrality.compute", _graph_key, None),
    ("vaxnet.sirsim", "compute", "centrality.compute", _graph_key, None),
    ("vaxnet.experiments", "eigen_drop", "vaccination.eigen_drop", None, None),
    ("vaxnet.experiments", "herd_equivalent", "vaccination.herd_equivalent", None, None),
    ("vaxnet.sirsim", "simulate", "sirsim.simulate", None, _sir_counts),
    ("vaxnet.experiments", "ensemble", "sirsim.ensemble", None, None),
    ("vaxnet.experiments", "paired_t_test", "stats.paired_t_test", None, None),
    ("vaxnet.ingest", "parse_contacts", "ingest.parse_contacts", None, _ingest_counts),
    ("vaxnet.ingest", "build_daily_graphs", "ingest.build_daily_graphs", None, None),
    ("vaxnet.experiments", "load_daily_graphs", "ingest.load_daily_graphs", None, None),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer function in TARGETS; call once, before the run."""
    for module, path, name, key, on_result in TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, key=key, on_result=on_result)
