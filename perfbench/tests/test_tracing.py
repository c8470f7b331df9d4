import json
import types
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_children_on_hand_built_tree():
    #  runner [0, 10]
    #  |- eigen_drop [1, 6]
    #  |  |- lambda_max [1.5, 3]
    #  |  |  '- matvec [2, 2.5]
    #  |  '- lambda_max [3.5, 5.5]
    #  '- paired_t_test [7, 8]
    spans = [
        ("experiments.runner", -1, 0.0, 10.0),
        ("vaccination.eigen_drop", 0, 1.0, 6.0),
        ("spectral.lambda_max", 1, 1.5, 3.0),
        ("graph.matvec", 2, 2.0, 2.5),
        ("spectral.lambda_max", 1, 3.5, 5.5),
        ("stats.paired_t_test", 0, 7.0, 8.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 1.0, 0.5, 2.0, 1.0])
    agg = tracing.by_name(spans)
    assert agg["spectral.lambda_max"]["calls"] == 2
    assert agg["spectral.lambda_max"]["self_s"] == pytest.approx(3.0)
    assert agg["spectral.lambda_max"]["durations"] == pytest.approx([1.5, 2.0])
    # Self times partition the root interval.
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 5.0), ("c", 0, 4.0, 7.0), ("d", 0, 9.0, 12.0)]
    # Children cover [1, 7] and [9, 10] of the parent: 7 of 10 seconds.
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_metrics_read_zero_for_layers_that_did_not_run():
    spans = [("experiments.runner", -1, 0.0, 4.0), ("sirsim.simulate", 0, 0.0, 1.0),
             ("sirsim.simulate", 0, 1.0, 3.0), ("centrality.degree", 2, 1.0, 1.5)]
    counters = {"sirsim.infections": 300.0}
    metrics = tracing.layer_metrics(spans, counters, {"centrality.compute": 1})
    assert metrics["sirsim.simulate.calls"] == (2, "count")
    assert metrics["sirsim.simulate.self_s"][0] == pytest.approx(2.5)
    assert metrics["sirsim.simulate.p50_s"][0] == pytest.approx(1.0)
    assert metrics["sirsim.simulate.p90_s"][0] == pytest.approx(2.0)
    assert metrics["sirsim.infections_per_s"][0] == pytest.approx(120.0)
    assert metrics["experiments.self_s"][0] == pytest.approx(1.0)
    assert metrics["ingest.records_per_s"] == (0.0, "1/s")
    assert metrics["centrality.compute.distinct_frac"] == (0.0, "ratio")
    assert len(metrics) == len(tracing.LAYER_METRICS)


def test_wrap_nests_spans_and_subtracts_keying_time():
    clock = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(clock)))
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    tracer.wrap(mod, "inner", "inner", key=lambda x: x)
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(1) == 4
    names = [s[0] for s in tracer.spans()]
    assert names == ["outer", tracing.KEYING, "inner"]
    assert [s[1] for s in tracer.spans()] == [-1, 0, 0]
    assert dict(tracer.keys) == {"inner": {1}}
    # outer spans [0, 5]; keying [1, 2] and inner [3, 4] are its children.
    assert tracing.self_times(tracer.spans()) == [3.0, 1.0, 1.0]


def test_dump_round_trips(tmp_path):
    tracer = tracing.Tracer()
    idx = tracer.open("experiments.runner")
    tracer.close(idx)
    tracer.counters["ingest.records"] += 5
    tracer.dump(tmp_path / "t.json")
    spans, counters, distinct = tracing.load(tmp_path / "t.json")
    assert [s[0] for s in spans] == ["experiments.runner"]
    assert counters == {"ingest.records": 5}
    assert distinct == {}


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    produced.update({"experiments.output_bytes": "bytes", "trace.spans": "count",
                     "trace.overhead_s": "s"})
    assert listed == produced
