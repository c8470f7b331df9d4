import copy
import json

import pytest

import gate
import workloads


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _herd_outputs(out, records):
    header = ["family", "metric", "n", "replicates", "n_h_fraction", "n_h",
              "lambda_target", "n_hs", "n_hs_fraction"]
    rows = []
    for key, rec in records.items():
        family, metric = key.rsplit("/", 1)
        rows.append([family, metric] + [rec[h] for h in header[2:]])
    out.mkdir()
    _write_csv(out / "herd.csv", header, rows)


@pytest.fixture
def herd(tmp_path):
    inputs = workloads.write_inputs("herd", workloads.DEFAULT_SEED, tmp_path / "in")
    reference = gate.load_reference("herd", workloads.DEFAULT_SEED)
    assert reference is not None, "reference for the default seed is missing"
    return inputs, reference


def test_outputs_equal_to_the_reference_pass(herd, tmp_path):
    inputs, reference = herd
    _herd_outputs(tmp_path / "out", reference)
    verdict = gate.check(inputs, tmp_path / "out", reference)
    assert verdict.attempted == len(reference) and verdict.failed == 0


def test_gate_flags_a_perturbed_reference_value(herd, tmp_path):
    inputs, reference = herd
    _herd_outputs(tmp_path / "out", reference)
    key = sorted(reference)[0]
    nudged = copy.deepcopy(reference)
    nudged[key]["lambda_target"] *= 1 + 1e-7
    verdict = gate.check(inputs, tmp_path / "out", nudged)
    assert verdict.failed == 1 and "lambda_target" in verdict.failures[key][0]
    # Float noise inside the 1e-9 relative tolerance is accepted.
    nudged[key]["lambda_target"] = reference[key]["lambda_target"] * (1 + 1e-12)
    assert gate.check(inputs, tmp_path / "out", nudged).failed == 0
    # Integers must match exactly.
    nudged[key]["n_hs"] += 1
    assert gate.check(inputs, tmp_path / "out", nudged).failed == 1


def test_gate_flags_a_herd_fraction_that_does_not_match(herd, tmp_path):
    inputs, reference = herd
    broken = copy.deepcopy(reference)
    key = sorted(broken)[0]
    broken[key]["n_hs_fraction"] += 0.01
    _herd_outputs(tmp_path / "out", broken)
    verdict = gate.check(inputs, tmp_path / "out")
    assert list(verdict.failures) == [key]


def _sir_outputs(out, inputs, n_total_shift=0.0):
    """Outputs of a tiny fake `simulate` run in which every arm conserves n."""
    out.mkdir()
    times = [0.0, 0.25, 2.0, 30.0]
    results = {}
    for spec in inputs.config["networks"]:
        label = gate.spec_label(spec)
        n = spec["n"]
        results[label] = {}
        for arm in ["none", "random", "topk_degree"]:
            v = 0.0 if arm == "none" else 100.0
            rows = [[t, n - 5.0 - v * (t >= 2), 5.0, 0.0, v * (t >= 2)] for t in times]
            _write_csv(out / f"trajectory_{label}_{arm}.csv", ["time", "s", "i", "r", "v"], rows)
            results[label][arm] = {"peak_infected": 5.0, "warnings": [
                "intervention 0 wanted 100 but only 0 susceptible"]}
    bad = gate.spec_label(inputs.config["networks"][0])
    rows = [[t, inputs.config["networks"][0]["n"] - 5.0 + n_total_shift, 5.0, 0.0, 0.0]
            for t in times]
    _write_csv(out / f"trajectory_{bad}_none.csv", ["time", "s", "i", "r", "v"], rows)
    (out / "sir_summary.json").write_text(json.dumps({"results": results}))
    return f"{bad}/none"


def test_gate_flags_a_row_that_breaks_sir_conservation(tmp_path):
    inputs = workloads.write_inputs("sir", 11, tmp_path / "in")
    _sir_outputs(tmp_path / "ok", inputs)
    # Science warnings in the summary are not failures.
    assert gate.check(inputs, tmp_path / "ok").failed == 0
    key = _sir_outputs(tmp_path / "bad", inputs, n_total_shift=1.0)
    verdict = gate.check(inputs, tmp_path / "bad")
    assert verdict.attempted == 6 and list(verdict.failures) == [key]
    assert "s+i+r+v" in verdict.failures[key][0]


def test_trajectories_compare_exactly_and_scalars_within_tolerance():
    ref = {"summary": {"peak_time": 2.0}, "trajectory": [[0.0, 995.0, 5.0, 0.0, 0.0]]}
    close = {"summary": {"peak_time": 2.0 * (1 + 1e-12)},
             "trajectory": [[0.0, 995.0, 5.0, 0.0, 0.0]]}
    assert gate.compare(close, ref) == []
    close["trajectory"][0][1] = 995.0 * (1 + 1e-12)
    assert len(gate.compare(close, ref)) == 1


def test_a_failed_run_fails_every_record(tmp_path):
    inputs = workloads.write_inputs("contacts", 2, tmp_path / "in")
    verdict = gate.check(inputs, tmp_path / "missing", run_ok=False)
    assert verdict.attempted == verdict.failed == 3 * 4
    verdict = gate.check(inputs, tmp_path / "missing")
    assert verdict.failed == 12 and "contact_summary.csv" in next(iter(verdict.failures.values()))[0]
