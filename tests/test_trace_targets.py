"""The benchmark's wrap targets still exist in the package.

`perfbench/tracing.py` wraps layer functions under the name each caller
module binds (often a from-import), and `perfbench/worker.py` wraps the
runner that `vaxnet.cli.main` calls. A refactor that drops such a binding
would only fail benchmark runs, so check every target here, and that the
tracer's result hooks still read what the functions return.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from vaxnet import SirParams, cli, gen_duplication_divergence, lambda_max, parse_contacts, simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONTACT_FILES = sorted((Path(__file__).parent / "data").glob("contacts_day*.txt"))


def load_perfbench(monkeypatch, name):
    # Only reads the file: no bytecode cache is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    targets = load_perfbench(monkeypatch, "tracing").TARGETS
    assert targets
    for module, path, *_ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_result_hooks_count_real_results(monkeypatch, tmp_path):
    tracing = load_perfbench(monkeypatch, "tracing")
    counters = tracing.Tracer().counters

    # four records, so records stored as 3 columns would count 3, not 4
    path = tmp_path / "c.txt"
    path.write_text("40\t1\t2\n50\t2\t3\noops\n60\t3\t1\n70\t1\t4\n")
    tracing._ingest_counts(counters, parse_contacts(path))
    assert counters["ingest.records"] == 4

    g = gen_duplication_divergence(200, 0.4, seed=3)
    traj = simulate(g, SirParams(tau=0.4, t_max=10.0), seed=4)
    tracing._sir_counts(counters, traj)
    infected = int(np.isfinite(traj.meta["infection_time"]).sum())
    assert 0 < infected < g.n
    assert counters["sirsim.infections"] == infected

    result = lambda_max(g)
    tracing._spectral_counts(counters, result)
    assert result.iterations > 0
    assert counters["spectral.lambda_max.iterations"] == result.iterations
    assert counters["spectral.lambda_max.nonconverged"] == (0 if result.converged else 1)


def test_worker_wrap_sees_the_runner_main_calls(monkeypatch, tmp_path, capsys):
    worker = load_perfbench(monkeypatch, "worker")
    workloads = load_perfbench(monkeypatch, "workloads")
    config = {"seed": 3, "replicates": 2, "k": 3, "metrics": ["degree"], "workers": 1,
              "networks": [{"family": "erdos_renyi", "n": 40, "p": 0.2}],
              "herd": {"fraction": 0.7, "replicates": 1},
              "sir": {"t_max": 4.0, "runs": 1, "interventions": [{"time": 1.0, "k": 3}]},
              "ingest": {"columns": 3, "replicates": 1, "k": 3}}
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps(config, sort_keys=True))
    assert set(worker.RUNNERS) == {"table1", "herd", "simulate", "ingest"}
    for command, name in worker.RUNNERS.items():
        calls = []
        runner = getattr(cli, name)

        def recording(*args, _runner=runner, **kwargs):
            calls.append(args)
            return _runner(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
        inputs = workloads.Inputs(
            workload=command, seed=3, command=command, config=config,
            config_path=config_path,
            contact_paths=CONTACT_FILES if command == "ingest" else [])
        out = tmp_path / command
        assert cli.main(inputs.cli_args(out)) == 0, capsys.readouterr().err
        assert len(calls) == 1, command
        assert any(out.iterdir())
