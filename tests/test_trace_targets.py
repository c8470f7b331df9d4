"""The benchmark tracer's wrap targets still exist in the package.

`perfbench/tracing.py` wraps layer functions under the name each caller
module binds (often a from-import). A refactor that drops such a binding
would only fail traced benchmark runs, so check every target here, and
that the tracer's result hooks still read what the functions return.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from vaxnet import SirParams, gen_duplication_divergence, lambda_max, parse_contacts, simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    # Only reads the file: no bytecode cache is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    targets = load_tracing(monkeypatch).TARGETS
    assert targets
    for module, path, *_ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_result_hooks_count_real_results(monkeypatch, tmp_path):
    tracing = load_tracing(monkeypatch)
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
