"""The benchmark tracer's wrap targets still exist in the package.

`perfbench/tracing.py` wraps layer functions under the name each caller
module binds (often a from-import). A refactor that drops such a binding
would only fail traced benchmark runs, so check every target here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
