"""The README's examples run against the package as it is.

A public name that is removed or renamed breaks the quickstart block or the
example config here, not only the documentation.
"""

import re
from pathlib import Path

import yaml

from vaxnet.experiments import InterventionSpec, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(lang: str, after: str) -> str:
    """The first ```lang block that follows the line `after` in the README."""
    text = README.read_text(encoding="utf-8")
    start = text.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```", re.M | re.S).search(text, start)
    assert match, f"no {lang} block after {after!r}"
    return match.group(1)


def test_python_quickstart_runs(capsys):
    namespace = {}
    exec(compile(fenced_block("python", "## Python quickstart"), "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert 129 <= float(printed[0]) < 130     # the block's comment says ~129
    before, targeted, rand = map(float, printed[1].split())
    assert targeted < rand < before
    assert 0 < float(printed[2]) <= namespace["g"].n


def test_example_config_loads():
    cfg = config_from_dict(yaml.safe_load(fenced_block("yaml", "Example `exp.yaml`:")))
    assert cfg.seed == 42 and cfg.replicates == 30 and cfg.k == 100
    assert [spec.family for spec in cfg.networks] == ["erdos_renyi", "barabasi_albert"]
    assert cfg.sir.params.tau == 0.4
    assert cfg.sir.interventions == (InterventionSpec(time=2.0, k=100),)
    assert cfg.herd.fraction == 0.7 and cfg.herd.replicates == 5
