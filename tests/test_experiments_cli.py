"""Configured runners and the command-line interface."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from vaxnet import centrality, experiments, gen_barabasi_albert, spectral, vaccination
from vaxnet.cli import build_parser, main
from vaxnet.experiments import (ConfigError, ExperimentConfig, InterventionSpec,
                                config_from_dict, load_config, run_eigendrop_table, run_herd, run_ingest, run_simulate,
                                run_spectral)
from vaxnet.stats import mean_std, paired_t_test

DATA_DIR = Path(__file__).parent / "data"
CONTACT_FILES = sorted(str(p) for p in DATA_DIR.glob("contacts_day*.txt"))

TINY_CONFIG = {
    "seed": 11,
    "replicates": 4,
    "k": 12,
    "metrics": ["degree", "eigenvector"],
    "networks": [
        {"family": "erdos_renyi", "n": 120, "p": 0.3},
        {"family": "barabasi_albert", "n": 120, "m": 4},
    ],
    "sir": {
        "tau": 0.4,
        "t_max": 12.0,
        "grid_dt": 0.5,
        "runs": 3,
        "metrics": ["degree"],
        "interventions": [{"time": 2.0, "k": 12}],
    },
    "herd": {"fraction": 0.7, "replicates": 2},
}


def write_config(tmp_path, overrides=None):
    cfg = dict(TINY_CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_bytes_map(folder):
    return {p.name: p.read_bytes() for p in sorted(Path(folder).iterdir())}


def read_csv(path):
    header, *lines = Path(path).read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


# -- configuration ------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.seed == 11
    assert cfg.replicates == 4
    assert [m.value for m in cfg.metrics] == ["degree", "eigenvector"]
    assert cfg.networks[0].family == "erdos_renyi"
    assert cfg.sir.params.t_max == 12.0
    assert cfg.sir.interventions == (InterventionSpec(time=2.0, k=12),)


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write_config(tmp_path, {"replicas": 5}))


def test_bad_yaml_rejected(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("networks: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)


def test_bad_metric_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"metrics": ["pagerank"]})


def test_sir_runs_below_one_rejected_at_load(tmp_path, capsys):
    with pytest.raises(ConfigError, match="sir.runs"):
        config_from_dict({"sir": {"runs": 0}})
    cfg = write_config(tmp_path, {"sir": {**TINY_CONFIG["sir"], "runs": 0}})
    out = tmp_path / "s"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_herd_replicates_below_one_rejected_at_load(tmp_path, capsys):
    with pytest.raises(ConfigError, match="herd.replicates"):
        config_from_dict({"herd": {"replicates": 0}})
    cfg = write_config(tmp_path, {"herd": {"fraction": 0.7, "replicates": 0}})
    out = tmp_path / "h"
    assert main(["herd", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_herd_fraction_outside_unit_interval_rejected_at_load(tmp_path, capsys):
    for fraction in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="herd.fraction"):
            config_from_dict({"herd": {"fraction": fraction}})
    cfg = write_config(tmp_path, {"herd": {"fraction": 1.5, "replicates": 2}})
    out = tmp_path / "h"
    assert main(["herd", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_ingest_replicates_below_one_rejected_at_load(tmp_path, capsys):
    with pytest.raises(ConfigError, match="ingest.replicates"):
        config_from_dict({"ingest": {"replicates": 0}})
    cfg = write_config(tmp_path, {"ingest": {"replicates": 0}})
    out = tmp_path / "ing"
    assert main(["ingest", *CONTACT_FILES, "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("raw, key, kind", [
    ({"replicates": 2.7}, "replicates", "an integer"),
    ({"k": 99.9}, "k", "an integer"),
    ({"seed": 1.5}, "seed", "an integer"),
    ({"workers": True}, "workers", "an integer"),
    ({"sir": {"runs": 1.9}}, "sir.runs", "an integer"),
    ({"sir": {"initial_infected": True}}, "sir.initial_infected", "an integer"),
    ({"sir": {"interventions": [{"time": 2.0, "k": 12.5}]}}, "sir.interventions.k",
     "an integer"),
    ({"herd": {"replicates": 3.2}}, "herd.replicates", "an integer"),
    ({"ingest": {"columns": 2.5}}, "ingest.columns", "an integer"),
    ({"ingest": {"day_length": 3600.5}}, "ingest.day_length", "an integer"),
    ({"ingest": {"k": False}}, "ingest.k", "an integer"),
    ({"ingest": {"replicates": 1.5}}, "ingest.replicates", "an integer"),
    ({"seed": "3"}, "seed", "an integer"),
    ({"seed": "3.0"}, "seed", "an integer"),
    ({"seed": None}, "seed", "an integer"),
    ({"seed": float("inf")}, "seed", "an integer"),
    ({"sir": {"runs": "2"}}, "sir.runs", "an integer"),
    ({"herd": {"replicates": [3]}}, "herd.replicates", "an integer"),
    ({"sir": {"tau": "0.4"}}, "sir.tau", "a number"),
    ({"sir": {"recovery_days": True}}, "sir.recovery_days", "a number"),
    ({"sir": {"t_max": "30"}}, "sir.t_max", "a number"),
    ({"sir": {"grid_dt": None}}, "sir.grid_dt", "a number"),
    ({"sir": {"interventions": [{"time": "2", "k": 12}]}}, "sir.interventions.time",
     "a number"),
    ({"herd": {"fraction": True}}, "herd.fraction", "a number"),
    ({"ingest": {"k_fraction": "0.1"}}, "ingest.k_fraction", "a number"),
    ({"metrics": "degree"}, "metrics", "a list"),
    ({"sir": {"metrics": "degree"}}, "sir.metrics", "a list"),
    ({"sir": {"interventions": [{"time": 2}]}}, "sir.interventions.k", "given"),
    ({"sir": {"interventions": [{"k": 5}]}}, "sir.interventions.time", "given"),
    ({"sir": {"interventions": [5]}}, "sir.interventions", "a list of mappings"),
    ({"sir": {"interventions": [{"time": 2, "k": 5}, [2, 5]]}}, "sir.interventions",
     "a list of mappings"),
    ({"sir": {"interventions": 5}}, "sir.interventions", "a list of mappings"),
    ({"networks": [{"family": "gnp", "n": 10, "p": True}]}, "networks.p", "a number"),
    ({"networks": [{"family": "rgg", "n": 10, "radius": True}]}, "networks.radius",
     "a number"),
    ({"networks": [{"family": "gnp", "n": 10, "p": "0.4"}]}, "networks.p", "a number"),
    ({"networks": [{"family": "rgg", "n": 10, "dim": None}]}, "networks.dim", "an integer"),
    ({"networks": {"family": "gnp"}}, "networks", "a list of mappings"),
    ({"networks": [5]}, "networks", "a list of mappings"),
    ({"networks": None}, "networks", "a list of mappings"),
    ({"networks": [{"family": "gnp", "p": 0.1}]}, "networks.n", "given"),
    ({"networks": [{"n": 10, "p": 0.1}]}, "networks.family", "given"),
    ({"metrics": ["degree", "dc"]}, "metrics", "a list of distinct metric names"),
    ({"sir": {"metrics": ["degree", "degree"]}}, "sir.metrics",
     "a list of distinct metric names"),
])
def test_mistyped_config_value_rejected(raw, key, kind):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be {kind}"):
        config_from_dict(raw)


@pytest.mark.parametrize("key", ["t_max", "grid_dt"])
def test_infinite_sir_horizon_or_grid_rejected_at_load(tmp_path, key):
    with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
        config_from_dict({"sir": {key: float("inf")}})
    path = tmp_path / "config.yaml"
    path.write_text(f"sir:\n  {key}: .inf\n")
    with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
        load_config(path)


@pytest.mark.parametrize("raw, key", [
    ({"sir": {"interventions": [{"time": 2, "k": 2.5}]}}, "sir.interventions.k"),
    ({"sir": {"interventions": [{"time": 2, "k": True}]}}, "sir.interventions.k"),
    ({"sir": {"initial_infected": 2.5}}, "sir.initial_infected"),
    ({"sir": {"initial_infected": True}}, "sir.initial_infected"),
])
def test_non_integer_sir_count_rejected_at_load(raw, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be an integer"):
        config_from_dict(raw)


def test_infinite_recovery_accepted():
    cfg = config_from_dict({"sir": {"recovery_days": float("inf")}})
    assert cfg.sir.params.recovery_days == float("inf")


def test_large_integer_seed_kept_exact():
    seed = 2**63 + 1
    assert config_from_dict({"seed": seed}).seed == seed


@pytest.mark.parametrize("section, command", [
    ("sir", "simulate"), ("herd", "herd"), ("ingest", "ingest")])
def test_unknown_section_key_rejected_at_load(tmp_path, capsys, section, command):
    with pytest.raises(ConfigError, match=f"unknown {section} keys \\['fracton'\\]"):
        config_from_dict({section: {"fracton": 0.5}})
    cfg = write_config(tmp_path, {section: {"fracton": 0.5}})
    out = tmp_path / "o"
    files = CONTACT_FILES if command == "ingest" else []
    assert main([command, *files, "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("section", ["sir", "herd", "ingest"])
def test_empty_config_section_keeps_defaults(tmp_path, section):
    assert config_from_dict({section: None}) == ExperimentConfig()
    path = tmp_path / "config.yaml"
    path.write_text(f"seed: 3\n{section}:\n")
    assert load_config(path) == ExperimentConfig(seed=3)


@pytest.mark.parametrize("section, command", [
    ("sir", "simulate"), ("herd", "herd"), ("ingest", "ingest")])
@pytest.mark.parametrize("value", [[0.7, 5], 5, "fraction"])
def test_non_mapping_config_section_rejected_at_load(tmp_path, capsys, section, command, value):
    with pytest.raises(ConfigError, match=f"{section} must be a mapping"):
        config_from_dict({section: value})
    cfg = write_config(tmp_path, {section: value})
    out = tmp_path / "o"
    files = CONTACT_FILES if command == "ingest" else []
    assert main([command, *files, "--config", str(cfg), "--out", str(out)]) == 1
    assert "must be a mapping" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_unknown_intervention_key_rejected():
    iv = {"time": 2, "k": 5, "metric": "betweenness"}
    with pytest.raises(ConfigError, match=re.escape("unknown sir.interventions keys ['metric']")):
        config_from_dict({"sir": {"interventions": [iv]}})


def test_integral_config_values_accepted():
    cfg = config_from_dict({"seed": 7.0, "replicates": 3, "k": 3.0,
                            "sir": {"runs": 2.0, "initial_infected": 4},
                            "herd": {"replicates": 3.0},
                            "ingest": {"k": 5.0, "day_length": 3600.0}})
    values = [cfg.seed, cfg.replicates, cfg.k, cfg.sir.runs,
              cfg.sir.params.initial_infected, cfg.herd.replicates,
              cfg.ingest.k, cfg.ingest.day_length]
    assert values == [7, 3, 3, 2, 4, 3, 5, 3600]
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("ingest, key", [
    ({"k": -4}, "ingest.k"),
    ({"columns": 5}, "ingest.columns"),
    ({"day_length": 0}, "ingest.day_length"),
    ({"k_fraction": 1.5}, "ingest.k_fraction"),
    ({"k_fraction": -0.1}, "ingest.k_fraction"),
])
def test_ingest_settings_rejected_at_load(tmp_path, capsys, ingest, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict({"ingest": ingest})
    cfg = write_config(tmp_path, {"ingest": ingest})
    out = tmp_path / "ing"
    assert main(["ingest", *CONTACT_FILES, "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("network, key", [
    ({"family": "ba", "n": 100.5, "m": 3}, "n"),
    ({"family": "ba", "n": 100, "m": 3.7}, "m"),
    ({"family": "ba", "n": True, "m": 3}, "n"),
    ({"family": "rgg", "n": 100, "radius": 0.2, "dim": 2.5}, "dim"),
    ({"family": "er", "n": 100, "p": 0.2, "seed": 1.5}, "seed"),
])
def test_non_integer_network_value_rejected_at_load(tmp_path, capsys, network, key):
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        config_from_dict({"networks": [network]})
    cfg = write_config(tmp_path, {"networks": [network]})
    out = tmp_path / "tab"
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("raw, command", [
    ({"metrics": [1]}, "table1"),
    ({"sir": {"metrics": [None]}}, "simulate"),
    ({"networks": [{"family": 5, "n": 10, "p": 0.1}]}, "table1"),
], ids=["metric", "sir_metric", "family"])
def test_non_string_name_rejected_at_load(tmp_path, capsys, raw, command):
    with pytest.raises(ConfigError, match="must be a name"):
        config_from_dict(raw)
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_nan_radius_rejected_at_load(tmp_path, capsys):
    network = {"family": "rgg", "n": 50, "radius": float("nan")}
    with pytest.raises(ConfigError, match="radius must be non-negative"):
        config_from_dict({"networks": [network]})
    cfg = write_config(tmp_path, {"networks": [network]})
    assert ".nan" in cfg.read_text()
    out = tmp_path / "tab"
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_defaults_without_file():
    cfg = config_from_dict({})
    assert cfg == ExperimentConfig()
    assert cfg.replicates == 30
    assert cfg.k == 100
    assert cfg.replicate_mode == "generate"


# -- runners ----------------------------------------------------------------------


def test_eigendrop_runner_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = tmp_path / "out"
    run_eigendrop_table(cfg, out)
    summary = (out / "eigendrop_summary.csv").read_text().splitlines()
    assert summary[0].startswith("family,n,metric,")
    # 2 families x 2 metrics
    assert len(summary) == 5
    reps = (out / "eigendrop_replicates.csv").read_text().splitlines()
    assert len(reps) == 1 + 2 * 4
    for line in summary[1:]:
        cells = line.split(",")
        lam_orig, lam_topk, lam_rand = float(cells[6]), float(cells[8]), float(cells[10])
        # removals can only pull the eigenvalue down, and targeting beats
        # chance on these families
        assert lam_topk <= lam_rand <= lam_orig


def test_eigendrop_shuffle_mode(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "replicate_mode": "shuffle", "replicates": 3,
        "networks": [{"family": "erdos_renyi", "n": 80, "p": 0.3}],
        "metrics": ["degree"]}))
    out = tmp_path / "out"
    run_eigendrop_table(cfg, out)
    reps = (out / "eigendrop_replicates.csv").read_text().splitlines()
    assert len(reps) == 4


def test_eigendrop_runs_one_path_sweep_per_graph(tmp_path, monkeypatch):
    calls = []
    inner = centrality._path_values

    def counting(g, *args):
        calls.append(g.fingerprint)
        return inner(g, *args)

    monkeypatch.setattr(centrality, "_path_values", counting)
    cfg = load_config(write_config(tmp_path, {
        "replicates": 3, "metrics": ["degree", "closeness", "betweenness", "eigenvector"]}))
    run_eigendrop_table(cfg, tmp_path / "out")
    # 2 families x 3 replicates, each graph swept once for both path metrics
    assert len(calls) == len(set(calls)) == 6


def test_eigendrop_logs_each_solve_that_did_not_converge(tmp_path, monkeypatch, caplog):
    cfg = load_config(write_config(tmp_path, {
        "replicates": 2, "metrics": ["degree"],
        "networks": [{"family": "barabasi_albert", "n": 120, "m": 4}]}))
    with caplog.at_level("WARNING", logger="vaxnet.experiments"):
        run_eigendrop_table(cfg, tmp_path / "converged")
    assert caplog.records == []

    solve = vaccination.lambda_max
    monkeypatch.setattr(vaccination, "lambda_max", lambda g: solve(g, max_iter=2))
    with caplog.at_level("WARNING", logger="vaxnet.experiments"):
        run_eigendrop_table(cfg, tmp_path / "capped")
    # 2 replicates x (one random and one top-k plan), each solve cut short
    assert len(caplog.records) == 4
    assert all(r.levelname == "WARNING" and r.name == "vaxnet.experiments"
               for r in caplog.records)
    messages = [r.getMessage() for r in caplog.records]
    assert sum("plan random (seed " in m for m in messages) == 2
    assert sum(m.endswith("plan topk:degree") for m in messages) == 2
    assert all(re.search(r"graph [0-9a-f]{16} \(n=120, m=\d+\)", m) for m in messages)
    assert read_bytes_map(tmp_path / "capped").keys() == \
        read_bytes_map(tmp_path / "converged").keys()


SUMMARY_COLUMNS = ["lambda_orig_mean", "lambda_orig_std", "lambda_topk_mean",
                   "lambda_topk_std", "lambda_random_mean", "lambda_random_std",
                   "t_stat", "p_value"]


def check_summary_row(row, orig, topk, rand):
    """A summary row equals the arms recomputed from the per-row file."""
    test = paired_t_test(topk, rand, alternative="less")
    want = [*mean_std(orig), *mean_std(topk), *mean_std(rand), test.t_stat, test.p_value]
    assert [float(row[c]) for c in SUMMARY_COLUMNS] == want
    assert row["significant"] == ("true" if test.significant else "false")


def test_summaries_recompute_from_per_row_files(tmp_path):
    cfg = load_config(write_config(tmp_path))
    run_eigendrop_table(cfg, tmp_path / "t")
    reps = read_csv(tmp_path / "t" / "eigendrop_replicates.csv")
    summary = read_csv(tmp_path / "t" / "eigendrop_summary.csv")
    assert len(summary) == len(cfg.networks) * len(cfg.metrics)
    for row in summary:
        mine = [r for r in reps if r["family"] == row["family"]]
        assert len(mine) == int(row["replicates"]) == cfg.replicates
        check_summary_row(row, [float(r["lambda_orig"]) for r in mine],
                          [float(r[f"lambda_topk_{row['metric']}"]) for r in mine],
                          [float(r["lambda_random"]) for r in mine])

    run_ingest(cfg, CONTACT_FILES, tmp_path / "c")
    daily = read_csv(tmp_path / "c" / "contact_daily.csv")
    summary = read_csv(tmp_path / "c" / "contact_summary.csv")
    assert [r["metric"] for r in summary] == [m.value for m in cfg.metrics]
    for row in summary:
        mine = [r for r in daily if r["metric"] == row["metric"]]
        assert len(mine) == int(row["days"]) == len(CONTACT_FILES)
        check_summary_row(row, *([float(r[c]) for r in mine]
                                 for c in ("lambda_orig", "lambda_topk", "lambda_random")))


def test_herd_runner_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "networks": [{"family": "barabasi_albert", "n": 100, "m": 3}],
        "metrics": ["degree"]}))
    out = tmp_path / "out"
    run_herd(cfg, out)
    rows = (out / "herd.csv").read_text().splitlines()
    assert len(rows) == 2
    cells = rows[1].split(",")
    n_h, n_hs = int(cells[5]), int(cells[7])
    assert n_h == 70
    assert 0 <= n_hs <= 100
    (row,) = read_csv(out / "herd.csv")
    assert rows[0].endswith(",solves,nonconverged")
    assert 0 < int(row["solves"]) <= 2 * 7 * cfg.herd.replicates
    assert row["nonconverged"] == "0"


def test_simulate_runner_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "networks": [{"family": "duplication_divergence", "n": 100, "p": 0.4}],
    }))
    out = tmp_path / "out"
    run_simulate(cfg, out)
    arms = ["none", "random", "topk_degree"]
    for arm in arms:
        path = out / f"trajectory_duplication_divergence-n100-p0.4_{arm}.csv"
        rows = path.read_text().splitlines()
        assert rows[0] == "time,s,i,r,v"
        data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        assert np.allclose(data[:, 1:].sum(axis=1), 100.0)
    summary = json.loads((out / "sir_summary.json").read_text())
    label = "duplication_divergence-n100-p0.4"
    assert set(summary["results"][label]) == set(arms)
    assert summary["results"][label]["none"]["peak_infected"] >= 1


# -- CLI ---------------------------------------------------------------------------


def test_cli_generate_and_spectral(tmp_path, capsys):
    out_edges = tmp_path / "g.edges"
    rc = main(["generate", "--family", "erdos_renyi", "--n", "80", "--p", "0.2",
               "--seed", "5", "--out", str(out_edges)])
    assert rc == 0
    meta = json.loads((tmp_path / "g.edges.meta.json").read_text())
    assert meta["n"] == 80
    capsys.readouterr()

    out_json = tmp_path / "spec.json"
    rc = main(["spectral", "--input", str(out_edges), "--out", str(out_json),
               "--beta", "0.4", "--delta", "0.0714"])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["converged"]
    assert payload["bounds"]["holds"]
    assert "threshold" in payload


def test_spectral_solves_the_graph_once(tmp_path, monkeypatch):
    g = gen_barabasi_albert(150, 3, seed=2)
    solved = []
    inner = spectral.lambda_max

    def counting(graph, *args, **kwargs):
        solved.append(graph.fingerprint)
        return inner(graph, *args, **kwargs)

    monkeypatch.setattr(experiments, "lambda_max", counting)
    monkeypatch.setattr(spectral, "lambda_max", counting)
    payload = run_spectral(g, tmp_path / "spec.json")
    assert solved == [g.fingerprint]
    assert payload["bounds"]["holds"]
    assert payload["bounds"]["deg_max"] == float(g.degrees.max())


def test_cli_generate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    for out in (a, b):
        assert main(["generate", "--family", "gnp", "--n", "60", "--p", "0.1",
                     "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_centrality(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    main(["generate", "--family", "ba", "--n", "50", "--m", "2", "--seed", "3",
          "--out", str(edges)])
    out_csv = tmp_path / "scores.csv"
    rc = main(["centrality", "--input", str(edges), "--metric", "betweenness",
               "--out", str(out_csv)])
    capsys.readouterr()
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "node_id,score,rank"
    assert len(lines) == 51


def test_cli_table1_byte_identical_reruns(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "replicates": 3, "k": 8,
        "networks": [{"family": "erdos_renyi", "n": 60, "p": 0.25}],
        "metrics": ["degree"]})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["table1", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["table1", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert read_bytes_map(out1) == read_bytes_map(out2)


WORKERS_CONFIG = {
    "replicates": 3, "k": 8, "metrics": ["degree", "eigenvector"],
    "networks": [{"family": "erdos_renyi", "n": 60, "p": 0.25},
                 {"family": "barabasi_albert", "n": 60, "m": 3},
                 {"family": "duplication_divergence", "n": 60, "p": 0.4}],
    "herd": {"fraction": 0.7, "replicates": 2},
    "ingest": {"columns": 3, "replicates": 2},
}
# Each runner's fan-out unit, and how many of it WORKERS_CONFIG makes:
# replicates per family, families, families, days of the contact files.
RUNNER_TASKS = {"table1": 9, "herd": 3, "simulate": 3, "ingest": 3}


def runner_argv(command, cfg, out, workers):
    paths = CONTACT_FILES if command == "ingest" else []
    return [command, *paths, "--config", str(cfg), "--out", str(out), "--workers", str(workers)]


@pytest.fixture
def pool_sizes(monkeypatch):
    """`max_workers` of each ProcessPoolExecutor the runners create; the
    stand-in runs every task in this process."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            assert chunksize == 1
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.mark.parametrize("workers, tasks, pools", [
    (1, 4, []), (2, 4, [2]), (64, 4, [4]), (3, 1, []), (3, 0, [])])
def test_fan_out_starts_no_more_processes_than_tasks(pool_sizes, workers, tasks, pools):
    assert experiments._fan_out(str, range(tasks), workers) == [str(t) for t in range(tasks)]
    assert pool_sizes == pools


@pytest.mark.parametrize("command", sorted(RUNNER_TASKS))
def test_each_runner_fans_out_by_its_unit(tmp_path, capsys, pool_sizes, command):
    cfg = write_config(tmp_path, WORKERS_CONFIG)
    assert main(runner_argv(command, cfg, tmp_path / "out", 64)) == 0, capsys.readouterr().err
    assert pool_sizes == [RUNNER_TASKS[command]]


@pytest.mark.parametrize("command", sorted(RUNNER_TASKS))
def test_cli_workers_do_not_change_results(tmp_path, capsys, command):
    cfg = write_config(tmp_path, WORKERS_CONFIG)
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(runner_argv(command, cfg, out, workers)) == 0, capsys.readouterr().err
        outputs.append(read_bytes_map(out))
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_cli_herd_and_simulate(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "networks": [{"family": "barabasi_albert", "n": 80, "m": 3}],
        "metrics": ["degree"],
        "herd": {"fraction": 0.7, "replicates": 2},
    })
    assert main(["herd", "--config", str(cfg), "--out", str(tmp_path / "h")]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert (tmp_path / "h" / "herd.csv").exists()
    assert (tmp_path / "s" / "sir_summary.json").exists()


def test_cli_ingest_k_override_keeps_config_seed_and_metrics(tmp_path, capsys):
    ingest = {"columns": 3, "replicates": 2}
    cfg = write_config(tmp_path, {"seed": 5, "metrics": ["closeness"], "ingest": ingest})
    out = tmp_path / "flag"
    assert main(["ingest", *CONTACT_FILES, "--config", str(cfg), "--k", "3",
                 "--columns", "3", "--out", str(out)]) == 0
    rows = read_csv(out / "contact_daily.csv")
    assert {r["k"] for r in rows} == {"3"}
    assert {r["metric"] for r in rows} == {"closeness"}
    # the same run with k in the config file, and again with the default seed
    runs = {}
    for seed in (5, 0):
        path = write_config(tmp_path, {"seed": seed, "metrics": ["closeness"],
                                       "ingest": {**ingest, "k": 3}})
        run_ingest(load_config(path), CONTACT_FILES, tmp_path / f"seed{seed}")
        runs[seed] = read_bytes_map(tmp_path / f"seed{seed}")
    capsys.readouterr()
    assert read_bytes_map(out) == runs[5] != runs[0]
    out = tmp_path / "negative"
    assert main(["ingest", *CONTACT_FILES, "--config", str(cfg), "--k", "-4",
                 "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_cli_ingest_fixture(tmp_path, capsys):
    rc = main(["ingest", *CONTACT_FILES, "--out", str(tmp_path / "ing"), "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    daily = (tmp_path / "ing" / "contact_daily.csv").read_text().splitlines()
    # 3 days x 3 default metrics
    assert len(daily) == 10
    assert json.loads(out)["summary"].endswith("contact_summary.csv")


def test_cli_error_is_json_on_stderr(tmp_path, capsys):
    rc = main(["table1", "--config", str(tmp_path / "missing.yaml"),
               "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert rc == 1
    err = json.loads(captured.err)
    assert err["error"] in ("FileNotFoundError", "ConfigError")


def test_cli_bad_flag_combination(tmp_path, capsys):
    rc = main(["generate", "--family", "gnp", "--out", str(tmp_path / "g.edges")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "generate needs" in json.loads(captured.err)["message"]


def test_cli_generate_refuses_graph_flags_beside_config(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = main(["generate", "--config", str(write_config(tmp_path)), "--family", "ba",
               "--n", "999", "--m", "3", "--dim", "2", "--out", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError",
        "message": "generate takes --config or graph flags, not both; got --family --n --m --dim"}
    assert not out.exists()


def test_each_subcommand_takes_only_the_flags_it_reads():
    batch = {"--config", "--seed", "--out", "--workers"}
    want = {
        "generate": {"--config", "--seed", "--out", "--family", "--n", "--p", "--m",
                     "--radius", "--dim"},
        "centrality": {"--input", "--metric", "--out"},
        "spectral": {"--input", "--beta", "--delta", "--out"},
        "table1": batch, "herd": batch, "simulate": batch,
        "ingest": batch | {"--columns", "--k"},
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for action in parser._actions for flag in action.option_strings}
           - {"-h", "--help"} for name, parser in sub.choices.items()}
    assert got == want


@pytest.mark.parametrize("argv, message", [
    (["table1", "--out", "x"], "the following arguments are required: --config"),
    (["ingest", "f.txt", "--columns", "4"], "argument --columns: invalid choice: 4"),
    (["centrality", "--input", "g.edges", "--metric", "degree", "--seed", "3"],
     "unrecognized arguments: --seed 3"),
    (["spectral", "--input", "g.edges", "--config", "nowhere.yaml", "--seed", "4",
      "--workers", "0"], "unrecognized arguments: --config nowhere.yaml --seed 4 --workers 0"),
    (["generate", "--family", "gnp", "--n", "9", "--workers", "2"],
     "unrecognized arguments: --workers 2"),
], ids=["missing-config", "bad-choice", "centrality-seed", "spectral-batch-flags",
        "generate-workers"])
def test_cli_usage_error_is_json_on_stderr(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ArgumentError" and message in err["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rate", [["--beta", "0.4"], ["--delta", "0.07"]],
                         ids=["beta-only", "delta-only"])
def test_cli_spectral_refuses_half_a_threshold(tmp_path, capsys, rate):
    edges = tmp_path / "g.edges"
    assert main(["generate", "--family", "gnp", "--n", "30", "--p", "0.2",
                 "--out", str(edges)]) == 0
    capsys.readouterr()
    out = tmp_path / "spec.json"
    assert main(["spectral", "--input", str(edges), "--out", str(out), *rate]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "the threshold report needs both beta and delta"}
    assert not out.exists()


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "vaxnet.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
