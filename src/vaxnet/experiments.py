"""Configured experiment runners behind the command-line interface.

Every runner takes a validated configuration, derives all randomness from
one master seed through labeled child streams, and writes plain CSV/JSON
files with stable ordering and repr-exact floats. Running the same
configuration twice produces byte-identical outputs; worker-pool fan-out
changes wall time, never results.
"""

from __future__ import annotations

import json
import logging
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import seeding
from .centrality import Metric, compute, compute_many, ranking
from .generators import (GenSpec, as_integer, as_number, degree_preserving_shuffle,
                         generate)
from .graph import Graph, write_edge_list
from .ingest import load_daily_graphs
from .sirsim import Intervention, SirParams, ensemble, peak_and_final, replicate_graphs
from .spectral import SirRates, lambda_max, spectral_bounds_check, threshold_check
from .stats import mean_std, paired_t_test
from .vaccination import eigen_drop, herd_equivalent, plan_random, plan_topk

DEFAULT_METRICS = (Metric.DEGREE, Metric.BETWEENNESS, Metric.EIGENVECTOR)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class InterventionSpec:
    """One `sir.interventions` entry: vaccinate `k` nodes at `time`."""
    time: float
    k: int

    def __post_init__(self):
        if not self.time >= 0:
            raise ConfigError(f"sir.interventions.time must be non-negative, got {self.time!r}")
        if self.k < 0:
            raise ConfigError(f"sir.interventions.k must be non-negative, got {self.k!r}")


@dataclass(frozen=True)
class SirConfig:
    params: SirParams = SirParams()
    runs: int = 10
    metrics: tuple[Metric, ...] = (Metric.DEGREE,)
    interventions: tuple[InterventionSpec, ...] = ()

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("sir.runs must be at least 1")

    def arms(self) -> list[tuple[str, tuple[Intervention, ...]]]:
        """Strategy arms: no action, random picks, and top-k per metric."""
        out: list[tuple[str, tuple[Intervention, ...]]] = [("none", ())]
        out.append(("random", tuple(
            Intervention(iv.time, "random", iv.k) for iv in self.interventions)))
        for metric in self.metrics:
            out.append((f"topk_{metric.value}", tuple(
                Intervention(iv.time, "topk", iv.k, metric)
                for iv in self.interventions)))
        return out


@dataclass(frozen=True)
class HerdConfig:
    fraction: float = 0.7
    replicates: int = 5

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError("herd.replicates must be at least 1")
        if not (0.0 <= self.fraction <= 1.0):
            raise ConfigError("herd.fraction must lie in [0, 1]")


@dataclass(frozen=True)
class IngestConfig:
    columns: int = 3
    day_length: Optional[int] = None
    k: Optional[int] = None
    k_fraction: float = 0.10
    replicates: int = 10

    def __post_init__(self):
        if self.columns not in (2, 3):
            raise ConfigError("ingest.columns must be 2 or 3")
        if self.day_length is not None and self.day_length <= 0:
            raise ConfigError("ingest.day_length must be positive")
        if self.k is not None and self.k < 0:
            raise ConfigError("ingest.k must be non-negative")
        if not (0.0 <= self.k_fraction <= 1.0):
            raise ConfigError("ingest.k_fraction must lie in [0, 1]")
        if self.replicates < 1:
            raise ConfigError("ingest.replicates must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    replicates: int = 30
    k: int = 100
    metrics: tuple[Metric, ...] = DEFAULT_METRICS
    replicate_mode: str = "generate"      # or "shuffle"
    workers: int = 1
    networks: tuple[GenSpec, ...] = ()
    sir: SirConfig = SirConfig()
    herd: HerdConfig = HerdConfig()
    ingest: IngestConfig = IngestConfig()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.k < 0:
            raise ConfigError("k must be non-negative")
        if self.replicate_mode not in ("generate", "shuffle"):
            raise ConfigError("replicate_mode must be 'generate' or 'shuffle'")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


# Setting readers: reader(value, key) raises ConfigError on a wrong type.
_integer = partial(as_integer, error=ConfigError)
_number = partial(as_number, error=ConfigError)


def _optional(read):
    return lambda value, key: None if value is None else read(value, key)


def _metrics(value, key: str) -> tuple[Metric, ...]:
    """Metric names, aliases resolved; a repeated metric raises ConfigError."""
    if isinstance(value, (list, tuple)):
        metrics = tuple(Metric.from_name(name) for name in value)
        if len(set(metrics)) == len(metrics):
            return metrics
    raise ConfigError(f"{key} must be a list of distinct metric names, got {value!r}")


# One reader per field annotation of the config dataclasses: reader(value, key).
_READERS = {
    int: _integer,
    Optional[int]: _optional(_integer),
    float: _number,
    Optional[float]: _optional(_number),
    str: lambda value, key: value,
    tuple[Metric, ...]: _metrics,
}


def _read(kind, value, key: str, source: str):
    """Setting `key` by its field annotation `kind`. A dataclass is a section,
    and `tuple[D, ...]` of a dataclass `D` a list of `D` sections."""
    if is_dataclass(kind):
        return _section(kind, value, key, source)
    if get_origin(kind) is tuple and is_dataclass(entry := get_args(kind)[0]):
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, dict) for v in value):
            raise ConfigError(f"{key} must be a list of mappings, got {value!r}")
        return tuple(_section(entry, v, key, source) for v in value)
    return _READERS[kind](value, key)


def _settings(cls) -> dict:
    """Setting name -> annotation of the fields of dataclass `cls`. A dataclass
    field (SirConfig.params) adds its own settings instead, so the `sir:`
    section holds those of SirConfig and of SirParams."""
    out = {}
    for name, kind in get_type_hints(cls).items():
        out.update(_settings(kind) if is_dataclass(kind) else {name: kind})
    return out


def _build(cls, values: dict):
    """`cls` from read setting values; a setting without one keeps its default."""
    return cls(**{name: _build(kind, values) if is_dataclass(kind) else values[name]
                  for name, kind in get_type_hints(cls).items()
                  if is_dataclass(kind) or name in values})


def _section(cls, raw, name: str, source: str):
    """Config section `name` as dataclass `cls`. An empty section (YAML null)
    keeps every default; a non-mapping, an unknown key or a missing field
    without a default raises ConfigError."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: {name} must be a mapping, got {raw!r}")
    settings = _settings(cls)
    unknown = set(raw) - set(settings)
    if unknown:
        raise ConfigError(f"{source}: unknown {name} keys {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{name}.{f.name} must be given in every entry, got {raw!r}")
    return _build(cls, {key: _read(settings[key], value, f"{name}.{key}", source)
                        for key, value in raw.items()})


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse a YAML configuration file into an ExperimentConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return config_from_dict(raw, source=str(path))


def config_from_dict(raw: dict, source: str = "<config>") -> ExperimentConfig:
    """ExperimentConfig from a config mapping. Each key is read by the
    annotation of its dataclass field, and an absent key keeps the field's
    default. The dataclass fields `sir`, `herd` and `ingest` are sections."""
    top = get_type_hints(ExperimentConfig)
    unknown = set(raw) - set(top)
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    try:
        return ExperimentConfig(**{key: _read(top[key], value, key, source)
                                   for key, value in raw.items()})
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


# -- output helpers ----------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _spec_label(spec: GenSpec) -> str:
    parts = [spec.family, f"n{spec.n}"]
    if spec.p is not None:
        parts.append(f"p{spec.p}")
    if spec.m is not None:
        parts.append(f"m{spec.m}")
    if spec.radius is not None:
        parts.append(f"r{spec.radius}")
    return "-".join(parts)


def _fan_out(fn, tasks: Sequence, workers: int) -> list:
    """`[fn(t) for t in tasks]`, in task order. When `workers` and the task
    count both exceed one, the tasks run in a pool of `min(workers,
    len(tasks))` processes, so `fn` and each task must pickle. The pool
    module is imported only then, which keeps it out of one-worker runs."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


# -- eigen-drop comparison across families and strategies ----------------------------


def _replicate_graph(spec: GenSpec, mode: str, master_seed: int,
                     family_idx: int, rep: int) -> tuple[Graph, int]:
    if mode == "shuffle":
        base_seed = seeding.child_seed(master_seed, "net", family_idx, "base")
        base = generate(spec.with_seed(base_seed))
        shuf_seed = seeding.child_seed(master_seed, "shuffle", family_idx, rep)
        return degree_preserving_shuffle(base, seed=shuf_seed), shuf_seed
    g_seed = seeding.child_seed(master_seed, "net", family_idx, rep)
    return generate(spec.with_seed(g_seed)), g_seed


def _graph_arms(g: Graph, k: int, rand_seeds: Sequence[int],
                metrics: Sequence[Metric]) -> tuple[float, list[float], list[float]]:
    """λ of `g` intact, after each random removal and after each metric's top k.

    A plan whose report did not converge, before or after its removal, is
    logged as a warning; its λ is still returned.
    """
    plans = [plan_random(g, k, seed=s) for s in rand_seeds]
    scores = compute_many(g, metrics)
    plans += [plan_topk(scores[metric], k) for metric in metrics]
    reports = eigen_drop(g, plans)
    for plan, report in zip(plans, reports):
        if not report.converged:
            name = plan.strategy if plan.seed is None else f"{plan.strategy} (seed {plan.seed})"
            log.warning("eigenvalue solve did not converge: graph %s (n=%d, m=%d), plan %s",
                        g.fingerprint, g.n, g.m, name)
    after = [r.lambda_after for r in reports]
    return reports[0].lambda_before, after[:len(rand_seeds)], after[len(rand_seeds):]


def _arm_summary(orig: Sequence[float], topk: Sequence[float], rand: Sequence[float]) -> list:
    """Mean, std of orig, top-k, random; paired t-test top-k < random (nan, nan, false if n < 2)."""
    if len(topk) >= 2:
        test = paired_t_test(topk, rand, alternative="less")
        verdict = [test.t_stat, test.p_value, test.significant]
    else:
        verdict = [float("nan"), float("nan"), False]
    return [*mean_std(orig), *mean_std(topk), *mean_std(rand), *verdict]


def _eigendrop_task(cfg: ExperimentConfig, task: tuple[int, int]) -> tuple:
    """Graph seed, λ intact, λ after random removal and after each metric's top k."""
    fi, rep = task
    g, g_seed = _replicate_graph(cfg.networks[fi], cfg.replicate_mode, cfg.seed, fi, rep)
    rand_seed = seeding.child_seed(cfg.seed, "rand", fi, rep)
    lam_orig, (lam_rand,), lam_topk = _graph_arms(g, cfg.k, [rand_seed], cfg.metrics)
    return g_seed, lam_orig, lam_rand, lam_topk


def run_eigendrop_table(cfg: ExperimentConfig, out_dir) -> dict:
    """Eigenvalue drop of top-k vs random removal across network families.

    Writes one row per (family, metric) to the summary CSV and one row per
    (family, replicate) to the replicate CSV; the paired t-test compares
    the targeted and random arms over replicates.
    """
    if not cfg.networks:
        raise ConfigError("eigendrop table needs at least one network spec")
    for spec in cfg.networks:
        if cfg.k > spec.n:
            raise ConfigError(f"k={cfg.k} is above n={spec.n} of network {_spec_label(spec)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metric_names = [m.value for m in cfg.metrics]

    long_rows = []
    summary_rows = []
    tasks = [(fi, rep) for fi in range(len(cfg.networks)) for rep in range(cfg.replicates)]
    results = _fan_out(partial(_eigendrop_task, cfg), tasks, cfg.workers)

    for fi, spec in enumerate(cfg.networks):
        rows = results[fi * cfg.replicates:(fi + 1) * cfg.replicates]
        label = _spec_label(spec)
        long_rows += [[label, rep, g_seed, orig, rand, *topk]
                      for rep, (g_seed, orig, rand, topk) in enumerate(rows)]
        _, orig, rand, topk = zip(*rows)
        for j, name in enumerate(metric_names):
            summary_rows.append([label, spec.n, name, cfg.k, cfg.replicates, cfg.replicate_mode,
                                 *_arm_summary(orig, [t[j] for t in topk], rand)])

    write_csv(out_dir / "eigendrop_replicates.csv",
              ["family", "replicate", "graph_seed", "lambda_orig", "lambda_random"]
              + [f"lambda_topk_{m}" for m in metric_names],
              long_rows)
    write_csv(out_dir / "eigendrop_summary.csv",
              ["family", "n", "metric", "k", "replicates", "mode",
               "lambda_orig_mean", "lambda_orig_std", "lambda_topk_mean",
               "lambda_topk_std", "lambda_random_mean", "lambda_random_std",
               "t_stat", "p_value", "significant"],
              summary_rows)
    write_json(out_dir / "eigendrop_meta.json",
               {"seed": cfg.seed, "replicates": cfg.replicates, "k": cfg.k,
                "mode": cfg.replicate_mode, "metrics": metric_names,
                # every graph's seed comes from the master seed, not the spec's
                "networks": [{k: v for k, v in s.to_dict().items() if k != "seed"}
                             for s in cfg.networks]})
    return {"summary": str(out_dir / "eigendrop_summary.csv"),
            "replicates": str(out_dir / "eigendrop_replicates.csv")}


# -- herd-equivalence search ----------------------------------------------------------


def _herd_task(cfg: ExperimentConfig, fi: int) -> list[list]:
    """The `herd.csv` rows of network family `fi`, one per metric."""
    spec = cfg.networks[fi]
    graphs = [generate(spec.with_seed(seeding.child_seed(cfg.seed, "herd", fi, rep)))
              for rep in range(cfg.herd.replicates)]
    reports = herd_equivalent(graphs, cfg.metrics, cfg.herd.fraction,
                              seed=seeding.child_seed(cfg.seed, "herdbase", fi))
    return [[_spec_label(spec), report.metric.value, report.n, report.replicates,
             report.n_h_fraction, report.n_h, report.lambda_target,
             report.n_hs, report.n_hs_fraction, report.solves, report.nonconverged]
            for report in reports]


def run_herd(cfg: ExperimentConfig, out_dir) -> dict:
    if not cfg.networks:
        raise ConfigError("herd search needs at least one network spec")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    families = _fan_out(partial(_herd_task, cfg), range(len(cfg.networks)), cfg.workers)
    write_csv(out_dir / "herd.csv",
              ["family", "metric", "n", "replicates", "n_h_fraction", "n_h",
               "lambda_target", "n_hs", "n_hs_fraction", "solves", "nonconverged"],
              [row for rows in families for row in rows])
    return {"herd": str(out_dir / "herd.csv")}


# -- SIR intervention comparison -------------------------------------------------------


def _simulate_task(cfg: ExperimentConfig, fi: int) -> list:
    """The mean SirTrajectory of each arm on network family `fi`. Each run's
    graph is drawn once and shared by every arm."""
    sim_seed = seeding.child_seed(cfg.seed, "sim", fi)
    graphs = replicate_graphs(cfg.networks[fi], cfg.sir.runs, sim_seed)
    arms = [ivs for _, ivs in cfg.sir.arms()]
    return [res.mean for res in ensemble(graphs, cfg.sir.params, arms, seed=sim_seed)]


def run_simulate(cfg: ExperimentConfig, out_dir) -> dict:
    if not cfg.networks:
        raise ConfigError("simulation needs at least one network spec")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    paths = {}
    families = _fan_out(partial(_simulate_task, cfg), range(len(cfg.networks)), cfg.workers)
    for spec, trajectories in zip(cfg.networks, families):
        label = _spec_label(spec)
        summary[label] = {}
        for (arm_name, _), tr in zip(cfg.sir.arms(), trajectories):
            fname = out_dir / f"trajectory_{label}_{arm_name}.csv"
            write_csv(fname, ["time", "s", "i", "r", "v"],
                      [[tr.times[j], tr.s[j], tr.i[j], tr.r[j], tr.v[j]]
                       for j in range(tr.times.size)])
            paths[f"{label}:{arm_name}"] = str(fname)
            summary[label][arm_name] = {**asdict(peak_and_final(tr)), "runs": cfg.sir.runs,
                                        "warnings": sorted(set(tr.meta["warnings"]))}
    write_json(out_dir / "sir_summary.json",
               {"seed": cfg.seed, "params": asdict(cfg.sir.params),
                "interventions": [asdict(iv) for iv in cfg.sir.interventions],
                "results": summary})
    paths["summary"] = str(out_dir / "sir_summary.json")
    return paths


# -- real contact data ------------------------------------------------------------------


def _ingest_task(cfg: ExperimentConfig, task: tuple[int, Graph]) -> list[list]:
    """The `contact_daily.csv` rows of one day's graph, one per metric."""
    day, g = task
    k = cfg.ingest.k if cfg.ingest.k is not None else max(1, round(cfg.ingest.k_fraction * g.n))
    k = min(k, g.n)
    seeds = [seeding.child_seed(cfg.seed, "ingest", day, "rand", rep)
             for rep in range(cfg.ingest.replicates)]
    lam_orig, rand_vals, lam_topk = _graph_arms(g, k, seeds, cfg.metrics)
    lam_rand = float(np.mean(rand_vals))
    return [[day, g.n, g.m, k, metric.value, lam_orig, lam, lam_rand]
            for metric, lam in zip(cfg.metrics, lam_topk)]


def run_ingest(cfg: ExperimentConfig, paths: Sequence, out_dir) -> dict:
    if not paths:
        raise ConfigError("ingest needs at least one contact file")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_daily_graphs(paths, columns=cfg.ingest.columns,
                                day_length=cfg.ingest.day_length)
    days = _fan_out(partial(_ingest_task, cfg), list(zip(dataset.days, dataset.graphs)),
                    cfg.workers)
    daily_rows = [row for rows in days for row in rows]
    write_csv(out_dir / "contact_daily.csv",
              ["day", "n", "m", "k", "metric", "lambda_orig", "lambda_topk",
               "lambda_random"],
              daily_rows)
    summary_rows = []
    for metric in cfg.metrics:
        rows = [r for r in daily_rows if r[4] == metric.value]
        summary_rows.append([metric.value, len(dataset.days),
                             *_arm_summary([r[5] for r in rows], [r[6] for r in rows],
                                           [r[7] for r in rows])])
    write_csv(out_dir / "contact_summary.csv",
              ["metric", "days", "lambda_orig_mean", "lambda_orig_std",
               "lambda_topk_mean", "lambda_topk_std", "lambda_random_mean",
               "lambda_random_std", "t_stat", "p_value", "significant"],
              summary_rows)
    if dataset.warnings:
        with open(out_dir / "ingest_warnings.txt", "w", encoding="utf-8") as fh:
            for w in dataset.warnings:
                fh.write(w + "\n")
    return {"daily": str(out_dir / "contact_daily.csv"),
            "summary": str(out_dir / "contact_summary.csv")}


# -- single-shot helpers used by the CLI ---------------------------------------------------


def _out_file(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def run_generate(spec: GenSpec, out_path) -> dict:
    g = generate(spec)
    out_path = _out_file(out_path)
    write_edge_list(g, out_path)
    meta = {"spec": spec.to_dict(), "n": g.n, "m": g.m, "fingerprint": g.fingerprint}
    write_json(str(out_path) + ".meta.json", meta)
    return meta


def run_centrality(g: Graph, metric: Metric, out_path) -> dict:
    """Write `node_id,label,score,rank` rows (label column only when `g` has labels)."""
    scores = compute(g, metric)
    rank = np.empty(g.n, np.int64)
    rank[ranking(scores)] = np.arange(1, g.n + 1)
    labels = () if g.labels is None else (g.labels,)
    write_csv(_out_file(out_path), ["node_id", *(["label"] if labels else []), "score", "rank"],
              zip(range(g.n), *labels, scores.values.tolist(), rank.tolist()))
    return {"metric": metric.value, "nodes": g.n, "out": str(out_path)}


def run_spectral(g: Graph, out_path, beta: Optional[float] = None,
                 delta: Optional[float] = None) -> dict:
    if (beta is None) != (delta is None):
        raise ValueError("the threshold report needs both beta and delta")
    res = lambda_max(g)
    payload: dict = {
        "n": g.n, "m": g.m,
        "lambda_max": res.lambda_max,
        "iterations": res.iterations,
        "residual": res.residual,
        "converged": res.converged,
    }
    if g.m > 0:
        bounds = spectral_bounds_check(g, res.lambda_max)
        payload["bounds"] = {"deg_avg": bounds.deg_avg, "deg_max": bounds.deg_max,
                             "holds": bounds.holds}
    if beta is not None and delta is not None:
        rep = threshold_check(SirRates(beta, delta), res.lambda_max)
        payload["threshold"] = {"ratio": rep.ratio, "inv_lambda": rep.inv_lambda,
                                "contained": rep.contained, "margin": rep.margin}
    write_json(_out_file(out_path), payload)
    return payload
