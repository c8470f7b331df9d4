"""Command-line entry point.

Subcommands cover single-shot utilities (generate a graph, score it, report
its spectrum) and the configured batch experiments (eigendrop table, herd
search, SIR simulation, contact-file ingest); each takes only the flags it
reads. Failures, usage errors included, print a one-line JSON error object
to stderr and exit nonzero (2 for a usage error, 1 otherwise) so callers
can script against the tool.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .centrality import Metric
from .experiments import (ConfigError, ExperimentConfig, config_from_dict,
                          load_config, run_centrality, run_eigendrop_table,
                          run_generate, run_herd, run_ingest, run_simulate,
                          run_spectral)
from .generators import FAMILIES, GenSpec
from .graph import read_edge_list


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for `main` to report as JSON instead of exiting."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _add_common(p: argparse.ArgumentParser, needs_config: bool = False,
                config: bool = True, workers: bool = True) -> None:
    if config:
        p.add_argument("--config", type=str, default=None, required=needs_config,
                       help="YAML experiment configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    p.add_argument("--out", type=str, default="out",
                   help="output directory (or file for single-shot commands)")
    if workers:
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes; table1 splits its work by replicate, "
                            "herd and simulate by network family, ingest by day")


def _load_cfg(args) -> ExperimentConfig:
    overrides = {"seed": args.seed, "workers": getattr(args, "workers", None)}
    if args.config is not None:
        return load_config(args.config, overrides=overrides)
    return config_from_dict({k: v for k, v in overrides.items() if v is not None},
                            source="<cli>")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="vaxnet",
        description="Contact-network analysis: centralities, spectral epidemic "
                    "thresholds, vaccination strategies, and SIR simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw one random graph and write its edge list")
    _add_common(p, workers=False)
    p.add_argument("--family", default=None, metavar="FAMILY",
                   help=f"one of {', '.join(FAMILIES)} (short aliases accepted)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--dim", type=int, default=None, help="geometric graph dimension (default 2)")

    p = sub.add_parser("centrality", help="score nodes of an edge-list graph")
    _add_common(p, config=False, workers=False)
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--metric", required=True,
                   help="degree, degree_normalized, closeness, betweenness, eigenvector")

    p = sub.add_parser("spectral", help="dominant eigenvalue and threshold report")
    _add_common(p, config=False, workers=False)
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--beta", type=float, default=None, help="infection rate per contact")
    p.add_argument("--delta", type=float, default=None, help="recovery rate")

    p = sub.add_parser("table1", help="eigenvalue-drop table: top-k vs random removal")
    _add_common(p, needs_config=True)

    p = sub.add_parser("herd", help="targeted removals matching a random baseline")
    _add_common(p, needs_config=True)

    p = sub.add_parser("simulate", help="SIR ensembles under intervention strategies")
    _add_common(p, needs_config=True)

    p = sub.add_parser("ingest", help="daily graphs and eigendrop from contact files")
    _add_common(p)
    p.add_argument("paths", nargs="+", help="contact list files")
    p.add_argument("--columns", type=int, choices=(2, 3), default=None)
    p.add_argument("--k", type=int, default=None, help="removals per day")

    return ap


def _cmd_generate(args) -> dict:
    if args.config is not None:
        given = [f"--{name}" for name in ("family", "n", "p", "m", "radius", "dim")
                 if getattr(args, name) is not None]
        if given:
            raise ConfigError("generate takes --config or graph flags, not both; got "
                              + " ".join(given))
        cfg = _load_cfg(args)
        if not cfg.networks:
            raise ConfigError("config has no networks to generate")
        spec = cfg.networks[0]
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
    else:
        if args.family is None or args.n is None:
            raise ConfigError("generate needs --family and --n (or --config)")
        spec = GenSpec(family=args.family, n=args.n, p=args.p, m=args.m,
                       radius=args.radius, dim=2 if args.dim is None else args.dim,
                       seed=args.seed if args.seed is not None else 0)
    return run_generate(spec, _single_out(
        args, f"{spec.family}_n{spec.n}_seed{spec.seed}.edges"))


def _single_out(args, default_name: str) -> Path:
    out = Path(args.out)
    return out / default_name if out.suffix == "" else out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "generate":
            result = _cmd_generate(args)
        elif args.command == "centrality":
            g = read_edge_list(args.input)
            metric = Metric.from_name(args.metric)
            result = run_centrality(g, metric, _single_out(args, f"centrality_{metric.value}.csv"))
        elif args.command == "spectral":
            g = read_edge_list(args.input)
            result = run_spectral(g, _single_out(args, "spectral.json"),
                                  beta=args.beta, delta=args.delta)
        elif args.command == "table1":
            result = run_eigendrop_table(_load_cfg(args), args.out)
        elif args.command == "herd":
            result = run_herd(_load_cfg(args), args.out)
        elif args.command == "simulate":
            result = run_simulate(_load_cfg(args), args.out)
        else:
            cfg = _load_cfg(args)
            flags = {"columns": args.columns, "k": args.k}
            cfg = replace(cfg, ingest=replace(
                cfg.ingest, **{name: v for name, v in flags.items() if v is not None}))
            result = run_ingest(cfg, args.paths, args.out)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - single reporting point for scripting
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2 if isinstance(exc, argparse.ArgumentError) else 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
