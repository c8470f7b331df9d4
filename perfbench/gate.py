"""Correctness gate for one workload run's output directory.

An operation is one output record: an eigen-drop replicate row, a herd row,
an SIR arm trajectory or a contact-daily row. Summary values (t-tests,
SIR peaks) are folded into the records they summarise, so a bad summary
fails those records. Each record must satisfy seed-independent invariants
and, for the named seeds, match the reference recorded in `refs/`:
integers, flags and SIR trajectories exactly, other floats within 1e-9
relative. Science warnings in the outputs are never failures. Record
names and labels are derived here, not imported from vaxnet, so the
program under test does not vouch for its own outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Inputs

REFS_DIR = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-9


class OutputError(ValueError):
    """An expected output file is missing or unreadable."""


@dataclass
class GateResult:
    attempted: int
    failures: dict[str, list[str]] = field(default_factory=dict)  # record -> reasons

    @property
    def failed(self) -> int:
        return len(self.failures)


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    except (OSError, csv.Error) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc


def spec_label(spec: dict) -> str:
    """The family label vaxnet writes into its output files."""
    parts = [spec["family"], f"n{spec['n']}"]
    for key, tag in (("p", "p"), ("m", "m"), ("radius", "r")):
        if spec.get(key) is not None:
            parts.append(f"{tag}{spec[key]}")
    return "-".join(parts)


def _arms(sir: dict) -> list[str]:
    return ["none", "random"] + [f"topk_{m}" for m in sir.get("metrics", ["degree"])]


def expected_records(inputs: Inputs) -> list[str]:
    cfg = inputs.config
    if inputs.workload == "eigendrop":
        return [f"{spec_label(s)}/{rep}" for s in cfg["networks"]
                for rep in range(cfg["replicates"])]
    if inputs.workload == "herd":
        return [f"{spec_label(s)}/{m}" for s in cfg["networks"] for m in cfg["metrics"]]
    if inputs.workload == "sir":
        return [f"{spec_label(s)}/{arm}" for s in cfg["networks"] for arm in _arms(cfg["sir"])]
    return [f"{d['day']}/{m}" for d in inputs.contact_days for m in cfg["metrics"]]


# -- extraction: output files -> {record: {field: value}} -------------------------


def _extract_eigendrop(out: Path) -> dict:
    summary = {}
    for row in _read_csv(out / "eigendrop_summary.csv"):
        summary.setdefault(row.pop("family"), {})[row.pop("metric")] = row
    records = {}
    for row in _read_csv(out / "eigendrop_replicates.csv"):
        family = row.pop("family")
        records[f"{family}/{row.pop('replicate')}"] = {**row, "summary": summary.get(family)}
    return records


def _extract_herd(out: Path) -> dict:
    return {f"{row.pop('family')}/{row.pop('metric')}": row
            for row in _read_csv(out / "herd.csv")}


def _extract_sir(out: Path) -> dict:
    try:
        results = json.loads((out / "sir_summary.json").read_text(encoding="utf-8"))["results"]
    except (OSError, ValueError, KeyError) as exc:
        raise OutputError(f"sir_summary.json: {exc}") from exc
    records = {}
    for label, arms in results.items():
        for arm, summ in arms.items():
            path = out / f"trajectory_{label}_{arm}.csv"
            rows = _read_csv(path) if path.exists() else None
            summ = {k: v for k, v in summ.items() if k != "warnings"}
            records[f"{label}/{arm}"] = {
                "summary": summ,
                "trajectory": None if rows is None else
                [[float(r[c]) for c in ("time", "s", "i", "r", "v")] for r in rows]}
    return records


def _extract_contacts(out: Path) -> dict:
    summary = {row.pop("metric"): row for row in _read_csv(out / "contact_summary.csv")}
    records = {}
    for row in _read_csv(out / "contact_daily.csv"):
        metric = row.pop("metric")
        records[f"{row.pop('day')}/{metric}"] = {**row, "summary": summary.get(metric)}
    return records


_EXTRACT = {"eigendrop": _extract_eigendrop, "herd": _extract_herd,
            "sir": _extract_sir, "contacts": _extract_contacts}


def extract(workload: str, out_dir) -> dict:
    """Records of one run, keyed as in `expected_records`."""
    return _EXTRACT[workload](Path(out_dir))


# -- invariants ---------------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _not_above(after, before) -> bool:
    return _finite(after) and _finite(before) and after <= before * (1 + REL_TOL)


def _check_eigendrop(rec: dict, inputs: Inputs, key: str) -> list[str]:
    bad = []
    lam = rec.get("lambda_orig")
    for name in ["lambda_random"] + [f"lambda_topk_{m}" for m in inputs.config["metrics"]]:
        if not _not_above(rec.get(name), lam):
            bad.append(f"{name}={rec.get(name)!r} is not <= lambda_orig={lam!r}")
    if not isinstance(rec.get("summary"), dict):
        bad.append("no summary rows for this family")
    return bad


def _check_herd(rec: dict, inputs: Inputs, key: str) -> list[str]:
    n, n_hs, frac = rec.get("n"), rec.get("n_hs"), rec.get("n_hs_fraction")
    herd = inputs.config["herd"]
    if not (isinstance(n, int) and isinstance(n_hs, int) and n > 0):
        return [f"n={n!r} and n_hs={n_hs!r} must be integers, n positive"]
    bad = []
    if not 0 <= n_hs <= n:
        bad.append(f"n_hs={n_hs} outside [0, {n}]")
    if not (_finite(frac) and abs(frac - n_hs / n) <= REL_TOL * max(1.0, abs(frac))):
        bad.append(f"n_hs_fraction={frac!r} != n_hs/n={n_hs / n!r}")
    if rec.get("n_h") != int(n * herd["fraction"]):
        bad.append(f"n_h={rec.get('n_h')!r} != floor(n * {herd['fraction']})")
    if rec.get("replicates") != herd["replicates"]:
        bad.append(f"replicates={rec.get('replicates')!r} != {herd['replicates']}")
    return bad


def _check_sir(rec: dict, inputs: Inputs, key: str) -> list[str]:
    traj = rec.get("trajectory")
    if not traj:
        return ["trajectory file missing or empty"]
    label = key.rsplit("/", 1)[0]
    n = next(s["n"] for s in inputs.config["networks"] if spec_label(s) == label)
    t_max = float(inputs.config["sir"]["t_max"])
    bad = []
    times = [row[0] for row in traj]
    if times[0] != 0.0 or abs(times[-1] - t_max) > 1e-12 or any(
            b <= a for a, b in zip(times, times[1:])):
        bad.append("grid times must rise strictly from 0 to t_max")
    for t, s, i, r, v in traj:
        if min(s, i, r, v) < 0 or abs(s + i + r + v - n) > REL_TOL * n:
            bad.append(f"s+i+r+v={s + i + r + v!r} != n={n} at t={t!r}")
            break
    if key.endswith("/none") and any(row[4] != 0 for row in traj):
        bad.append("the no-intervention arm vaccinated someone")
    return bad


def _check_contacts(rec: dict, inputs: Inputs, key: str) -> list[str]:
    day = int(key.split("/")[0])
    facts = next((d for d in inputs.contact_days if d["day"] == day), None)
    if facts is None:
        return [f"day {day} is not in the generated log"]
    bad = [f"{name}={rec.get(name)!r} but the log has {facts[name]}"
           for name in ("n", "m") if rec.get(name) != facts[name]]
    lam = rec.get("lambda_orig")
    for name in ("lambda_topk", "lambda_random"):
        if not _not_above(rec.get(name), lam):
            bad.append(f"{name}={rec.get(name)!r} is not <= lambda_orig={lam!r}")
    if not isinstance(rec.get("summary"), dict):
        bad.append("no summary row for this metric")
    return bad


_INVARIANTS = {"eigendrop": _check_eigendrop, "herd": _check_herd,
               "sir": _check_sir, "contacts": _check_contacts}


# -- reference comparison -------------------------------------------------------------


def compare(actual, expected, where: str = "", in_list: bool = False) -> list[str]:
    """Differences between a record and its reference.

    Integers, booleans, strings and every float inside a list (the SIR
    trajectories) must be equal; other floats agree within REL_TOL.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected a mapping, got {actual!r}"]
        out = []
        for k in expected:
            if k not in actual:
                out.append(f"{where}.{k}: missing")
            else:
                out += compare(actual[k], expected[k], f"{where}.{k}", in_list)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} entries"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{where}[{i}]", True)
            if out:
                return out
        return out
    if isinstance(expected, float) and not in_list:
        ok = (isinstance(actual, (int, float)) and not isinstance(actual, bool) and (
            (math.isnan(expected) and math.isnan(actual))
            or abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))))
    elif isinstance(expected, float) and math.isnan(expected):
        ok = isinstance(actual, float) and math.isnan(actual)
    else:
        ok = type(actual) is type(expected) and actual == expected
    return [] if ok else [f"{where}: {actual!r} != reference {expected!r}"]


def reference_path(workload: str, seed: int) -> Path:
    return REFS_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int):
    """Recorded records for a named seed, or None for any other seed."""
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["records"]


def check(inputs: Inputs, out_dir, reference=None, run_ok: bool = True) -> GateResult:
    """Gate every expected record of one run; a run that raised fails them all."""
    expected = expected_records(inputs)
    result = GateResult(attempted=len(expected))
    if not run_ok:
        result.failures = {key: ["the run exited with an error"] for key in expected}
        return result
    try:
        records = extract(inputs.workload, out_dir)
    except (OutputError, KeyError, TypeError, ValueError) as exc:
        result.failures = {key: [str(exc)] for key in expected}
        return result
    for key in expected:
        if key not in records:
            result.failures[key] = ["record missing from the outputs"]
            continue
        bad = _INVARIANTS[inputs.workload](records[key], inputs, key)
        if reference is not None:
            if key in reference:
                bad += compare(records[key], reference[key], key)
            else:
                bad.append("record missing from the reference")
        if bad:
            result.failures[key] = bad
    return result
