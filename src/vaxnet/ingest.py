"""Readers for timestamped face-to-face contact lists.

The expected format is one contact per line: `timestamp id_a id_b`,
whitespace separated (tabs in the published datasets), with an optional
two-column variant that omits the timestamp. Repeated contacts between the
same pair collapse to a single edge per day; how often the pair met is kept
as an edge weight in metadata rather than in the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graph import Graph, from_arrays

SECONDS_PER_DAY = 86_400


class ZeroRecordsError(ValueError):
    """No line of the input parsed as a valid contact."""


class ContactRecord(NamedTuple):
    timestamp: int
    id_a: int
    id_b: int


@dataclass
class ParseResult:
    records: list[ContactRecord]
    warnings: list[str]
    path: str


@dataclass
class DailyGraphSet:
    """One graph per observation day, with external-id labels.

    `days` holds the day index of each graph (timestamp // day_length,
    offset so the first day is 0). `id_maps` give external id -> node id
    for each day; `edge_weights` count how many raw contacts each collapsed
    edge represents, keyed by (node_id, node_id) with the smaller id first.
    """
    days: list[int]
    graphs: list[Graph]
    id_maps: list[dict[int, int]]
    edge_weights: list[dict[tuple[int, int], int]]
    warnings: list[str] = field(default_factory=list)


def parse_contacts(path, columns: int = 3) -> ParseResult:
    """Read a contact file; malformed lines are skipped with a warning.

    A line is malformed when it has the wrong field count, a non-integer
    field, or equal endpoint ids. Raises ZeroRecordsError when nothing
    valid remains (the first few per-line complaints are included, so a
    wrong `columns` setting is visible with line numbers).
    """
    if columns not in (2, 3):
        raise ValueError("columns must be 2 or 3")
    records: list[ContactRecord] = []
    warnings: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != columns:
                warnings.append(f"line {line_no}: expected {columns} fields, got {len(parts)}")
                continue
            try:
                nums = [int(p) for p in parts]
            except ValueError:
                warnings.append(f"line {line_no}: non-integer field")
                continue
            if columns == 3:
                ts, a, b = nums
            else:
                ts, (a, b) = 0, nums
            if a == b:
                warnings.append(f"line {line_no}: self contact {a}")
                continue
            records.append(ContactRecord(ts, a, b))
    if not records:
        detail = "; ".join(warnings[:3]) if warnings else "file held no contact lines"
        raise ZeroRecordsError(f"{path}: no valid contact records ({detail})")
    return ParseResult(records, warnings, str(path))


def build_daily_graphs(records: Sequence[ContactRecord],
                       day_length: Optional[int] = SECONDS_PER_DAY,
                       warnings: Optional[list[str]] = None) -> DailyGraphSet:
    """Bucket contacts into days and build one simple graph per day.

    Days are `(timestamp - min timestamp) // day_length`; passing
    `day_length=None` puts every record in a single bucket (useful when
    each input file already holds exactly one day). Node ids are assigned
    per day in sorted external-id order, so the result is independent of
    record order.
    """
    if not records:
        raise ZeroRecordsError("no contact records to bucket")
    ts = np.asarray([r.timestamp for r in records], dtype=np.int64)
    if day_length is None:
        day_idx = np.zeros(ts.size, dtype=np.int64)
    else:
        if day_length <= 0:
            raise ValueError("day_length must be positive")
        day_idx = (ts - ts.min()) // day_length

    by_day: dict[int, list[ContactRecord]] = {}
    for rec, day in zip(records, day_idx.tolist()):
        by_day.setdefault(day, []).append(rec)
    days, graphs, id_maps, weights = [], [], [], []
    for day in sorted(by_day):
        sel = by_day[day]
        ids = sorted({r.id_a for r in sel} | {r.id_b for r in sel})
        id_map = {ext: i for i, ext in enumerate(ids)}
        counts: dict[tuple[int, int], int] = {}
        for rec in sel:
            u, v = id_map[rec.id_a], id_map[rec.id_b]
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
        pairs = np.asarray(list(counts), dtype=np.int64).reshape(-1, 2)
        g = from_arrays(pairs[:, 0], pairs[:, 1], n=len(ids), labels=ids)
        days.append(day)
        graphs.append(g)
        id_maps.append(id_map)
        weights.append(counts)
    return DailyGraphSet(days, graphs, id_maps, weights,
                         list(warnings) if warnings else [])


def load_daily_graphs(paths: Sequence, columns: int = 3,
                      day_length: Optional[int] = None) -> DailyGraphSet:
    """Parse several files, one bucket per file (or by timestamp if asked).

    With the default `day_length=None` each file becomes one day, indexed
    by position; a positive `day_length` instead pools all records and
    buckets them by timestamp.
    """
    results = [parse_contacts(p, columns=columns) for p in paths]
    all_warnings = [f"{res.path}: {w}" for res in results for w in res.warnings]
    if day_length is not None:
        merged = [rec for res in results for rec in res.records]
        return build_daily_graphs(merged, day_length=day_length, warnings=all_warnings)
    days, graphs, id_maps, weights = [], [], [], []
    for file_idx, res in enumerate(results):
        one = build_daily_graphs(res.records, day_length=None)
        days.append(file_idx)
        graphs.append(one.graphs[0])
        id_maps.append(one.id_maps[0])
        weights.append(one.edge_weights[0])
    return DailyGraphSet(days, graphs, id_maps, weights, all_warnings)
