"""Readers for timestamped face-to-face contact lists.

The expected format is one contact per line: `timestamp id_a id_b`,
whitespace separated (tabs in the published datasets), with an optional
two-column variant that omits the timestamp. Repeated contacts between the
same pair collapse to a single edge per day; how often the pair met is kept
as an edge weight in metadata rather than in the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .generators import as_integer
from .graph import Graph, from_arrays, sorted_distinct

SECONDS_PER_DAY = 86_400


class ZeroRecordsError(ValueError):
    """No line of the input parsed as a valid contact."""


@dataclass
class ParseResult:
    """`records` holds one int64 `(timestamp, id_a, id_b)` row per valid line."""
    records: np.ndarray
    warnings: list[str]
    path: str


@dataclass
class DailyGraphSet:
    """One graph per observation day; node i of a graph is external id labels[i].

    `days` holds each graph's day index (timestamp // day_length, offset so
    the first day is 0). `edge_weights` count the raw contacts behind each
    collapsed edge, keyed by (node_id, node_id) with the smaller id first.
    """
    days: list[int]
    graphs: list[Graph]
    edge_weights: list[dict[tuple[int, int], int]]
    warnings: list[str] = field(default_factory=list)


def parse_contacts(path, columns: int = 3) -> ParseResult:
    """Read a contact file; malformed lines are skipped with a warning.

    A line is malformed when it has the wrong field count, a non-integer or
    out-of-int64 field, or equal endpoint ids. Raises ZeroRecordsError when
    nothing valid remains (the first few per-line complaints are included,
    so a wrong `columns` setting is visible with line numbers).
    """
    if columns not in (2, 3):
        raise ValueError("columns must be 2 or 3")
    flat: list[int] = []
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
            if not (-2**63 <= ts < 2**63 and -2**63 <= a < 2**63 and -2**63 <= b < 2**63):
                warnings.append(f"line {line_no}: field outside the int64 range")
                continue
            if a == b:
                warnings.append(f"line {line_no}: self contact {a}")
                continue
            flat += (ts, a, b)
    if not flat:
        detail = "; ".join(warnings[:3]) if warnings else "file held no contact lines"
        raise ZeroRecordsError(f"{path}: no valid contact records ({detail})")
    return ParseResult(np.array(flat, np.int64).reshape(-1, 3), warnings, str(path))


def _daily(day: np.ndarray, a: np.ndarray, b: np.ndarray) -> DailyGraphSet:
    """One simple graph per distinct `day` key, in ascending key order.

    Contact i joins external ids a[i] and b[i] on day[i]. Node ids follow
    sorted external-id order per day, so record order does not matter.
    """
    order = np.argsort(day)
    day, a, b = day[order], np.minimum(a, b)[order], np.maximum(a, b)[order]
    keys = sorted_distinct(day)
    bounds = np.append(np.searchsorted(day, keys), day.size).tolist()
    graphs, weights = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ids = sorted_distinct(np.concatenate([a[lo:hi], b[lo:hi]]))
        code = np.searchsorted(ids, a[lo:hi]) * ids.size + np.searchsorted(ids, b[lo:hi])
        pairs = sorted_distinct(code)
        count = np.diff(np.append(np.searchsorted(code, pairs), code.size))
        rows, cols = np.divmod(pairs, ids.size)
        graphs.append(from_arrays(rows, cols, n=ids.size, labels=ids.tolist()))
        weights.append(dict(zip(zip(rows.tolist(), cols.tolist()), count.tolist())))
    return DailyGraphSet(keys.tolist(), graphs, weights)


def build_daily_graphs(records, day_length: Optional[int] = SECONDS_PER_DAY) -> DailyGraphSet:
    """Bucket contacts into days and build one simple graph per day.

    `records` are int64 `(timestamp, id_a, id_b)` rows, as an array or a
    list of 3-tuples. Days are `(timestamp - min timestamp) // day_length`,
    Python ints for any integral `day_length` (86400 or 86400.0, not a
    bool or 1.5, which raise ValueError); `day_length=None` puts every
    record in one bucket (useful when each input file already holds
    exactly one day).
    """
    if day_length is not None:
        day_length = as_integer(day_length, "day_length", ValueError)
        if day_length <= 0:
            raise ValueError("day_length must be positive")
    rows = np.asarray(records, np.int64)
    if not rows.size:
        raise ZeroRecordsError("no contact records to bucket")
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"records must be (timestamp, id_a, id_b) rows, got shape {rows.shape}")
    ts, a, b = rows.T
    if day_length is None or day_length >= 2**64:
        # every uint64 offset is below 2**64, so all records fall on day 0
        day = np.zeros_like(ts)
    else:
        # the offset from the first record, exact as uint64 even where the
        # int64 difference wraps (a log spanning more than 2**63)
        day = (ts - ts.min()).view(np.uint64) // day_length
    return _daily(day, a, b)


def load_daily_graphs(paths: Sequence, columns: int = 3,
                      day_length: Optional[int] = None) -> DailyGraphSet:
    """Parse several files, one bucket per file (or by timestamp if asked).

    With the default `day_length=None` each file becomes one day, indexed
    by position; a positive `day_length` instead pools all records and
    buckets them by timestamp.
    """
    results = [parse_contacts(p, columns=columns) for p in paths]
    if not results:
        raise ZeroRecordsError("no contact files to load")
    records = np.concatenate([res.records for res in results])
    if day_length is None:
        file_of = np.repeat(np.arange(len(results)), [len(r.records) for r in results])
        dataset = _daily(file_of, records[:, 1], records[:, 2])
    else:
        dataset = build_daily_graphs(records, day_length=day_length)
    dataset.warnings = [f"{res.path}: {w}" for res in results for w in res.warnings]
    return dataset
