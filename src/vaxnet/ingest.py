"""Readers for timestamped face-to-face contact lists.

The expected format is one contact per line: `timestamp id_a id_b`,
whitespace separated (tabs in the published datasets), with an optional
two-column variant that omits the timestamp. Repeated contacts between the
same pair collapse to a single edge per day.
"""

from __future__ import annotations

import numbers
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
    the first day is 0).
    """
    days: list[int]
    graphs: list[Graph]
    warnings: list[str] = field(default_factory=list)


# The class of each byte, as a bytes.translate table: 0 anything else, 1 a
# blank, 2 the line end, 3 a digit, 4 a sign. The blanks are the ASCII
# whitespace that both str.split() and np.fromstring skip (not \x1c-\x1f,
# which only split() does).
_BYTE_CLASS = bytes(1 if c in b" \t\x0b\x0c" else 2 if c == ord("\n") else
                    3 if c in b"0123456789" else 4 if c in b"+-" else 0 for c in range(256))


def parse_contacts(path, columns: int = 3) -> ParseResult:
    """Read a contact file; malformed lines are skipped with a warning.

    A line is malformed when it has the wrong field count, a non-integer or
    out-of-int64 field, or equal endpoint ids. Raises ZeroRecordsError when
    nothing valid remains (the first few per-line complaints are included,
    so a wrong `columns` setting is visible with line numbers).

    The file is read as UTF-8, a leading byte-order mark dropped. Lines
    end as in text-mode iteration, at `\\n`, `\\r\\n` or `\\r`. A clean
    line holds only ASCII digits, signs and blanks; it has no tokens or
    `columns` of them, each an optional sign and 1 to 18 digits, so `int`
    and `np.fromstring` read it alike and in the int64 range; and it is no
    self contact. All clean lines are converted by one `np.fromstring`
    call. Each other line (a comment, a `\\x1c` separator, a 19-digit
    field, a malformed record) is judged on its own, and only that judge
    writes warnings. Records keep their line order.
    """
    if columns not in (2, 3):
        raise ValueError("columns must be 2 or 3")
    with open(path, "r", encoding="utf-8-sig") as fh:
        data = fh.read().encode()
    kind = np.frombuffer(data.translate(_BYTE_CLASS), np.int8)
    newline = np.flatnonzero(kind == 2)
    # line i is data[bound[i]:bound[i + 1]], its line end included
    bound = np.concatenate([[0], newline + 1, [kind.size]])
    # where each token starts, and one past where it ends
    in_token = np.concatenate([[False], kind >= 3, [False]])
    starts, ends = np.flatnonzero(in_token[1:] != in_token[:-1]).reshape(-1, 2).T
    tokens = np.diff(np.searchsorted(starts, bound))
    dirty = (tokens != 0) & (tokens != columns)
    # a byte of class 0, a sign that does not start a token, or the start
    # of a token of no digits or of more than 18
    odd = (kind == 0) | (kind == 4)
    odd[starts] = False
    digits = ends - starts - (kind[starts] == 4)
    odd[starts[(digits < 1) | (digits > 18)]] = True
    dirty[np.searchsorted(newline, np.flatnonzero(odd))] = True

    bulk_line = np.flatnonzero((tokens == columns) & ~dirty)
    values = np.empty((0, columns), np.int64)
    if bulk_line.size:  # on a buffer of blanks np.fromstring returns one bogus value
        bulk = data
        if dirty.any():
            bulk = np.where(np.repeat(dirty, np.diff(bound)), np.uint8(32),
                            np.frombuffer(data, np.uint8)).tobytes()
        values = np.fromstring(bulk, np.int64, sep=" ").reshape(-1, columns)
        self_contact = values[:, -2] == values[:, -1]
        if self_contact.any():
            dirty[bulk_line[self_contact]] = True
            values, bulk_line = values[~self_contact], bulk_line[~self_contact]

    judged, judged_line, warnings = [], [], []
    for i in np.flatnonzero(dirty).tolist():
        nums = _judge(data[bound[i]:bound[i + 1]].decode(), i + 1, columns, warnings)
        if nums is not None:
            judged.append(nums)
            judged_line.append(i)
    if judged:
        values = np.concatenate([values, np.array(judged, np.int64)])
        values = values[np.argsort(np.concatenate([bulk_line, judged_line]), kind="stable")]
    if not values.size:
        detail = "; ".join(warnings[:3]) if warnings else "file held no contact lines"
        raise ZeroRecordsError(f"{path}: no valid contact records ({detail})")
    if columns == 2:
        values = np.hstack([np.zeros_like(values[:, :1]), values])
    return ParseResult(values, warnings, str(path))


def _judge(line: str, line_no: int, columns: int, warnings: list[str]) -> Optional[list[int]]:
    """The fields of text line `line_no` as ints, or None for a blank or
    comment line and for a malformed one, which adds a warning."""
    parts = line.split()
    if not parts or parts[0].startswith("#"):
        return None
    if len(parts) != columns:
        warnings.append(f"line {line_no}: expected {columns} fields, got {len(parts)}")
        return None
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        warnings.append(f"line {line_no}: non-integer field")
        return None
    if not all(-2**63 <= x < 2**63 for x in nums):
        warnings.append(f"line {line_no}: field outside the int64 range")
        return None
    if nums[-2] == nums[-1]:
        warnings.append(f"line {line_no}: self contact {nums[-1]}")
        return None
    return nums


def _daily(day: np.ndarray, a: np.ndarray, b: np.ndarray) -> DailyGraphSet:
    """One simple graph per distinct `day` key, in ascending key order.

    Contact i joins external ids a[i] and b[i] on day[i]. Node ids follow
    sorted external-id order per day, so record order does not matter.
    """
    order = np.argsort(day)
    day, a, b = day[order], a[order], b[order]
    keys = sorted_distinct(day)
    bounds = np.append(np.searchsorted(day, keys), day.size).tolist()
    graphs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ids = sorted_distinct(np.concatenate([a[lo:hi], b[lo:hi]]))
        graphs.append(from_arrays(np.searchsorted(ids, a[lo:hi]), np.searchsorted(ids, b[lo:hi]),
                                  n=ids.size, labels=ids.tolist()))
    return DailyGraphSet(keys.tolist(), graphs)


def build_daily_graphs(records, day_length: Optional[int] = SECONDS_PER_DAY) -> DailyGraphSet:
    """Bucket contacts into days and build one simple graph per day.

    `records` are `(timestamp, id_a, id_b)` rows of integers in the int64
    range, as an int array or a list of 3-tuples; anything else (a float,
    a bool, a string, 2**63) raises ValueError. Days are
    `(timestamp - min timestamp) // day_length`, Python ints for any
    integral `day_length` (86400 or 86400.0, not a bool or 1.5, which
    raise ValueError); `day_length=None` puts every record in one bucket
    (useful when each input file already holds exactly one day).
    """
    if day_length is not None:
        day_length = as_integer(day_length, "day_length", ValueError)
        if day_length <= 0:
            raise ValueError("day_length must be positive")
    rows = records
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "i"):
        rows = np.asarray(records, dtype=object)
    if not rows.size:
        raise ZeroRecordsError("no contact records to bucket")
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"records must be (timestamp, id_a, id_b) rows, got shape {rows.shape}")
    if rows.dtype == object:
        bad = [v for v in rows.flat if isinstance(v, bool)
               or not isinstance(v, numbers.Integral) or not -2**63 <= v < 2**63]
        if bad:
            raise ValueError(f"records must hold integers in the int64 range, got {bad[0]!r}")
    rows = rows.astype(np.int64, copy=False)
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
