"""Immutable undirected simple graphs in compressed sparse row form.

A graph stores `n` nodes (ids 0..n-1), an `indptr` offset array of length
n+1, and a flat `indices` array holding each node's sorted neighbor list.
Every edge appears in both directions. Self loops and parallel edges are
rejected or collapsed at construction, so any Graph instance satisfies the
simple-graph invariants by construction. Mutating operations return new
graphs; the arrays themselves are marked read-only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class EmptyGraphError(ValueError):
    """Raised when an operation needs at least one node or edge."""


@dataclass(frozen=True)
class DegreeStats:
    deg_avg: float
    deg_max: int
    deg_min: int


class Graph:
    __slots__ = ("n", "indptr", "indices", "labels", "_rows", "_degrees", "_segments",
                 "_fingerprint")

    def __init__(self, n: int, indptr, indices, labels: Optional[Sequence] = None):
        n = int(n)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if n < 0:
            raise ValueError("node count must be non-negative")
        if indptr.shape != (n + 1,):
            raise ValueError("indptr must have length n + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbor ids out of range")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must have one entry per node")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.labels = None if labels is None else tuple(labels)
        self._rows = None
        self._degrees = None
        self._segments = None
        self._fingerprint = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            d = np.diff(self.indptr)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    @property
    def entry_rows(self) -> np.ndarray:
        """Row id of every CSR entry, built on first use and cached."""
        if self._rows is None:
            r = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
            r.setflags(write=False)
            self._rows = r
        return self._rows

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return pos < nbrs.size and nbrs[pos] == v

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge list as (u, v) arrays with u < v, lexicographically sorted."""
        rows = self.entry_rows
        keep = rows < self.indices
        return rows[keep], self.indices[keep]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Adjacency-matrix product A @ x without materializing A.

        Sums each non-empty row's neighbor values in place (pairwise, by
        `np.add.reduceat`); `x` must have shape (n,). The non-empty rows and
        their starts are found on the first call and kept.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        out = np.zeros(self.n)
        if self.indices.size == 0:
            return out
        if self._segments is None:
            rows = np.flatnonzero(self.degrees)   # reduceat needs non-empty segments
            starts = self.indptr[rows]
            rows.setflags(write=False)
            starts.setflags(write=False)
            self._segments = rows, starts
        rows, starts = self._segments
        out[rows] = np.add.reduceat(x[self.indices], starts)
        return out

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype)
        A[self.entry_rows, self.indices] = 1.0
        return A

    @property
    def fingerprint(self) -> str:
        """Short stable digest of the topology (labels excluded)."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(np.int64(self.n).tobytes())
            h.update(self.indptr.tobytes())
            h.update(self.indices.tobytes())
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.fingerprint))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- construction ------------------------------------------------------------


def from_arrays(u: np.ndarray, v: np.ndarray, n: Optional[int] = None,
                labels: Optional[Sequence] = None) -> Graph:
    """Build a Graph from parallel endpoint arrays.

    Self loops are dropped; duplicate edges (in either orientation)
    collapse to one.
    """
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    if u.shape != v.shape:
        raise ValueError("endpoint arrays must have equal length")
    if u.size and (min(u.min(), v.min()) < 0):
        raise ValueError("node ids must be non-negative")
    implied = int(max(u.max(), v.max())) + 1 if u.size else 0
    if n is None:
        n = implied
    elif n < 0:
        raise ValueError("node count must be non-negative")
    elif n < implied:
        raise ValueError(f"n={n} too small for node id {implied - 1}")
    n = int(n)
    if n * n > 2**63:
        raise ValueError(f"n={n} too large: entry codes u * n + v overflow int64")

    keep = u != v
    u, v = u[keep], v[keep]
    # Each edge in both directions as a row-major entry code.
    code = sorted_distinct(np.concatenate([u * n + v, v * n + u]))
    rows, cols = np.divmod(code, n)
    return _csr(n, rows, cols, labels)


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """Distinct values of the 1-d integer array `a`, ascending; sorts `a` in place.

    Same result as `np.unique(a)`, which since numpy 2.3 hashes its input
    and then sorts the distinct values: on 200k int64 codes that is more
    than ten times slower than this one sort and adjacent compare.
    """
    a.sort()
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _csr(n: int, rows: np.ndarray, cols: np.ndarray,
         labels: Optional[Sequence]) -> Graph:
    """Graph from entries ordered by row, and by column within each row."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(n, indptr, cols, labels)


def from_edge_list(pairs: Iterable[tuple[int, int]], n: Optional[int] = None,
                   labels: Optional[Sequence] = None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs."""
    arr = np.asarray(list(pairs) or np.empty((0, 2)), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be (u, v) tuples")
    return from_arrays(arr[:, 0], arr[:, 1], n=n, labels=labels)


def delete_nodes(g: Graph, victims) -> Graph:
    """Remove a node set and all incident edges; survivors are re-indexed
    densely in their original order.

    The returned graph's labels record the mapping back: if `g` had labels
    they are carried over for survivors, otherwise the survivor's original
    id becomes its label.
    """
    victims = np.asarray(list(victims) if not isinstance(victims, np.ndarray) else victims,
                         dtype=np.int64).ravel()
    if victims.size and (victims.min() < 0 or victims.max() >= g.n):
        raise ValueError("victim ids out of range")
    keep = np.ones(g.n, dtype=bool)
    keep[victims] = False
    new_id = np.cumsum(keep) - 1
    old_ids = np.flatnonzero(keep).tolist()

    rows = g.entry_rows
    mask = keep[rows] & keep[g.indices]
    new_rows = new_id[rows[mask]]
    new_cols = new_id[g.indices[mask]]
    labels = old_ids if g.labels is None else [g.labels[i] for i in old_ids]
    return _csr(len(old_ids), new_rows, new_cols, labels)


def degree_stats(g: Graph) -> DegreeStats:
    if g.n == 0:
        raise EmptyGraphError("degree statistics need at least one node")
    d = g.degrees
    return DegreeStats(float(d.mean()), int(d.max()), int(d.min()))


# -- plain-text edge list I/O -------------------------------------------------


def write_edge_list(g: Graph, path) -> None:
    """Write a `# nodes N` header, then one `u v` line per edge (u < v), sorted."""
    u, v = g.edges()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {g.n}\n")
        for a, b in zip(u.tolist(), v.tolist()):
            fh.write(f"{a} {b}\n")


def read_edge_list(path) -> Graph:
    """Read the format written by `write_edge_list`.

    Lines starting with `#` are comments; a `# nodes N` header fixes the
    node count so trailing isolated nodes survive a round trip.
    """
    n = n_line = None
    us, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) == 2 and parts[0] == "nodes":
                        n, n_line = int(parts[1]), line_no
                        if n >= 2**63:
                            raise ValueError("node count outside the int64 range")
                elif line:
                    parts = line.split()
                    if len(parts) != 2:
                        raise ValueError("expected two node ids")
                    u, v = int(parts[0]), int(parts[1])
                    if u < 0 or v < 0:
                        raise ValueError("node ids must be non-negative")
                    if max(u, v) >= 2**63:
                        raise ValueError("node id outside the int64 range")
                    us.append(u)
                    vs.append(v)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
    try:
        return from_arrays(np.asarray(us, np.int64), np.asarray(vs, np.int64), n=n)
    except ValueError as exc:
        # With every id checked above, only the node count can be refused:
        # the `# nodes` line's, or without one the count the largest id implies.
        where = f"{path}: line {n_line}" if n_line is not None else str(path)
        raise ValueError(f"{where}: {exc}") from None
