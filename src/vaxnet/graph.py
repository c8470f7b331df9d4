"""Immutable undirected graphs in compressed sparse row form.

A graph stores `n` nodes (ids 0..n-1), an `indptr` offset array of length
n+1, and a flat `indices` array holding each node's sorted neighbor list.
Every edge appears in both directions. `from_arrays` is the checked
constructor: it drops self loops and collapses parallel edges, so its
graphs are simple. `Graph(...)` checks only array shapes and id ranges and
trusts a symmetric, sorted, loop-free CSR (`Graph(3, [0, 1, 1, 1], [0])`
has a self loop and m = 0). Mutating operations return new graphs; the
arrays themselves are marked read-only.
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
    __slots__ = ("n", "indptr", "indices", "labels", "_degrees", "_segments", "_fingerprint")

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
    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The non-empty rows and where each starts in `indices`, found on
        first use and cached: the segments `np.add.reduceat` sums over,
        which must not be empty."""
        if self._segments is None:
            rows = np.flatnonzero(self.degrees)
            starts = self.indptr[rows]
            rows.setflags(write=False)
            starts.setflags(write=False)
            self._segments = rows, starts
        return self._segments

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return pos < nbrs.size and nbrs[pos] == v

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge list as (u, v) arrays with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        keep = rows < self.indices
        return rows[keep], self.indices[keep]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Adjacency-matrix product A @ x without materializing A.

        Sums each non-empty row's neighbor values in place (pairwise, by
        `np.add.reduceat` over `segments`); `x` must have shape (n,). When
        every row is non-empty the row sums are the product; otherwise they
        are scattered into zeros. Either way the result is a new array.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        if self.indices.size == 0:
            return np.zeros(self.n)
        rows, starts = self.segments
        sums = np.add.reduceat(x[self.indices], starts)
        if rows.size == self.n:
            return sums
        out = np.zeros(self.n)
        out[rows] = sums
        return out

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype)
        A[np.repeat(np.arange(self.n), self.degrees), self.indices] = 1.0
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

    Each edge is entered in both directions as a row-major code u * n + v,
    and the distinct codes come out ascending by one of two routes, chosen
    by the input alone. When the n * n code space has no more bytes than
    the code array (n * n <= code.nbytes), one byte per code is marked and
    the marks are read back in order; the mark is never larger than the
    codes it replaces. Otherwise the codes are sorted (`sorted_distinct`).
    Either way, each row starts where the first code at or above its row
    boundary i * n lies, and a column is its code less that boundary.
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
    if not keep.all():
        u, v = u[keep], v[keep]
    code = np.concatenate([u * n + v, v * n + u])
    if n * n <= code.nbytes:
        mark = np.zeros(n * n, dtype=bool)
        mark[code] = True
        code = np.flatnonzero(mark)
    else:
        code = sorted_distinct(code)
    bounds = np.arange(n + 1, dtype=np.int64) * n
    indptr = np.searchsorted(code, bounds)
    code -= np.repeat(bounds[:-1], np.diff(indptr))
    return Graph(n, indptr, code, labels)


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

    An entry is kept when both its row and its column are: the row mask
    repeats each node's flag over its degree, and each row's kept count
    is summed over `g.segments`, so no per-entry row array is built.
    """
    victims = np.asarray(list(victims) if not isinstance(victims, np.ndarray) else victims,
                         dtype=np.int64).ravel()
    if victims.size and (victims.min() < 0 or victims.max() >= g.n):
        raise ValueError("victim ids out of range")
    keep = np.ones(g.n, dtype=bool)
    keep[victims] = False
    new_id = np.cumsum(keep) - 1
    survivors = np.flatnonzero(keep)

    kept = np.repeat(keep, g.degrees)
    kept &= keep.take(g.indices)
    cols = new_id.take(np.compress(kept, g.indices))
    counts = np.zeros(g.n, dtype=np.int64)
    if g.indices.size:
        rows, starts = g.segments
        # int32 sums take a third of the time of int64 ones; no row holds 2**31 entries.
        counts[rows] = np.add.reduceat(kept, starts, dtype=np.int32)
    indptr = np.zeros(survivors.size + 1, dtype=np.int64)
    np.cumsum(counts.take(survivors), out=indptr[1:])
    old_ids = survivors.tolist()
    labels = old_ids if g.labels is None else [g.labels[i] for i in old_ids]
    return Graph(len(old_ids), indptr, cols, labels)


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
    node count so trailing isolated nodes survive a round trip. A leading
    UTF-8 byte-order mark is dropped.
    """
    n = n_line = None
    us, vs = [], []
    with open(path, "r", encoding="utf-8-sig") as fh:
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
