"""Node importance measures: degree, closeness, betweenness, eigenvector.

Scores are plain float arrays indexed by node id. Every ranking produced
here breaks ties by lower node id, so orderings are total and reproducible
across runs and platforms.

Betweenness and closeness share one forward BFS per size regime, which
yields distances and shortest-path counts together; closeness reads the
distances and betweenness back-propagates dependencies over them (Brandes
accumulation). `compute_many` runs that sweep once when both are asked
for. Graphs up to a few thousand nodes run the BFS from every source at
once, one level per step; larger graphs, where that needs too much
memory, sweep each source over the CSR arrays. Each forward step of the
all-sources BFS is a dense matrix product on dense graphs, and on sparse
ones (2m below 1% of n^2) a gather and sum of the frontier's rows at each
node's neighbors, which skips the product's work on zeros. Path counts
are integers, so both kernels give the same bits while the counts stay
below 2^53. The dense sweep's peak holds five float64 n x n arrays and
one int32: the adjacency, distances, path counts, dependencies, and a
level's coefficients and their product, about 44 n^2 bytes (107 MiB at
n = 1600). Eigenvector scores are the dominant eigenvector from
`spectral.lambda_max`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .graph import EmptyGraphError, Graph, sorted_distinct
from .spectral import lambda_max

# Graphs up to this many nodes use the dense all-sources BFS; above it its
# n x n arrays take too much memory.
_DENSE_LIMIT = 2048
# The all-sources BFS steps by row gathers on graphs with 2m below this
# share of n^2, and by dense matrix products above it.
_GATHER_DENSITY = 0.01


class NonConvergenceError(RuntimeError):
    """Power iteration ran out of iterations before reaching tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class Metric(str, Enum):
    DEGREE = "degree"
    DEGREE_NORMALIZED = "degree_normalized"
    CLOSENESS = "closeness"
    BETWEENNESS = "betweenness"
    EIGENVECTOR = "eigenvector"

    @classmethod
    def from_name(cls, name: str) -> "Metric":
        key = name.strip().lower().replace("-", "_")
        aliases = {
            "degree": cls.DEGREE,
            "dc": cls.DEGREE,
            "degree_normalized": cls.DEGREE_NORMALIZED,
            "closeness": cls.CLOSENESS,
            "cc": cls.CLOSENESS,
            "betweenness": cls.BETWEENNESS,
            "bc": cls.BETWEENNESS,
            "eigenvector": cls.EIGENVECTOR,
            "ec": cls.EIGENVECTOR,
        }
        if key not in aliases:
            raise ValueError(f"unknown centrality metric {name!r}")
        return aliases[key]


@dataclass(frozen=True)
class CentralityScores:
    metric: Metric
    values: np.ndarray
    graph_fingerprint: str

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _scores(g: Graph, metric: Metric, values: np.ndarray) -> CentralityScores:
    return CentralityScores(metric, values, g.fingerprint)


# -- degree ---------------------------------------------------------------------


def degree_centrality(g: Graph, normalized: bool = False) -> CentralityScores:
    vals = g.degrees.astype(np.float64)
    if normalized:
        vals = vals / (g.n - 1) if g.n > 1 else np.zeros(g.n)
        return _scores(g, Metric.DEGREE_NORMALIZED, vals)
    return _scores(g, Metric.DEGREE, vals)


# -- BFS kernels ------------------------------------------------------------------


def _expand(g: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All CSR entries leaving `frontier`, as (source, target) arrays."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    base = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    pos = np.arange(total, dtype=np.int64) + base
    return np.repeat(frontier, counts), g.indices[pos]


def _bfs_dense(g: Graph) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray, int]:
    """BFS from every source at once, one level per step.

    Returns the adjacency matrix (None if the kernel did not need it),
    distances (int32, -1 for unreachable), shortest-path counts sigma[s, v]
    and the deepest level reached. Row s of the frontier matrix F holds the
    path counts of the nodes at the current level from s, so one step both
    finds the next level and counts the paths into it. Level 1 is the
    adjacency itself, which is exactly what eye(n) @ A gives. The loop ends
    on an empty level, or as soon as no pair is left unreached, when the
    next level would be empty.

    Dense graphs step by the product F @ A. Sparse ones, with 2m below
    `_GATHER_DENSITY` n^2, build no adjacency matrix: row j of the next
    step is the sum of F's rows at j's neighbors, which is column j of
    F @ A because F is symmetric. The kept entries of both are sums of
    integer path counts, exact in any order while they stay below 2^53, so
    the two kernels give the same bits; only the masked entries, which are
    zeroed, may differ.

    n x n arrays held at the peak, during a step: dist (int32), sigma, the
    frontier and the next one, and A for the product. A level's masks take
    one byte per entry and are freed before the step.
    """
    n = g.n
    gather = 2 * g.m < _GATHER_DENSITY * n * n
    F = g.to_dense()
    A = None if gather else F.copy()
    if gather:
        nxt = np.empty_like(F)
        neighbors = np.split(g.indices, g.indptr[1:-1])
    dist = np.full((n, n), -1, np.int32)
    np.fill_diagonal(dist, 0)
    sigma = np.eye(n)
    unreached = n * n - n
    depth = 0
    while True:
        # Counts into pairs already reached are not a frontier; the rest
        # are non-negative, so every kept entry is > 0 or exactly +0.0.
        np.copyto(F, 0.0, where=dist >= 0)
        new = F > 0
        found = np.count_nonzero(new)
        if found == 0:
            break
        depth += 1
        np.copyto(dist, depth, where=new)
        del new
        sigma += F
        unreached -= found
        if unreached == 0:
            break
        if gather:
            for nbrs, row in zip(neighbors, nxt):
                F.take(nbrs, axis=0).sum(axis=0, out=row)
            F, nxt = nxt, F
        else:
            F = F @ A
    return A, dist, sigma, depth


def _bfs_from(g: Graph, s: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """BFS from one source over the CSR arrays.

    Returns distances (-1 for unreachable), shortest-path counts and the
    nodes of each level, level 0 being [s].
    """
    n = g.n
    dist = np.full(n, -1, np.int64)
    dist[s] = 0
    sigma = np.zeros(n)
    sigma[s] = 1.0
    levels = [np.array([s], dtype=np.int64)]
    while True:
        d = len(levels) - 1
        src, tgt = _expand(g, levels[-1])
        fresh = sorted_distinct(tgt[dist[tgt] == -1])
        if fresh.size == 0:
            return dist, sigma, levels
        dist[fresh] = d + 1
        step = dist[tgt] == d + 1
        sigma += np.bincount(tgt[step], weights=sigma[src[step]], minlength=n)
        levels.append(fresh)


# -- closeness and betweenness -----------------------------------------------------


def _backward_dense(A: np.ndarray, dist: np.ndarray, sigma: np.ndarray,
                    depth: int) -> np.ndarray:
    """Betweenness by back-propagating dependencies over `_bfs_dense`.

    Each level applies its masks with full-array arithmetic in place,
    `np.copyto(..., where=)` and a masked add, not with gathers and
    scatters: every entry that counts gets the same IEEE operations either
    way, so the result is the same to the bit. n x n arrays held at the
    peak, during a product: A, dist (int32), sigma, delta, the
    coefficients and the product. Each is freed before the next level's
    is made; a mask takes one byte per entry and lives for one call.
    """
    n = len(dist)
    delta = np.zeros((n, n))
    # Level 1 would only feed each source's own delta, which does not count.
    for lvl in range(depth, 1, -1):
        coef = delta + 1.0
        # Unreached pairs have sigma 0; their quotients are masked out next.
        with np.errstate(divide="ignore"):
            coef /= sigma
        np.copyto(coef, 0.0, where=dist != lvl)
        T = coef @ A
        del coef
        T *= sigma
        np.add(delta, T, out=delta, where=dist == lvl - 1)
        del T
    return delta.sum(axis=0) / 2.0


def _sweep_dense(g: Graph, closeness: bool, betweenness: bool
                 ) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Closeness sums and betweenness, each only if asked, from one
    all-sources BFS.

    Returns per-source reach and total distance, and the betweenness
    scores; None stands for what was not asked for. The closeness sums are
    taken after the backward pass has freed its n x n temporaries, so they
    add nothing to its peak memory.
    """
    A, dist, sigma, depth = _bfs_dense(g)
    bc = None
    if betweenness:
        bc = _backward_dense(g.to_dense() if A is None else A, dist, sigma, depth)
    reach = totals = None
    if closeness:
        reach = (dist > 0).sum(axis=1).astype(np.float64)
        totals = np.where(dist > 0, dist, 0).sum(axis=1).astype(np.float64)
    return reach, totals, bc


def _sweep_sparse(g: Graph, closeness: bool, betweenness: bool
                  ) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """As `_sweep_dense`, with one CSR BFS per source feeding both metrics."""
    n = g.n
    reach = np.zeros(n) if closeness else None
    totals = np.zeros(n) if closeness else None
    bc = np.zeros(n)
    deg = g.degrees
    for s in range(n):
        # An isolated source reaches nobody and feeds no dependency.
        if deg[s] == 0:
            continue
        dist, sigma, levels = _bfs_from(g, s)
        if closeness:
            hit = dist > 0
            reach[s] = hit.sum()
            totals[s] = dist[hit].sum()
        if not betweenness:
            continue
        delta = np.zeros(n)
        # Level 1 would only feed delta[s], which does not count.
        for lvl in range(len(levels) - 1, 1, -1):
            src, tgt = _expand(g, levels[lvl])
            back = dist[tgt] == lvl - 1
            contrib = (1.0 + delta[src[back]]) * sigma[tgt[back]] / sigma[src[back]]
            delta += np.bincount(tgt[back], weights=contrib, minlength=n)
        bc += delta
    return reach, totals, (bc / 2.0 if betweenness else None)


def _path_values(g: Graph, closeness: bool, betweenness: bool
                 ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Closeness and betweenness values of `g`, None where not asked for,
    from one shortest-path sweep."""
    n = g.n
    if closeness and n < 2:
        raise ValueError("closeness needs at least 2 nodes")
    if g.m == 0:
        reach = totals = np.zeros(n)
        bc = np.zeros(n) if betweenness else None
    else:
        sweep = _sweep_dense if n <= _DENSE_LIMIT else _sweep_sparse
        reach, totals, bc = sweep(g, closeness, betweenness)
    cc = None
    if closeness:
        cc = np.zeros(n)
        pos = totals > 0
        cc[pos] = (reach[pos] / totals[pos]) * (reach[pos] / (n - 1))
    return cc, bc


def closeness_centrality(g: Graph) -> CentralityScores:
    """Harmonic-free closeness with a component-size correction.

    For node v reaching r_v other nodes at total distance D_v:
    C(v) = (r_v / D_v) * (r_v / (n - 1)). The second factor scales scores
    of small components down so they do not dominate the ranking. Isolated
    nodes score 0.
    """
    return _scores(g, Metric.CLOSENESS, _path_values(g, True, False)[0])


def betweenness_centrality(g: Graph, normalized: bool = False) -> CentralityScores:
    """Shortest-path betweenness: share of geodesics passing through a node.

    Path counts are accumulated as floats, which is exact for the counts
    arising at these graph sizes. Unordered pair contributions are halved
    once at the end. The normalized variant divides by (n-1)(n-2)/2.
    """
    bc = _path_values(g, False, True)[1]
    if normalized:
        pairs = (g.n - 1) * (g.n - 2) / 2.0
        bc = bc / pairs if pairs > 0 else np.zeros(g.n)
    return _scores(g, Metric.BETWEENNESS, bc)


# -- eigenvector ------------------------------------------------------------------


def eigenvector_centrality(g: Graph, tol: float = 1e-10,
                           max_iter: int = 10_000) -> CentralityScores:
    """Dominant-eigenvector scores: the iterate `spectral.lambda_max` stops on.

    The solver's identity shift keeps the iteration from oscillating on
    bipartite graphs. Scores are non-negative and L2-normalized. On
    disconnected graphs mass concentrates on the spectrally dominant
    component(s). Convergence is the solver's residual rule,
    ||A x - lambda x||_inf / max(1, lambda) < tol.
    """
    if g.n == 0 or g.m == 0:
        raise EmptyGraphError("eigenvector centrality needs at least one edge")
    res = lambda_max(g, tol=tol, max_iter=max_iter)
    if not res.converged:
        raise NonConvergenceError(res.iterations, res.residual)
    return _scores(g, Metric.EIGENVECTOR, res.vector)


# -- dispatch and ranking ------------------------------------------------------------


def compute_many(g: Graph, metrics) -> dict[Metric, CentralityScores]:
    """Scores of `g` under each of `metrics`, keyed by metric.

    Closeness and betweenness asked for together share one shortest-path
    sweep; every other metric is scored on its own.
    """
    metrics = tuple(metrics)
    out: dict[Metric, CentralityScores] = {}
    for metric in metrics:
        if metric in out:
            continue
        if metric in (Metric.DEGREE, Metric.DEGREE_NORMALIZED):
            out[metric] = degree_centrality(g, normalized=metric is Metric.DEGREE_NORMALIZED)
        elif metric in (Metric.CLOSENESS, Metric.BETWEENNESS):
            cc, bc = _path_values(g, Metric.CLOSENESS in metrics,
                                  Metric.BETWEENNESS in metrics)
            for m, vals in ((Metric.CLOSENESS, cc), (Metric.BETWEENNESS, bc)):
                if vals is not None:
                    out[m] = _scores(g, m, vals)
        elif metric is Metric.EIGENVECTOR:
            out[metric] = eigenvector_centrality(g)
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return out


def compute(g: Graph, metric: Metric) -> CentralityScores:
    return compute_many(g, (metric,))[metric]


def ranking(scores: CentralityScores) -> np.ndarray:
    """All node ids ordered by descending score, ties by lower id."""
    vals = scores.values
    return np.lexsort((np.arange(vals.size), -vals))


def top_k(scores: CentralityScores, k: int) -> np.ndarray:
    """The k best-scoring node ids (descending score, ties by lower id)."""
    if k < 0 or k > scores.values.size:
        raise ValueError(f"k={k} out of range for {scores.values.size} nodes")
    return ranking(scores)[:k]


def write_scores_csv(scores: CentralityScores, path, labels=None) -> None:
    """CSV rows `node_id,label,score,rank` (label column only when given)."""
    vals = scores.values
    order = ranking(scores)
    rank = np.empty(vals.size, dtype=np.int64)
    rank[order] = np.arange(1, vals.size + 1)
    with open(path, "w", encoding="utf-8") as fh:
        if labels is None:
            fh.write("node_id,score,rank\n")
            for i in range(vals.size):
                fh.write(f"{i},{float(vals[i])!r},{rank[i]}\n")
        else:
            fh.write("node_id,label,score,rank\n")
            for i in range(vals.size):
                fh.write(f"{i},{labels[i]},{float(vals[i])!r},{rank[i]}\n")
