"""Node importance measures: degree, closeness, betweenness, eigenvector.

Scores are plain float arrays indexed by node id. Every ranking produced
here breaks ties by lower node id, so orderings are total and reproducible
across runs and platforms.

Betweenness and closeness share one forward BFS per size regime, which
yields distances and shortest-path counts together; closeness reads the
distances and betweenness back-propagates dependencies over them (Brandes
accumulation). Graphs up to a few thousand nodes run the BFS from every
source at once as dense matrix products; larger graphs, where that needs
too much memory, sweep each source over the CSR arrays. Eigenvector scores
are the dominant eigenvector from `spectral.lambda_max`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import EmptyGraphError, Graph
from .spectral import lambda_max

# Graphs up to this many nodes use the dense all-sources BFS; above it its
# n x n arrays take too much memory.
_DENSE_LIMIT = 2048


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


def _bfs_dense(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """BFS from every source at once as dense matrix products.

    Returns the adjacency matrix, distances (int32, -1 for unreachable),
    shortest-path counts sigma[s, v] and the deepest level reached. Row s
    of the frontier matrix holds the path counts of the nodes at the
    current level from s, so one product both finds the next level and
    counts the paths into it.
    """
    n = g.n
    A = g.to_dense()
    dist = np.full((n, n), -1, np.int32)
    np.fill_diagonal(dist, 0)
    sigma = np.eye(n)
    F = np.eye(n)
    depth = 0
    while True:
        W = F @ A
        new = (W > 0) & (dist < 0)
        if not new.any():
            return A, dist, sigma, depth
        depth += 1
        dist[new] = depth
        F = np.where(new, W, 0.0)
        sigma += F


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
        fresh = np.unique(tgt[dist[tgt] == -1])
        if fresh.size == 0:
            return dist, sigma, levels
        dist[fresh] = d + 1
        step = dist[tgt] == d + 1
        sigma += np.bincount(tgt[step], weights=sigma[src[step]], minlength=n)
        levels.append(fresh)


# -- closeness --------------------------------------------------------------------


def closeness_centrality(g: Graph) -> CentralityScores:
    """Harmonic-free closeness with a component-size correction.

    For node v reaching r_v other nodes at total distance D_v:
    C(v) = (r_v / D_v) * (r_v / (n - 1)). The second factor scales scores
    of small components down so they do not dominate the ranking. Isolated
    nodes score 0.
    """
    n = g.n
    if n < 2:
        raise ValueError("closeness needs at least 2 nodes")
    vals = np.zeros(n)
    if g.m == 0:
        return _scores(g, Metric.CLOSENESS, vals)
    if n <= _DENSE_LIMIT:
        dist = _bfs_dense(g)[1]
        reach = (dist > 0).sum(axis=1).astype(np.float64)
        totals = np.where(dist > 0, dist, 0).sum(axis=1).astype(np.float64)
    else:
        reach = np.zeros(n)
        totals = np.zeros(n)
        for s in range(n):
            dist = _bfs_from(g, s)[0]
            hit = dist > 0
            reach[s] = hit.sum()
            totals[s] = dist[hit].sum()
    pos = totals > 0
    vals[pos] = (reach[pos] / totals[pos]) * (reach[pos] / (n - 1))
    return _scores(g, Metric.CLOSENESS, vals)


# -- betweenness ------------------------------------------------------------------


def _betweenness_dense(g: Graph) -> np.ndarray:
    A, dist, sigma, depth = _bfs_dense(g)
    n = g.n
    delta = np.zeros((n, n))
    # Level 1 would only feed each source's own delta, which does not count.
    for lvl in range(depth, 1, -1):
        on_l = dist == lvl
        coef = np.zeros((n, n))
        coef[on_l] = (1.0 + delta[on_l]) / sigma[on_l]
        T = coef @ A
        T *= sigma
        on_prev = dist == lvl - 1
        delta[on_prev] += T[on_prev]
    return delta.sum(axis=0) / 2.0


def _betweenness_sparse(g: Graph) -> np.ndarray:
    n = g.n
    bc = np.zeros(n)
    deg = g.degrees
    for s in range(n):
        if deg[s] == 0:
            continue
        dist, sigma, levels = _bfs_from(g, s)
        delta = np.zeros(n)
        # Level 1 would only feed delta[s], which does not count.
        for lvl in range(len(levels) - 1, 1, -1):
            src, tgt = _expand(g, levels[lvl])
            back = dist[tgt] == lvl - 1
            contrib = (1.0 + delta[src[back]]) * sigma[tgt[back]] / sigma[src[back]]
            delta += np.bincount(tgt[back], weights=contrib, minlength=n)
        bc += delta
    return bc / 2.0


def betweenness_centrality(g: Graph, normalized: bool = False) -> CentralityScores:
    """Shortest-path betweenness: share of geodesics passing through a node.

    Path counts are accumulated as floats, which is exact for the counts
    arising at these graph sizes. Unordered pair contributions are halved
    once at the end. The normalized variant divides by (n-1)(n-2)/2.
    """
    if g.n <= _DENSE_LIMIT:
        bc = _betweenness_dense(g) if g.m else np.zeros(g.n)
    else:
        bc = _betweenness_sparse(g)
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


def compute(g: Graph, metric: Metric) -> CentralityScores:
    if metric in (Metric.DEGREE, Metric.DEGREE_NORMALIZED):
        return degree_centrality(g, normalized=metric is Metric.DEGREE_NORMALIZED)
    if metric is Metric.CLOSENESS:
        return closeness_centrality(g)
    if metric is Metric.BETWEENNESS:
        return betweenness_centrality(g)
    if metric is Metric.EIGENVECTOR:
        return eigenvector_centrality(g)
    raise ValueError(f"unknown metric {metric!r}")


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
