"""Vaccination target selection and its effect on the adjacency spectrum.

Vaccinating a node is modeled as removing it from the graph along with all
incident edges. Plans select who to remove, eigen-drop reports quantify
how far the dominant eigenvalue falls, and the herd-equivalence search
finds how many targeted removals match a given random-removal baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import seeding
from .centrality import CentralityScores, Metric, compute, ranking, top_k
from .graph import Graph, delete_nodes
from .spectral import SpectralResult, lambda_max


@dataclass(frozen=True)
class VaccinationPlan:
    victims: tuple[int, ...]
    strategy: str                     # "topk:<metric>" or "random"
    metric: Optional[Metric] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if len(set(self.victims)) != len(self.victims):
            raise ValueError("victims must be distinct")

    @property
    def k(self) -> int:
        return len(self.victims)


@dataclass(frozen=True)
class EigenDropReport:
    lambda_before: float
    lambda_after: float
    drop: float
    drop_pct: float
    converged: bool


@dataclass(frozen=True)
class HerdReport:
    metric: Metric
    n: int
    n_h: int                  # size of the random-removal baseline
    n_h_fraction: float
    lambda_target: float      # mean eigenvalue after random removal
    n_hs: int                 # smallest top-k removal matching the target
    n_hs_fraction: float
    replicates: int
    solves: int               # eigenvalue solves made by this metric's search
    nonconverged: int         # solves that hit max_iter, baseline included


def plan_topk(scores: CentralityScores, k: int) -> VaccinationPlan:
    """Select the k highest-ranked nodes of `scores` (see `top_k`)."""
    metric = scores.metric
    return VaccinationPlan(tuple(int(v) for v in top_k(scores, k)), f"topk:{metric.value}", metric)


def plan_random(g: Graph, k: int, seed: int = 0) -> VaccinationPlan:
    """Select k uniformly random distinct nodes."""
    if k < 0 or k > g.n:
        raise ValueError(f"k={k} out of range for {g.n} nodes")
    rng = seeding.rng_from(seed)
    victims = rng.choice(g.n, size=k, replace=False)
    return VaccinationPlan(tuple(int(v) for v in victims), "random", None, seed)


def eigen_drop(g: Graph, plans: Sequence[VaccinationPlan]) -> list[EigenDropReport]:
    """Dominant eigenvalue before and after carrying out each plan.

    The intact graph is solved once and shared by every report, so all of
    them carry the same `lambda_before`; plans removing the same node set
    share one solve of the reduced graph. Node deletion removes a principal
    submatrix, so the eigenvalue can never increase; each drop is reported
    both absolutely and as a percentage of the original value.
    """
    before = lambda_max(g)
    solved: dict[frozenset, SpectralResult] = {}
    reports = []
    for plan in plans:
        victims = frozenset(plan.victims)
        if victims not in solved:
            solved[victims] = lambda_max(delete_nodes(g, plan.victims))
        after = solved[victims]
        drop = before.lambda_max - after.lambda_max
        pct = 100.0 * drop / before.lambda_max if before.lambda_max > 0 else 0.0
        reports.append(EigenDropReport(before.lambda_max, after.lambda_max, drop, pct,
                                       before.converged and after.converged))
    return reports


def herd_equivalent(graphs: Sequence[Graph], metrics: Sequence[Metric],
                    n_h_fraction: float = 0.7, seed: int = 0) -> list[HerdReport]:
    """Smallest targeted removal matching a random-removal baseline, one
    report per metric.

    The baseline removes floor(n * n_h_fraction) random nodes from each
    graph; the target eigenvalue is the ensemble mean after that removal.
    It is solved once and shared by every report. For each metric the
    search then finds the least k such that removing each graph's top k
    nodes (ranked once, on the intact graph) brings the ensemble mean
    eigenvalue to or below the target. Rankings are fixed per graph, so
    larger k removes a superset of nodes and the mean is monotone in k;
    that makes the bracketing search exact, and lets each deletion start
    from a smaller k's subgraph (see `_prefix_deleter`). Each report
    counts its search's solves and the solves, baseline included, that
    hit max_iter.
    """
    if isinstance(metrics, Metric):
        raise TypeError("metrics must be a sequence of Metric, not one Metric")
    if not graphs:
        raise ValueError("need at least one graph")
    if not (0.0 <= n_h_fraction <= 1.0):
        raise ValueError("n_h_fraction must lie in [0, 1]")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs must have the same node count")
    n_h = int(n * n_h_fraction)

    baseline = []
    for i, g in enumerate(graphs):
        plan = plan_random(g, n_h, seed=seeding.child_seed(seed, "baseline", i))
        baseline.append(lambda_max(delete_nodes(g, plan.victims)))
    lambda_target = float(np.mean([res.lambda_max for res in baseline]))

    reports = []
    for metric in metrics:
        deleters = [_prefix_deleter(g, ranking(compute(g, metric))) for g in graphs]
        solved: list[SpectralResult] = []

        def mean_after(k: int) -> float:
            results = [lambda_max(delete_prefix(k)) for delete_prefix in deleters]
            solved.extend(results)
            return float(np.mean([res.lambda_max for res in results]))

        n_hs = _smallest_matching_k(mean_after, n, lambda_target)
        nonconverged = sum(not res.converged for res in baseline + solved)
        reports.append(HerdReport(metric, n, n_h, n_h_fraction, lambda_target,
                                  n_hs, n_hs / n if n else 0.0, len(graphs),
                                  len(solved), nonconverged))
    return reports


def _prefix_deleter(g: Graph, order: np.ndarray) -> Callable[[int], Graph]:
    """`lambda k: delete_nodes(g, order[:k])` for a permutation `order` of
    g's nodes, each deletion made from the subgraph of the largest k' <= k
    asked for before, or from `g`.

    The victims order[k':k] are mapped to that subgraph's ids by their
    rank among its survivors. Both deletions relabel densely in id order,
    so the two compose to the one, CSR and labels alike. Besides `g`,
    only the subgraph used and the new one are kept: in the herd search
    every later k lies above the last k found above the target, which is
    the largest k' <= k, and below every k found at or below it.
    """
    intact = g, np.arange(g.n)
    kept = {0: intact}          # k -> (graph after order[:k], its original ids)

    def delete_prefix(k: int) -> Graph:
        base = max(j for j in kept if j <= k)
        sub, ids = kept[base]
        pos = np.searchsorted(ids, order[base:k])
        out = delete_nodes(sub, pos)
        kept.clear()
        kept.update({0: intact, base: (sub, ids), k: (out, np.delete(ids, pos))})
        return out

    return delete_prefix


def _smallest_matching_k(mean_after: Callable[[int], float], n: int,
                         target: float) -> int:
    """Least k in [0, n] with mean_after(k) <= target, for a mean_after that
    does not increase with k. k = n leaves no node, so its mean is taken as
    0 without a call; no k is evaluated twice.

    Illinois false position (Dowell & Jarratt, BIT 11, 1971) on the excess
    mean_after(k) - target. The answer lies in [lo, hi]: lo - 1 was
    evaluated above the target (or lo = 0) and hi at or below it (or
    hi = n). While lo - 1 is unevaluated a step takes the midpoint;
    afterwards it takes the point where the line between the two ends'
    excesses crosses zero, rounded up into [lo, hi - 1]. When the same end
    moves twice in a row, the other end's stored excess is halved. After
    ceil(log2(n + 1)) evaluations only midpoints are taken, which caps a
    search at twice that many.
    """
    lo, hi = 0, n
    low_excess: Optional[float] = None      # excess at lo - 1, once evaluated
    high_excess = -target                   # excess at hi
    last_below: Optional[bool] = None       # whether the last step moved hi
    evaluations, guard = 0, n.bit_length()        # guard = ceil(log2(n + 1))
    while lo < hi:
        if low_excess is None or evaluations >= guard:
            k = (lo + hi) // 2
        else:
            cross = lo - 1 + (hi - lo + 1) * low_excess / (low_excess - high_excess)
            k = min(max(math.ceil(cross), lo), hi - 1)
        mean = mean_after(k)
        evaluations += 1
        below = mean <= target
        if below:
            hi, high_excess = k, mean - target
            if last_below and low_excess is not None:
                low_excess /= 2
        else:
            lo, low_excess = k + 1, mean - target
            if last_below is False:
                high_excess /= 2
        last_below = below
    return lo
