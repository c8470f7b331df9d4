"""Vaccination target selection and its effect on the adjacency spectrum.

Vaccinating a node is modeled as removing it from the graph along with all
incident edges. Plans select who to remove, eigen-drop reports quantify
how far the dominant eigenvalue falls, and the herd-equivalence search
finds how many targeted removals match a given random-removal baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def plan_topk(g: Graph, metric: Metric, k: int,
              scores: Optional[CentralityScores] = None) -> VaccinationPlan:
    """Select the k highest-ranked nodes under `metric` on the intact graph."""
    if k < 0 or k > g.n:
        raise ValueError(f"k={k} out of range for {g.n} nodes")
    if scores is None:
        scores = compute(g, metric)
    elif scores.graph_fingerprint != g.fingerprint:
        raise ValueError("scores were computed on a different graph")
    victims = top_k(scores, k)
    return VaccinationPlan(tuple(int(v) for v in victims), f"topk:{metric.value}", metric)


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
    that makes bisection exact.
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

    targets = []
    for i, g in enumerate(graphs):
        plan = plan_random(g, n_h, seed=seeding.child_seed(seed, "baseline", i))
        targets.append(lambda_max(delete_nodes(g, plan.victims)).lambda_max)
    lambda_target = float(np.mean(targets))

    reports = []
    for metric in metrics:
        orders = [ranking(compute(g, metric)) for g in graphs]
        n_hs = _smallest_matching_k(graphs, orders, lambda_target)
        reports.append(HerdReport(metric, n, n_h, n_h_fraction, lambda_target,
                                  n_hs, n_hs / n if n else 0.0, len(graphs)))
    return reports


def _smallest_matching_k(graphs: Sequence[Graph], orders: Sequence[np.ndarray],
                         lambda_target: float) -> int:
    """Least k for which removing each graph's first k nodes of its order
    brings the ensemble mean eigenvalue to or below `lambda_target`."""
    cache: dict[int, float] = {}

    def mean_after(k: int) -> float:
        if k not in cache:
            vals = [lambda_max(delete_nodes(g, order[:k])).lambda_max
                    for g, order in zip(graphs, orders)]
            cache[k] = float(np.mean(vals))
        return cache[k]

    lo, hi = 0, graphs[0].n
    while lo < hi:
        mid = (lo + hi) // 2
        if mean_after(mid) <= lambda_target:
            hi = mid
        else:
            lo = mid + 1
    return lo
