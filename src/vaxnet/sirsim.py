"""Stochastic continuous-time SIR on a contact graph, with mid-run vaccination.

Transmission along an S-I edge is exponential with rate `tau` per day;
infected nodes recover deterministically `recovery_days` after infection.
The simulation is event-driven: at each infection, first-arrival
transmission delays are drawn for all currently susceptible neighbors.
Each susceptible node keeps only its earliest pending transmission in the
event queue (the `fast_SIR` bookkeeping of Kiss, Miller & Simon,
*Mathematics of Epidemics on Networks*, 2017): a delay enters the queue
only if it falls inside the infectious window and beats the target's
current earliest time. A later transmission could only fire after that
one, when the target is no longer susceptible, so dropping it changes no
trajectory while the random stream stays the same. A queued transmission
still fires only if its target is susceptible when its time comes, since
vaccination can cancel it.

Interventions vaccinate susceptible nodes at a fixed time. Targeted plans
rank nodes on the intact graph once; already infected, recovered, or
vaccinated picks are skipped in favor of the next-ranked node.

Ensembles draw the graph of each run once (`replicate_graphs`), so every
strategy arm of an experiment runs on the same per-run graphs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import seeding
from .centrality import Metric, compute, ranking
from .generators import GenSpec, generate
from .graph import Graph

S, I, R, V = 0, 1, 2, 3
_RECOVER, _TRANSMIT, _INTERVENE = 0, 1, 2


@dataclass(frozen=True)
class SirParams:
    tau: float = 0.4
    recovery_days: float = 14.0
    initial_infected: int = 5
    t_max: float = 30.0
    grid_dt: float = 0.25

    def __post_init__(self):
        if not (self.tau >= 0.0):
            raise ValueError("tau must be non-negative")
        if not (self.recovery_days > 0.0):
            raise ValueError("recovery_days must be positive")
        if self.initial_infected < 1:
            raise ValueError("initial_infected must be at least 1")
        if not (0.0 < self.t_max < math.inf):
            raise ValueError("t_max must be positive and finite")
        if not (0.0 < self.grid_dt < math.inf):
            raise ValueError("grid_dt must be positive and finite")


@dataclass(frozen=True)
class Intervention:
    time: float
    strategy: str                     # "topk" or "random"
    k: int
    metric: Optional[Metric] = None

    def __post_init__(self):
        if not (self.time >= 0.0):
            raise ValueError("intervention time must be non-negative")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.strategy not in ("topk", "random"):
            raise ValueError("strategy must be 'topk' or 'random'")
        if isinstance(self.metric, str):
            object.__setattr__(self, "metric", Metric.from_name(self.metric))
        if self.strategy == "topk" and self.metric is None:
            raise ValueError("topk intervention needs a metric")


@dataclass
class SirTrajectory:
    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    v: np.ndarray
    n: int
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SirSummary:
    peak_infected: float
    peak_time: float
    attack_rate: float        # recovered share at the horizon
    final_s: float
    final_i: float
    final_r: float
    final_v: float


@dataclass
class EnsembleResult:
    mean: SirTrajectory
    runs: list[SirTrajectory]


def _grid(params: SirParams, interventions: Sequence[Intervention]) -> np.ndarray:
    steps = int(np.floor(params.t_max / params.grid_dt + 1e-9))
    pts = np.arange(steps + 1, dtype=np.float64) * params.grid_dt
    if pts[-1] < params.t_max - 1e-12:
        pts = np.append(pts, params.t_max)
    extra = [iv.time for iv in interventions if 0.0 <= iv.time <= params.t_max]
    if extra:
        pts = np.union1d(pts, np.asarray(extra, dtype=np.float64))
    return pts


def simulate(g: Graph, params: SirParams, interventions: Sequence[Intervention] = (),
             seed: int = 0) -> SirTrajectory:
    """One realization; identical inputs produce identical trajectories."""
    n = g.n
    if params.initial_infected > n:
        raise ValueError("initial_infected exceeds node count")
    rng = seeding.rng_from(seed, "run")
    state = np.zeros(n, dtype=np.uint8)
    inf_time = np.full(n, np.nan)
    rec_time = np.full(n, np.nan)
    warnings: list[str] = []

    counts = [n, 0, 0, 0]
    ev_times: list[float] = []
    ev_counts: list[tuple[int, int, int, int]] = []

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    pending = np.full(n, np.inf)    # earliest queued transmission per node
    pushes = stale_pops = events = 0

    def push(t: float, kind: int, payload: int):
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    def log(t: float):
        ev_times.append(t)
        ev_counts.append(tuple(counts))

    def infect(u: int, t: float):
        nonlocal pushes
        counts[state[u]] -= 1
        state[u] = I
        counts[I] += 1
        inf_time[u] = t
        push(t + params.recovery_days, _RECOVER, u)
        if params.tau > 0.0:
            nbrs = g.neighbors(u)
            sus = nbrs[state[nbrs] == S]
            if sus.size:
                delays = rng.exponential(1.0 / params.tau, size=sus.size)
                when = t + delays
                keep = (delays < params.recovery_days) & (when < pending[sus])
                targets, when = sus[keep], when[keep]
                pending[targets] = when
                pushes += targets.size
                for w, tw in zip(targets.tolist(), when.tolist()):
                    push(tw, _TRANSMIT, w)

    # Intervention plans are fixed before the outbreak: rankings come from
    # the intact graph, random orders from dedicated child streams.
    plans: list[np.ndarray] = []
    rank_cache: dict[Metric, np.ndarray] = {}
    for idx, iv in enumerate(interventions):
        if iv.time > params.t_max:
            warnings.append(f"intervention {idx} at t={iv.time} beyond horizon; skipped")
            plans.append(np.empty(0, np.int64))
            continue
        if iv.strategy == "topk":
            if iv.metric not in rank_cache:
                rank_cache[iv.metric] = ranking(compute(g, iv.metric))
            plans.append(rank_cache[iv.metric])
        else:
            order = seeding.rng_from(seed, "intervention", idx).permutation(n)
            plans.append(order.astype(np.int64))
        push(iv.time, _INTERVENE, idx)

    initial = rng.choice(n, size=params.initial_infected, replace=False)
    for u in initial.tolist():
        infect(u, 0.0)
    log(0.0)

    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if t > params.t_max:
            break
        if kind == _RECOVER:
            counts[I] -= 1
            state[payload] = R
            counts[R] += 1
            rec_time[payload] = t
        elif kind == _TRANSMIT:
            if state[payload] != S:
                stale_pops += 1
                continue
            infect(payload, t)
        else:
            iv = interventions[payload]
            order = plans[payload]
            hit = 0
            for node in order.tolist():
                if hit == iv.k:
                    break
                if state[node] == S:
                    counts[S] -= 1
                    state[node] = V
                    counts[V] += 1
                    hit += 1
            if hit < iv.k:
                warnings.append(
                    f"intervention {payload} wanted {iv.k} but only {hit} susceptible")
        events += 1
        log(t)

    grid = _grid(params, interventions)
    pos = np.searchsorted(np.asarray(ev_times), grid, side="right") - 1
    pos = np.clip(pos, 0, len(ev_times) - 1)
    rows = np.asarray(ev_counts, dtype=np.float64)[pos]
    meta = {
        "seed": int(seed),
        "warnings": warnings,
        "infection_time": inf_time,
        "recovery_time": rec_time,
        # work done: transmissions queued, queued ones found stale, and
        # events applied (recoveries, infections, interventions)
        "pushes": pushes,
        "stale_pops": stale_pops,
        "events": events,
    }
    return SirTrajectory(grid, rows[:, S], rows[:, I], rows[:, R], rows[:, V], n, meta)


def replicate_graphs(spec: GenSpec, runs: int, seed: int = 0) -> list[Graph]:
    """The graph of each of `runs` runs, drawn from `spec` with the child
    seed ("net", run)."""
    return [generate(spec.with_seed(seeding.child_seed(seed, "net", rep)))
            for rep in range(runs)]


def ensemble(graphs: Sequence[Graph], params: SirParams,
             interventions: Sequence[Intervention] = (), seed: int = 0) -> EnsembleResult:
    """Average of one independent run per graph in `graphs`.

    Pass `[g] * runs` to run on one graph, or `replicate_graphs(spec, runs,
    seed)` for a fresh draw per run. Arms that pass the same list share each
    run's graph instead of redrawing it.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    trajs = [simulate(g, params, interventions, seed=seeding.child_seed(seed, "sir", rep))
             for rep, g in enumerate(graphs)]
    times = trajs[0].times
    stack = lambda attr: np.mean([getattr(tr, attr) for tr in trajs], axis=0)
    warnings = [w for tr in trajs for w in tr.meta["warnings"]]
    mean = SirTrajectory(times, stack("s"), stack("i"), stack("r"), stack("v"),
                         trajs[0].n, {"seed": int(seed), "runs": len(trajs),
                                      "warnings": warnings})
    return EnsembleResult(mean, trajs)


def peak_and_final(traj: SirTrajectory) -> SirSummary:
    peak_idx = int(np.argmax(traj.i))
    return SirSummary(
        peak_infected=float(traj.i[peak_idx]),
        peak_time=float(traj.times[peak_idx]),
        attack_rate=float(traj.r[-1]) / traj.n if traj.n else 0.0,
        final_s=float(traj.s[-1]),
        final_i=float(traj.i[-1]),
        final_r=float(traj.r[-1]),
        final_v=float(traj.v[-1]),
    )
