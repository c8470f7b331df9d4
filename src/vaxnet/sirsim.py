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

Delays come from a buffer drawn ahead in chunks and read in order, which
gives the same values as one draw per infection. An infected node of low
degree spreads by a plain Python loop over its neighbors, a high-degree
one by one vectorized filter; both read the same state bytes.

Interventions vaccinate susceptible nodes at a fixed time. Targeted plans
rank nodes on the intact graph once; already infected, recovered, or
vaccinated picks are skipped in favor of the next-ranked node.

Ensembles draw the graph of each run once (`replicate_graphs`), so every
strategy arm of an experiment runs on the same per-run graphs.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Optional, Sequence

import numpy as np

from . import seeding
from .centrality import Metric, compute, ranking
from .generators import GenSpec, as_integer, as_number, generate
from .graph import Graph

S, I, R, V = 0, 1, 2, 3
_RECOVER, _TRANSMIT, _INTERVENE = 0, 1, 2
# An infected node of at most this degree spreads by a Python loop over its
# neighbors, a larger one by one vectorized filter: a numpy call costs more
# than a few neighbors do in Python.
_PY_DEGREE = 16
# Transmission delays drawn per refill of the delay buffer.
_DELAY_CHUNK = 1024


@dataclass(frozen=True)
class SirParams:
    tau: float = 0.4
    recovery_days: float = 14.0
    initial_infected: int = 5
    t_max: float = 30.0
    grid_dt: float = 0.25

    def __post_init__(self):
        for name in ("tau", "recovery_days", "t_max", "grid_dt"):
            object.__setattr__(self, name, as_number(getattr(self, name), name, ValueError))
        if not (self.tau >= 0.0):
            raise ValueError("tau must be non-negative")
        if not (self.recovery_days > 0.0):
            raise ValueError("recovery_days must be positive")
        object.__setattr__(self, "initial_infected",
                           as_integer(self.initial_infected, "initial_infected", ValueError))
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
        object.__setattr__(self, "time", as_number(self.time, "time", ValueError))
        if not (self.time >= 0.0):
            raise ValueError("intervention time must be non-negative")
        object.__setattr__(self, "k", as_integer(self.k, "k", ValueError))
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
    rd, t_max = params.recovery_days, params.t_max
    # None: nothing spreads; 0.0 (tau = inf) still draws, all delays 0.0
    scale = 1.0 / params.tau if params.tau > 0.0 else None
    # Node state and earliest queued transmission per node, as plain buffers
    # for the Python step and numpy views of the same bytes for the vector step.
    state = bytearray(n)
    state_np = np.frombuffer(state, np.uint8)
    pending = array("d", [math.inf]) * n
    pending_np = np.frombuffer(pending, np.float64)
    inf_time = [math.nan] * n
    rec_time = [math.nan] * n
    indptr = g.indptr.tolist()
    indices = g.indices
    warnings: list[str] = []

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    pushes = stale_pops = events = 0
    # the delay buffer, its list copy, and the next unread delay: one is read
    # per susceptible neighbor, in neighbor order
    delays = np.empty(0)
    delay_list: list[float] = []
    used = 0

    def refill(need: int):
        nonlocal delays, delay_list, used
        fresh = rng.exponential(scale, size=max(_DELAY_CHUNK, need))
        delays = np.concatenate([delays[used:], fresh])
        delay_list = delays.tolist()
        used = 0

    def infect(u: int, t: float):
        nonlocal seq, pushes, used
        state[u] = I
        inf_time[u] = t
        heappush(heap, (t + rd, seq, _RECOVER, u))
        seq += 1
        if scale is None:
            return
        a, b = indptr[u], indptr[u + 1]
        if b - a <= _PY_DEGREE:
            if used + b - a > len(delay_list):
                refill(b - a)
            for w in indices[a:b].tolist():
                if state[w] == S:
                    d = delay_list[used]
                    used += 1
                    tw = t + d
                    if d < rd and tw < pending[w]:
                        pending[w] = tw
                        heappush(heap, (tw, seq, _TRANSMIT, w))
                        seq += 1
                        pushes += 1
            return
        nbrs = indices[a:b]
        sus = nbrs[state_np[nbrs] == S]
        if sus.size:
            if used + sus.size > len(delay_list):
                refill(sus.size)
            d = delays[used:used + sus.size]
            used += sus.size
            when = t + d
            keep = (d < rd) & (when < pending_np[sus])
            targets, when = sus[keep], when[keep]
            pending_np[targets] = when
            pushes += targets.size
            for w, tw in zip(targets.tolist(), when.tolist()):
                heappush(heap, (tw, seq, _TRANSMIT, w))
                seq += 1

    # Intervention plans are fixed before the outbreak: rankings come from
    # the intact graph, random orders from dedicated child streams.
    plans: list[np.ndarray] = []
    rank_cache: dict[Metric, np.ndarray] = {}
    for idx, iv in enumerate(interventions):
        if iv.time > t_max:
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
        heappush(heap, (iv.time, seq, _INTERVENE, idx))
        seq += 1

    for u in rng.choice(n, size=params.initial_infected, replace=False).tolist():
        infect(u, 0.0)
    n_s, n_i, n_r, n_v = n - params.initial_infected, params.initial_infected, 0, 0

    # Each grid point takes the counts after the last event at or before it:
    # before an event at t is applied, every point still unsampled below t
    # is sampled (the inf sentinel ends the scan).
    times = _grid(params, interventions)
    points = times.tolist() + [math.inf]
    rows: list[tuple[int, int, int, int]] = []

    while heap:
        t, _, kind, payload = heappop(heap)
        if t > t_max:
            break
        if kind == _TRANSMIT and state[payload] != S:
            stale_pops += 1
            continue
        while points[len(rows)] < t:
            rows.append((n_s, n_i, n_r, n_v))
        if kind == _TRANSMIT:
            n_s -= 1
            n_i += 1
            infect(payload, t)
        elif kind == _RECOVER:
            n_i -= 1
            n_r += 1
            state[payload] = R
            rec_time[payload] = t
        else:
            iv = interventions[payload]
            hit = 0
            for node in plans[payload].tolist():
                if hit == iv.k:
                    break
                if state[node] == S:
                    state[node] = V
                    hit += 1
            n_s -= hit
            n_v += hit
            if hit < iv.k:
                warnings.append(
                    f"intervention {payload} wanted {iv.k} but only {hit} susceptible")
        events += 1

    rows += [(n_s, n_i, n_r, n_v)] * (times.size - len(rows))
    counts = np.asarray(rows, dtype=np.float64)
    meta = {
        "seed": int(seed),
        "warnings": warnings,
        "infection_time": np.array(inf_time),
        "recovery_time": np.array(rec_time),
        # work done: transmissions queued, queued ones found stale, and
        # events applied (recoveries, infections, interventions)
        "pushes": pushes,
        "stale_pops": stale_pops,
        "events": events,
    }
    return SirTrajectory(times, counts[:, S], counts[:, I], counts[:, R], counts[:, V], n,
                         meta)


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
