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
strategy arm of an experiment runs on the same per-run graphs. With the
same run seed, the arms also share each run's events before the first
intervention of any arm; `ensemble` plays those once per run and continues
a copy of that state per arm.
"""

from __future__ import annotations

import copy
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
        if self.strategy == "random" and self.metric is not None:
            raise ValueError("random intervention takes no metric")


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
    return np.union1d(pts, np.asarray(extra, dtype=np.float64))


class _Run:
    """One realization between events: what `_play` advances.

    `_branch` starts a run and plays it up to the first intervention of a
    set of arms; `simulate` queues one arm's interventions and plays the
    run to the horizon. `ensemble` continues one `fork` per arm.
    """

    __slots__ = ("g", "params", "seed", "until", "indptr", "rng", "state", "pending",
                 "inf_time", "rec_time", "heap", "seq", "counts", "rows", "points",
                 "delays", "delay_list", "used", "pushes", "stale_pops", "events",
                 "interventions", "plans", "ranks", "warnings")

    def fork(self) -> "_Run":
        """A copy that plays on without changing this run. Both keep the
        delay buffer, which a refill replaces and never writes into, and
        the rankings."""
        twin = copy.copy(self)
        twin.rng = copy.deepcopy(self.rng)
        twin.state = self.state[:]
        twin.pending = self.pending[:]
        twin.inf_time = self.inf_time[:]
        twin.rec_time = self.rec_time[:]
        twin.heap = self.heap[:]
        twin.rows = self.rows[:]
        return twin


def _branch(g: Graph, params: SirParams, arms: Sequence[Sequence[Intervention]],
            seed: int) -> _Run:
    """The run of `g` with `seed`, played up to the first intervention of any
    of `arms`. Up to then every arm draws the same delays from the same
    stream and applies the same events, so each can continue this run."""
    n = g.n
    if params.initial_infected > n:
        raise ValueError("initial_infected exceeds node count")
    run = _Run()
    run.g, run.params, run.seed = g, params, seed
    # events at t <= t_max play; a later intervention is skipped
    run.until = min([math.nextafter(params.t_max, math.inf)]
                    + [iv.time for ivs in arms for iv in ivs])
    run.rng = seeding.rng_from(seed, "run")
    run.indptr = g.indptr.tolist()
    # Node state and earliest queued transmission per node, as plain buffers
    # for the Python step (`_play` adds numpy views for the vector step).
    run.state = bytearray(n)
    run.pending = array("d", [math.inf]) * n
    run.inf_time = [math.nan] * n
    run.rec_time = [math.nan] * n
    run.heap, run.rows = [], []
    # grid points below `until` are the same in every arm's grid
    run.points = _grid(params, ()).tolist() + [math.inf]
    run.delays, run.delay_list = np.empty(0), []
    run.seq = run.used = run.pushes = run.stale_pops = run.events = 0
    run.interventions = run.plans = run.warnings = None
    run.ranks = {}
    seeds = run.rng.choice(n, size=params.initial_infected, replace=False).tolist()
    run.counts = (n - len(seeds), len(seeds), 0, 0)
    _play(run, run.until, seeds)
    return run


def _play(run: _Run, stop: float, seeds: Sequence[int] = ()) -> None:
    """Infect `seeds` at t = 0, then apply queued events in (time, push)
    order, up to but not including the first at time `stop` or later."""
    rd = run.params.recovery_days
    # None: nothing spreads; 0.0 (tau = inf) still draws, all delays 0.0
    scale = 1.0 / run.params.tau if run.params.tau > 0.0 else None
    state, pending, heap, rows, points = run.state, run.pending, run.heap, run.rows, run.points
    state_np = np.frombuffer(state, np.uint8)
    pending_np = np.frombuffer(pending, np.float64)
    inf_time, rec_time = run.inf_time, run.rec_time
    indptr, indices, rng = run.indptr, run.g.indices, run.rng
    seq, pushes, stale_pops, events = run.seq, run.pushes, run.stale_pops, run.events
    n_s, n_i, n_r, n_v = run.counts
    # the delay buffer, its list copy, and the next unread delay: one is read
    # per susceptible neighbor, in neighbor order
    delays, delay_list, used = run.delays, run.delay_list, run.used

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

    for u in seeds:
        infect(u, 0.0)

    # Each grid point takes the counts after the last event at or before it:
    # before an event at t is applied, every point still unsampled below t
    # is sampled (the inf sentinel ends the scan).
    while heap and heap[0][0] < stop:
        t, _, kind, payload = heappop(heap)
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
            iv = run.interventions[payload]
            hit = 0
            for node in run.plans[payload].tolist():
                if hit == iv.k:
                    break
                if state[node] == S:
                    state[node] = V
                    hit += 1
            n_s -= hit
            n_v += hit
            if hit < iv.k:
                run.warnings.append(
                    f"intervention {payload} wanted {iv.k} but only {hit} susceptible")
        events += 1

    run.seq, run.pushes, run.stale_pops, run.events = seq, pushes, stale_pops, events
    run.counts = (n_s, n_i, n_r, n_v)
    run.delays, run.delay_list, run.used = delays, delay_list, used


def simulate(g: Graph, params: SirParams, interventions: Sequence[Intervention] = (),
             seed: int = 0, *, branch: Optional[_Run] = None) -> SirTrajectory:
    """One realization; identical inputs produce identical trajectories.

    `ensemble` passes `branch`: this run of `g` with `params` and `seed`,
    played up to a time no later than the first of `interventions`. The
    run continues it in place and ends as it would from scratch.
    """
    if branch is None:
        run = _branch(g, params, [interventions], seed)
    else:
        run = branch
        if run.plans is not None:
            raise ValueError("branch was already continued")
        if run.g is not g and run.g.fingerprint != g.fingerprint:
            raise ValueError("branch was made for another graph")
        if run.seed != seed:
            raise ValueError("branch was made for another seed")
        if run.params != params:
            raise ValueError("branch was made for other SirParams")
        if any(iv.time < run.until for iv in interventions):
            raise ValueError("intervention before the branch time")
    n, t_max = g.n, params.t_max
    # Intervention plans are fixed before the outbreak: rankings come from
    # the intact graph, random orders from dedicated child streams. Their
    # events take seqs below every other, so each pops first at its time.
    run.interventions, run.plans, run.warnings = interventions, [], []
    for idx, iv in enumerate(interventions):
        if iv.time > t_max:
            run.warnings.append(f"intervention {idx} at t={iv.time} beyond horizon; skipped")
            run.plans.append(np.empty(0, np.int64))
            continue
        if iv.strategy == "topk":
            if iv.metric not in run.ranks:
                run.ranks[iv.metric] = ranking(compute(g, iv.metric))
            run.plans.append(run.ranks[iv.metric])
        else:
            order = seeding.rng_from(seed, "intervention", idx).permutation(n)
            run.plans.append(order.astype(np.int64))
        heappush(run.heap, (iv.time, idx - len(interventions), _INTERVENE, idx))

    times = _grid(params, interventions)
    run.points = times.tolist() + [math.inf]
    _play(run, math.nextafter(t_max, math.inf))
    counts = np.asarray(run.rows + [run.counts] * (times.size - len(run.rows)),
                        dtype=np.float64)
    meta = {
        "seed": int(seed),
        "warnings": run.warnings,
        "infection_time": np.array(run.inf_time),
        "recovery_time": np.array(run.rec_time),
        # work done: transmissions queued, queued ones found stale, and
        # events applied (recoveries, infections, interventions)
        "pushes": run.pushes,
        "stale_pops": run.stale_pops,
        "events": run.events,
    }
    return SirTrajectory(times, counts[:, S], counts[:, I], counts[:, R], counts[:, V], n,
                         meta)


def replicate_graphs(spec: GenSpec, runs: int, seed: int = 0) -> list[Graph]:
    """The graph of each of `runs` runs, drawn from `spec` with the child
    seed ("net", run)."""
    return [generate(spec.with_seed(seeding.child_seed(seed, "net", rep)))
            for rep in range(runs)]


def ensemble(graphs: Sequence[Graph], params: SirParams,
             arms: Sequence[Sequence[Intervention]], seed: int = 0) -> list[EnsembleResult]:
    """Per arm of `arms` (each a sequence of interventions), the average of
    one run per graph in `graphs`.

    Pass `[g] * runs` to run on one graph, or `replicate_graphs(spec, runs,
    seed)` for a fresh draw per run. Every arm runs each graph with the same
    seed, so the arms share its events up to the first intervention of any
    of them: they are played once per graph, and each arm continues a copy
    through `simulate(..., branch=)`. The top-k arms of a graph share its
    rankings.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    if not arms:
        raise ValueError("need at least one arm")
    runs: list[list[SirTrajectory]] = [[] for _ in arms]
    for rep, g in enumerate(graphs):
        run_seed = seeding.child_seed(seed, "sir", rep)
        shared = _branch(g, params, arms, run_seed)
        for a, ivs in enumerate(arms):
            # the last arm continues the shared run itself; a fork is
            # dropped as soon as its arm ends
            runs[a].append(simulate(g, params, ivs, seed=run_seed,
                                    branch=shared if a == len(arms) - 1 else shared.fork()))
    return [EnsembleResult(_mean(trajs, seed), trajs) for trajs in runs]


def _mean(trajs: list[SirTrajectory], seed: int) -> SirTrajectory:
    stack = lambda attr: np.mean([getattr(tr, attr) for tr in trajs], axis=0)
    warnings = [w for tr in trajs for w in tr.meta["warnings"]]
    return SirTrajectory(trajs[0].times, stack("s"), stack("i"), stack("r"), stack("v"),
                         trajs[0].n, {"seed": int(seed), "runs": len(trajs),
                                      "warnings": warnings})


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
