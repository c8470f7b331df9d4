"""SIR against implementation-independent references.

Two oracles: a push-everything event loop (`oracles.reference_simulate`)
that `simulate` must match bit for bit, and the exact bond-percolation law
of the final size that seeded runs must match within sampling error.
"""

import dataclasses
import math

import numpy as np
import pytest

from vaxnet import (GenSpec, Intervention, Metric, SirParams, ensemble, from_edge_list,
                    gen_barabasi_albert, gen_duplication_divergence, gen_erdos_renyi,
                    generate, replicate_graphs, seeding, simulate)
from vaxnet.experiments import config_from_dict
from vaxnet.graph import Graph
from vaxnet.sirsim import _DELAY_CHUNK, _PY_DEGREE, _branch

import oracles


def complete_graph(n):
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return from_edge_list([(0, i) for i in range(1, leaves + 1)])


GRAPHS = {
    "k12": lambda: complete_graph(12),
    "star30": lambda: star_graph(30),
    "dd80": lambda: gen_duplication_divergence(80, 0.4, seed=31),
    "er60": lambda: gen_erdos_renyi(60, 0.3, seed=32),
    "ba80": lambda: gen_barabasi_albert(80, 3, seed=33),
}

INTERVENTIONS = {
    "none": (),
    "random": (Intervention(2.0, "random", 8),),
    "topk_at_zero": (Intervention(0.0, "topk", 5, Metric.DEGREE),),
    "beyond_horizon": (Intervention(1.5, "topk", 4, Metric.BETWEENNESS),
                       Intervention(99.0, "random", 3)),
    # closeness and betweenness ranked from one shared sweep
    "path_metrics": (Intervention(1.0, "topk", 4, Metric.CLOSENESS),
                     Intervention(3.0, "topk", 3, Metric.BETWEENNESS),
                     Intervention(4.0, "topk", 2, Metric.CLOSENESS),
                     Intervention(99.0, "topk", 2, Metric.EIGENVECTOR)),
}

PARAMS = {
    "default": SirParams(tau=0.4, recovery_days=14.0, initial_infected=3, t_max=20.0),
    "fast_short": SirParams(tau=1.5, recovery_days=2.0, initial_infected=2, t_max=15.0,
                            grid_dt=0.1),
    "tau_zero": SirParams(tau=0.0, recovery_days=5.0, initial_infected=4, t_max=12.0),
}


def assert_same_run(got, ref):
    for attr in ("times", "s", "i", "r", "v"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr
    for key in ("infection_time", "recovery_time"):
        assert np.array_equal(got.meta[key], ref.meta[key], equal_nan=True), key
    assert got.meta["warnings"] == ref.meta["warnings"]
    assert got.meta["events"] == ref.meta["events"]
    assert got.meta["pushes"] <= ref.meta["pushes"]
    assert got.meta["stale_pops"] <= ref.meta["stale_pops"]


# -- bit identity with the push-everything loop ----------------------------------------


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("plan", sorted(INTERVENTIONS))
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_simulate_matches_reference_loop_bit_for_bit(graph, plan, params):
    g = GRAPHS[graph]()
    for seed in (0, 1, 2):
        got = simulate(g, PARAMS[params], INTERVENTIONS[plan], seed=seed)
        ref = oracles.reference_simulate(g, PARAMS[params], INTERVENTIONS[plan], seed=seed)
        assert_same_run(got, ref)


# High-degree graphs kept out of the full grid above to bound its run time.
HIGH_DEGREE_GRAPHS = {
    "star150": lambda: star_graph(150),
    "er200_dense": lambda: gen_erdos_renyi(200, 0.5, seed=34),
}


@pytest.mark.parametrize("graph", sorted(HIGH_DEGREE_GRAPHS))
@pytest.mark.parametrize("plan", ["none", "random", "topk_at_zero"])
def test_simulate_matches_reference_loop_on_high_degree_graphs(graph, plan):
    g = HIGH_DEGREE_GRAPHS[graph]()
    assert g.degrees.max() >= 100
    for seed in (0, 1, 2):
        got = simulate(g, PARAMS["default"], INTERVENTIONS[plan], seed=seed)
        ref = oracles.reference_simulate(g, PARAMS["default"], INTERVENTIONS[plan], seed=seed)
        assert_same_run(got, ref)


# Hubs and low-degree nodes in one graph: single runs take both spreading
# steps and refill the delay buffer several times.
MIXED_DEGREE_GRAPHS = {
    "ba2000": lambda: gen_barabasi_albert(2000, 3, seed=35),
    "dd3000": lambda: gen_duplication_divergence(3000, 0.4, seed=36),
}


@pytest.mark.parametrize("graph", sorted(MIXED_DEGREE_GRAPHS))
@pytest.mark.parametrize("plan", ["none", "random", "topk_at_zero"])
def test_simulate_matches_reference_loop_on_mixed_degree_graphs(graph, plan):
    g = MIXED_DEGREE_GRAPHS[graph]()
    for seed in (0, 1):
        got = simulate(g, PARAMS["default"], INTERVENTIONS[plan], seed=seed)
        ref = oracles.reference_simulate(g, PARAMS["default"], INTERVENTIONS[plan], seed=seed)
        assert_same_run(got, ref)


class RecordingRng:
    """A generator that logs the size of every exponential draw."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def exponential(self, scale, size):
        self._log.append(size)
        return self._rng.exponential(scale, size=size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class InfectionLog:
    """Just enough of a graph for the reference loop, logging each infection."""

    def __init__(self, g, log):
        self.n, self._g, self._log = g.n, g, log

    def neighbors(self, u):
        self._log.append(("infect", int(self._g.degrees[u])))
        return self._g.neighbors(u)


def recorded_run_stream(monkeypatch, log):
    real = seeding.rng_from
    monkeypatch.setattr(seeding, "rng_from", lambda seed, *path: (
        RecordingRng(real(seed, *path), log) if path == ("run",) else real(seed, *path)))


@pytest.mark.parametrize("graph", sorted(MIXED_DEGREE_GRAPHS))
def test_mixed_degree_runs_take_both_steps_and_refill_inside_a_hub_draw(monkeypatch, graph):
    g = MIXED_DEGREE_GRAPHS[graph]()
    params = PARAMS["default"]
    # per infection of the reference loop: the node's degree and its draw
    ref_log, sim_log = [], []
    recorded_run_stream(monkeypatch, ref_log)
    ref = oracles.reference_simulate(InfectionLog(g, ref_log), params, seed=0)
    recorded_run_stream(monkeypatch, sim_log)
    assert_same_run(simulate(g, params, seed=0), ref)
    steps = []
    for entry in ref_log:
        if isinstance(entry, tuple):
            steps.append([entry[1], 0])
        else:
            steps[-1][1] = entry
    # `simulate` refills when its unread delays do not cover a step's need:
    # the degree in the Python step, the susceptible count in the vector step
    unread, refills = 0, []
    for degree, drawn in steps:
        need = degree if degree <= _PY_DEGREE else drawn
        if need > unread:
            refills.append((degree, max(_DELAY_CHUNK, need)))
            unread += max(_DELAY_CHUNK, need)
        unread -= drawn
    assert sim_log == [size for _, size in refills]
    assert any(d <= _PY_DEGREE and k for d, k in steps)
    assert any(d > _PY_DEGREE and k for d, k in steps)
    assert len(refills) >= 4
    assert any(degree > _PY_DEGREE for degree, _ in refills[1:])


@pytest.mark.parametrize("graph", ["dd80", "ba80", "k12"])
def test_events_on_grid_points_match_reference_loop(graph):
    # seeds recover at exactly t = 2.0, a grid point and the time of the
    # second intervention; the first intervention lands on t = 0
    g = GRAPHS[graph]()
    params = SirParams(tau=0.8, recovery_days=2.0, initial_infected=3, t_max=8.0,
                       grid_dt=0.25)
    ivs = (Intervention(0.0, "random", 4), Intervention(2.0, "topk", 3, Metric.DEGREE))
    for seed in (0, 1, 2):
        got = simulate(g, params, ivs, seed=seed)
        assert_same_run(got, oracles.reference_simulate(g, params, ivs, seed=seed))
        assert 0.0 in got.times and 2.0 in got.times
        assert np.count_nonzero(got.meta["recovery_time"] == 2.0) == 3
        assert got.v[0] == 4


# `vaxnet simulate`'s benchmark config at seed 1: ER(1000, 0.4) and
# DD(10000, 0.4), one run per arm.
SIR_WORKLOAD = {
    "seed": 1,
    "networks": [{"family": "erdos_renyi", "n": 1000, "p": 0.4},
                 {"family": "duplication_divergence", "n": 10000, "p": 0.4}],
    "sir": {"tau": 0.4, "recovery_days": 14, "t_max": 30, "runs": 1,
            "metrics": ["degree"], "interventions": [{"time": 2.0, "k": 100}]},
}

SIR_WORKLOAD_COUNTERS = {      # (pushes, stale_pops, events)
    ("erdos_renyi", "none"): (5508, 4513, 1995),
    ("erdos_renyi", "random"): (5508, 4513, 1996),
    ("erdos_renyi", "topk_degree"): (5508, 4513, 1996),
    ("duplication_divergence", "none"): (16744, 6756, 19981),
    ("duplication_divergence", "random"): (16722, 6849, 19752),
    ("duplication_divergence", "topk_degree"): (16470, 6741, 19424),
}


def test_sir_workload_counters_pinned():
    cfg = config_from_dict(SIR_WORKLOAD)
    got = {}
    for fi, spec in enumerate(cfg.networks):
        sim_seed = seeding.child_seed(cfg.seed, "sim", fi)
        g, = replicate_graphs(spec, 1, sim_seed)
        for arm, ivs in cfg.sir.arms():
            tr = simulate(g, cfg.sir.params, ivs, seed=seeding.child_seed(sim_seed, "sir", 0))
            got[spec.family, arm] = tuple(tr.meta[k] for k in ("pushes", "stale_pops", "events"))
    assert got == SIR_WORKLOAD_COUNTERS


def test_infinite_tau_matches_reference_loop():
    # every delay is 0.0, so each outbreak sweeps its component at t = 0
    g = GRAPHS["dd80"]()
    params = SirParams(tau=math.inf, recovery_days=2.0, initial_infected=2, t_max=5.0)
    for seed in (0, 1):
        got = simulate(g, params, seed=seed)
        assert_same_run(got, oracles.reference_simulate(g, params, seed=seed))
        assert got.r[-1] == g.n


def test_reference_warnings_are_exercised():
    # the grid above must reach both warning paths, or their comparison is empty
    g = star_graph(30)
    params = SirParams(tau=0.0, initial_infected=4, t_max=10.0)
    ivs = (Intervention(1.0, "random", 40), Intervention(50.0, "random", 1))
    got = simulate(g, params, ivs, seed=3)
    assert_same_run(got, oracles.reference_simulate(g, params, ivs, seed=3))
    assert len(got.meta["warnings"]) == 2


# -- work counters ------------------------------------------------------------------------


def test_dense_graph_queues_strictly_fewer_transmissions():
    g = gen_erdos_renyi(200, 0.3, seed=16)
    params = SirParams(tau=0.4, t_max=30.0)
    got = simulate(g, params, seed=17)
    ref = oracles.reference_simulate(g, params, seed=17)
    assert_same_run(got, ref)
    assert got.meta["pushes"] < ref.meta["pushes"]
    assert got.meta["stale_pops"] < ref.meta["stale_pops"]


def test_counters_balance_when_the_queue_drains():
    # with a horizon past every event, each queued transmission either
    # infects its target or pops stale, and every event is accounted for
    g = gen_duplication_divergence(120, 0.4, seed=40)
    params = SirParams(tau=0.6, recovery_days=4.0, initial_infected=3, t_max=1000.0)
    ivs = (Intervention(3.0, "topk", 10, Metric.DEGREE),)
    for seed in range(5):
        tr = simulate(g, params, ivs, seed=seed)
        infected = int((~np.isnan(tr.meta["infection_time"])).sum())
        by_transmission = infected - params.initial_infected
        assert tr.meta["pushes"] == tr.meta["stale_pops"] + by_transmission
        assert tr.meta["events"] == by_transmission + infected + len(ivs)


# -- shared per-replicate draws and the shared prefix ---------------------------------------


def test_shared_draws_equal_per_arm_redraws():
    spec = GenSpec("erdos_renyi", 70, p=0.15)
    params = SirParams(t_max=10.0)
    arms = [(Intervention(2.0, "topk", 6, Metric.DEGREE),), ()]
    graphs = replicate_graphs(spec, 3, seed=5)
    for rep, g in enumerate(graphs):
        drawn = generate(spec.with_seed(seeding.child_seed(5, "net", rep)))
        assert g.fingerprint == drawn.fingerprint
    shared = ensemble(graphs, params, arms, seed=5)
    redrawn = ensemble(replicate_graphs(spec, 3, seed=5), params, arms, seed=5)
    assert len(shared) == len(redrawn) == len(arms)
    for one, other in zip(shared, redrawn):
        for a, b in zip(one.runs + [one.mean], other.runs + [other.mean]):
            for attr in ("times", "s", "i", "r", "v"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr))


def test_ensemble_needs_at_least_one_graph():
    with pytest.raises(ValueError, match="at least one graph"):
        ensemble([], SirParams(initial_infected=1), [()])
    with pytest.raises(ValueError, match="at least one arm"):
        ensemble([complete_graph(4)], SirParams(initial_infected=1), [])


def random_iv(time, k=6):
    return Intervention(time, "random", k)


def degree_iv(time, k=6):
    return Intervention(time, "topk", k, Metric.DEGREE)


SHORT = SirParams(tau=0.8, recovery_days=3.0, initial_infected=3, t_max=12.0)

# name: (graph, params, arms). The arms of one case share each run's events
# before the earliest intervention of any of them.
BRANCH_CASES = {
    "no_intervention": ("dd80", SHORT, [(), (random_iv(2.0),)]),
    "first_times_differ": ("ba80", SHORT, [(random_iv(3.0),), (degree_iv(1.0),),
                                           (random_iv(2.0), degree_iv(4.0))]),
    "at_zero": ("er60", SHORT, [(random_iv(0.0),), (degree_iv(2.0),), ()]),
    "two_at_one_time": ("dd80", SHORT, [(random_iv(2.0), degree_iv(2.0)), (degree_iv(2.0),)]),
    "off_grid": ("ba80", SHORT, [(random_iv(1.3),), (degree_iv(2.7, 4),)]),
    "beyond_horizon": ("dd80", SHORT, [(random_iv(99.0),), (degree_iv(12.0), random_iv(40.0))]),
    "only_beyond_horizon": ("er60", SHORT, [(random_iv(99.0),), ()]),
    # every outbreak is over by t = 2, long before the first intervention
    "dies_before_branch": ("dd80", SirParams(tau=0.05, recovery_days=0.5, initial_infected=2,
                                             t_max=12.0),
                           [(random_iv(6.0),), (degree_iv(8.0),)]),
    "tau_zero": ("star30", PARAMS["tau_zero"], [(random_iv(1.0, 4),), (degree_iv(2.0, 3),)]),
    "tau_inf": ("dd80", SirParams(tau=math.inf, recovery_days=2.0, initial_infected=2,
                                  t_max=5.0),
                [(random_iv(1.0),), (degree_iv(0.5),), ()]),
    # transmissions queued at t = 0 tie with the intervention, which pops first
    "tau_inf_at_zero": ("dd80", SirParams(tau=math.inf, recovery_days=2.0, initial_infected=2,
                                          t_max=5.0),
                        [(random_iv(0.0, 30),), (degree_iv(0.0, 10),)]),
    # about 4000 delays drawn, nearly all after the branch: several refills
    "refills_after_branch": ("er400", SirParams(tau=0.15, recovery_days=4.0,
                                                initial_infected=2, t_max=20.0),
                             [(random_iv(1.0, 20),), (degree_iv(1.5, 20),), ()]),
}


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_ensemble_arms_equal_solo_runs(case):
    graph, params, arms = BRANCH_CASES[case]
    g = gen_erdos_renyi(400, 0.05, seed=34) if graph == "er400" else GRAPHS[graph]()
    results = ensemble([g] * 3, params, arms, seed=7)
    assert len(results) == len(arms)
    for ivs, res in zip(arms, results):
        solo = [simulate(g, params, ivs, seed=seeding.child_seed(7, "sir", rep))
                for rep in range(3)]
        for got, want in zip(res.runs, solo):
            for attr in ("times", "s", "i", "r", "v"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
            for key in ("infection_time", "recovery_time"):
                assert np.array_equal(got.meta[key], want.meta[key], equal_nan=True), key
            for key in ("warnings", "pushes", "stale_pops", "events", "seed"):
                assert got.meta[key] == want.meta[key], key
            assert_same_run(got, oracles.reference_simulate(g, params, ivs,
                                                            seed=got.meta["seed"]))
        for attr in ("s", "i", "r", "v"):
            assert np.array_equal(getattr(res.mean, attr),
                                  np.mean([getattr(tr, attr) for tr in solo], axis=0))
    if case == "dies_before_branch":
        ended = [tr.meta["recovery_time"] for res in results for tr in res.runs]
        assert max(np.nanmax(t) for t in ended) < 6.0


def test_branch_stops_before_the_first_intervention():
    g = GRAPHS["dd80"]()
    run = _branch(g, SHORT, [(random_iv(3.0),), (degree_iv(1.5),)], seed=4)
    assert run.until == 1.5
    assert run.heap and all(t >= 1.5 for t, *_ in run.heap)
    assert run.events > 0
    assert len(run.rows) == 6          # grid points 0.0 .. 1.25
    # no arm intervenes by the horizon: the whole run is shared
    run = _branch(g, SHORT, [(), (random_iv(99.0),)], seed=4)
    assert run.until > SHORT.t_max
    assert all(t > SHORT.t_max for t, *_ in run.heap)


IVS = (random_iv(2.0),)

# name: (changes to simulate's keyword arguments, refusal). The branch is
# made for dd80, SHORT, seed 5 and IVS.
BRANCH_MISUSES = {
    "graph": ({"g": "ba80"}, "another graph"),
    "seed": ({"seed": 6}, "another seed"),
    "params": ({"params": dataclasses.replace(SHORT, tau=0.9)}, "other SirParams"),
    "early_intervention": ({"interventions": (degree_iv(1.0),)}, "before the branch time"),
}


@pytest.mark.parametrize("misuse", sorted(BRANCH_MISUSES))
def test_simulate_refuses_a_branch_made_for_other_inputs(misuse):
    g = GRAPHS["dd80"]()
    change, message = BRANCH_MISUSES[misuse]
    call = {"g": g, "params": SHORT, "interventions": IVS, "seed": 5, **change}
    if isinstance(call["g"], str):
        call["g"] = GRAPHS[call["g"]]()
    assert call["g"].n == g.n
    with pytest.raises(ValueError, match=message):
        simulate(**call, branch=_branch(g, SHORT, [IVS], seed=5))


def test_simulate_refuses_a_branch_continued_twice():
    g = GRAPHS["dd80"]()
    run = _branch(g, SHORT, [IVS], seed=5)
    simulate(g, SHORT, IVS, seed=5, branch=run)
    with pytest.raises(ValueError, match="already continued"):
        simulate(g, SHORT, IVS, seed=5, branch=run)


def test_branch_accepts_an_equal_graph_object():
    g = GRAPHS["dd80"]()
    twin = Graph(g.n, g.indptr.copy(), g.indices.copy())
    got = simulate(twin, SHORT, IVS, seed=5, branch=_branch(g, SHORT, [IVS], seed=5))
    assert_same_run(got, simulate(g, SHORT, IVS, seed=5))


# -- exact final-size law by bond percolation --------------------------------------------------

# Per-size bound on |z| = |count - N p| / sqrt(N p (1 - p)). With N = 4000
# runs and at most 7 sizes, a correct simulator exceeds 4.5 with
# probability under 5e-5 per case.
Z_BOUND = 4.5
RUNS = 4000

PERCOLATION_CASES = {
    # 6 nodes, 8 edges: two triangles joined by a 4-cycle
    "six_eight": (6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)],
                  0.5, 2.0),
    # 5 nodes, 6 edges with a pendant, lower transmissibility
    "five_six": (5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (3, 4)], 0.3, 1.5),
}


@pytest.mark.parametrize("case", sorted(PERCOLATION_CASES))
def test_final_size_matches_exact_bond_percolation(case):
    n, edges, tau, days = PERCOLATION_CASES[case]
    exact = oracles.percolation_final_sizes(n, edges, 1.0 - math.exp(-tau * days))
    assert exact.sum() == pytest.approx(1.0)
    # every infection chain is shorter than n periods, so t_max = n * D
    # lets each outbreak finish
    params = SirParams(tau=tau, recovery_days=days, initial_infected=1, t_max=n * days)
    g = from_edge_list(edges, n=n)
    counts = np.zeros(n + 1)
    for seed in range(RUNS):
        tr = simulate(g, params, seed=seed)
        assert tr.i[-1] == 0
        counts[int(tr.r[-1])] += 1
    for size in range(n + 1):
        p = exact[size]
        if p == 0.0:
            assert counts[size] == 0
            continue
        z = (counts[size] - RUNS * p) / math.sqrt(RUNS * p * (1.0 - p))
        assert abs(z) <= Z_BOUND, (size, counts[size], RUNS * p, z)
