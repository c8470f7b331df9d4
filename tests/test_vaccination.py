"""Vaccination plans, eigenvalue drops, and the herd-equivalence search."""

import math

import numpy as np
import pytest

from vaxnet import (Intervention, Metric, SirParams, VaccinationPlan, delete_nodes,
                    eigen_drop, ensemble, experiments, from_edge_list, gen_barabasi_albert,
                    gen_duplication_divergence, gen_erdos_renyi, gen_random_geometric,
                    herd_equivalent, lambda_max, load_daily_graphs, plan_random, plan_topk,
                    seeding, vaccination)
from vaxnet.centrality import compute, compute_many, degree_centrality

import oracles


def complete_graph(n):
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)])


# -- plan construction ---------------------------------------------------------


def test_topk_degree_picks_hub(star5):
    plan = plan_topk(compute(star5, Metric.DEGREE), 1)
    assert plan.victims == (0,)
    assert plan.strategy == "topk:degree"
    assert plan.k == 1


def test_topk_betweenness_picks_interior(path4):
    plan = plan_topk(compute(path4, Metric.BETWEENNESS), 2)
    assert sorted(plan.victims) == [1, 2]


def test_topk_zero_and_full(k4):
    assert plan_topk(compute(k4, Metric.DEGREE), 0).victims == ()
    assert sorted(plan_topk(compute(k4, Metric.DEGREE), 4).victims) == [0, 1, 2, 3]


def test_topk_accepts_precomputed_scores(star5):
    plan = plan_topk(degree_centrality(star5), 2)
    assert plan.victims[0] == 0
    assert plan.strategy == "topk:degree" and plan.metric is Metric.DEGREE


def test_scoring_and_planning_never_hash_a_graph(contact_files):
    # A top-k plan is built from scores alone, so nothing on the scoring,
    # planning, herd or SIR paths needs a graph's fingerprint.
    day = load_daily_graphs(contact_files[:1]).graphs[0]
    metrics = list(Metric)
    for g in (gen_barabasi_albert(300, 3, seed=5), day):
        assert set(compute_many(g, metrics)) == set(metrics)
        experiments._graph_arms(g, 10, [1, 2], metrics)
        herd_equivalent([g], [Metric.DEGREE, Metric.EIGENVECTOR], n_h_fraction=0.5, seed=3)
        arms = [[Intervention(1.0, "topk", 10, Metric.BETWEENNESS)],
                [Intervention(1.0, "random", 10)]]
        ensemble([g, g], SirParams(t_max=4.0, grid_dt=1.0), arms, seed=7)
        assert g._fingerprint is None


def test_plan_k_validation(k4):
    with pytest.raises(ValueError, match="^k=5 out of range for 4 nodes$"):
        plan_topk(compute(k4, Metric.DEGREE), 5)
    with pytest.raises(ValueError):
        plan_random(k4, -1)


def test_plan_victims_distinct():
    with pytest.raises(ValueError):
        VaccinationPlan((1, 1), "random")


def test_random_plan_deterministic(k4):
    a = plan_random(k4, 2, seed=3)
    b = plan_random(k4, 2, seed=3)
    assert a.victims == b.victims
    assert a.strategy == "random"


def test_random_plan_uniform_coverage():
    g = complete_graph(10)
    counts = np.zeros(10)
    trials = 1500
    for s in range(trials):
        for v in plan_random(g, 3, seed=s).victims:
            counts[v] += 1
    freq = counts / trials
    # each node expected in 30% of draws; 1500 trials pin it within ~5 sigma
    assert np.all(np.abs(freq - 0.3) < 0.06)


def test_random_plan_full_set(k4):
    assert sorted(plan_random(k4, 4, seed=1).victims) == [0, 1, 2, 3]


# -- eigen drop -------------------------------------------------------------------


def test_eigen_drop_empty_plan(k4):
    rep = eigen_drop(k4, [VaccinationPlan((), "random")])[0]
    assert rep.lambda_before == pytest.approx(rep.lambda_after)
    assert rep.drop == pytest.approx(0.0, abs=1e-9)


def test_eigen_drop_star_hub(star5):
    rep = eigen_drop(star5, [plan_topk(compute(star5, Metric.DEGREE), 1)])[0]
    assert rep.lambda_before == pytest.approx(2.0, abs=1e-8)
    assert rep.lambda_after == pytest.approx(0.0, abs=1e-10)
    assert rep.drop_pct == pytest.approx(100.0, abs=1e-6)
    assert rep.converged


def test_eigen_drop_never_negative():
    rng = np.random.default_rng(50)
    for _ in range(30):
        n = int(rng.integers(4, 20))
        g = from_edge_list(oracles.random_edges(rng, n, 0.4), n=n)
        k = int(rng.integers(1, n))
        rep = eigen_drop(g, [plan_random(g, k, seed=int(rng.integers(1 << 30)))])[0]
        assert rep.drop >= -1e-9
        assert 0.0 <= rep.drop_pct <= 100.0 + 1e-9


def test_eigen_drop_targeted_beats_random_on_hubs():
    g = gen_barabasi_albert(300, 4, seed=7)
    k = 30
    topk = eigen_drop(g, [plan_topk(compute(g, Metric.DEGREE), k)])[0]
    rand_after = np.mean([
        eigen_drop(g, [plan_random(g, k, seed=s)])[0].lambda_after for s in range(10)])
    assert topk.lambda_after < rand_after


def test_eigen_drop_solves_the_intact_graph_once(monkeypatch):
    g = gen_barabasi_albert(200, 3, seed=5)
    plans = ([plan_topk(compute(g, Metric.DEGREE), 10), VaccinationPlan((), "random")]
             + [plan_random(g, 10, seed=s) for s in range(3)])
    solved = []

    def counting(graph, *args, **kwargs):
        solved.append(graph.n)
        return lambda_max(graph, *args, **kwargs)

    monkeypatch.setattr(vaccination, "lambda_max", counting)
    reports = eigen_drop(g, plans)
    assert len(solved) == 1 + len(plans)
    assert len(reports) == len(plans)
    lam = lambda_max(g).lambda_max
    assert all(r.lambda_before == lam for r in reports)
    for plan, rep in zip(plans, reports):
        assert rep.lambda_after == lambda_max(delete_nodes(g, plan.victims)).lambda_max
    assert eigen_drop(g, []) == []


def test_eigen_drop_solves_each_victim_set_once(monkeypatch):
    g = gen_barabasi_albert(200, 3, seed=6)
    top = plan_topk(compute(g, Metric.DEGREE), 10)
    plans = [top, plan_random(g, 10, seed=1),
             VaccinationPlan(tuple(reversed(top.victims)), "random"),
             plan_topk(compute(g, Metric.DEGREE), 10), VaccinationPlan((), "random"),
             VaccinationPlan((3, 1, 2), "random"), VaccinationPlan((2, 3, 1), "random")]
    solved = []

    def counting(graph, *args, **kwargs):
        solved.append(graph.n)
        return lambda_max(graph, *args, **kwargs)

    monkeypatch.setattr(vaccination, "lambda_max", counting)
    reports = eigen_drop(g, plans)
    sets = [frozenset(p.victims) for p in plans]
    assert len(set(sets)) == 4
    assert len(solved) == 1 + len(set(sets))
    for plan, victims, rep in zip(plans, sets, reports):
        assert rep.lambda_after == lambda_max(delete_nodes(g, plan.victims)).lambda_max
        assert all(other.lambda_after == rep.lambda_after
                   for v, other in zip(sets, reports) if v == victims)


# -- herd equivalence ----------------------------------------------------------------


def test_herd_complete_graph_exact():
    # on K_n every node is equivalent, so targeted removal needs exactly
    # the baseline count: lambda(K_{n-k}) = n-k-1 is monotone in k
    g = complete_graph(20)
    (report,) = herd_equivalent([g], [Metric.DEGREE], n_h_fraction=0.7, seed=1)
    assert report.n_h == 14
    assert report.lambda_target == pytest.approx(5.0, abs=1e-8)
    assert report.n_hs == 14
    assert report.n_hs_fraction == pytest.approx(0.7)


def test_herd_hub_graph_needs_far_fewer():
    # star-like topology: removing the hub kills the spectrum at once
    graphs = [gen_barabasi_albert(200, 3, seed=s) for s in range(3)]
    (report,) = herd_equivalent(graphs, [Metric.DEGREE], n_h_fraction=0.7, seed=2)
    assert report.n_hs < report.n_h


def test_herd_never_exceeds_graph_size():
    graphs = [gen_erdos_renyi(60, 0.2, seed=s) for s in range(3)]
    metrics = [Metric.DEGREE, Metric.BETWEENNESS, Metric.EIGENVECTOR]
    reports = herd_equivalent(graphs, metrics, n_h_fraction=0.7, seed=3)
    assert [report.metric for report in reports] == metrics
    for report in reports:
        assert 0 <= report.n_hs <= 60
        assert report.lambda_target >= 0


def test_herd_bisection_matches_linear_scan():
    # the bisection must return the smallest k whose ensemble mean reaches
    # the target; verify against an exhaustive scan on small graphs
    from vaxnet.centrality import compute, ranking
    from vaxnet.graph import delete_nodes
    graphs = [gen_erdos_renyi(25, 0.3, seed=s) for s in range(4)]
    metric = Metric.DEGREE
    (report,) = herd_equivalent(graphs, [metric], n_h_fraction=0.6, seed=9)
    orders = [ranking(compute(g, metric)) for g in graphs]
    means = []
    for k in range(26):
        vals = [lambda_max(delete_nodes(g, order[:k])).lambda_max
                for g, order in zip(graphs, orders)]
        means.append(float(np.mean(vals)))
    # per-graph eigenvalues fall monotonically as prefixes grow
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))
    want = min(k for k in range(26) if means[k] <= report.lambda_target)
    assert report.n_hs == want


def test_herd_fraction_one_target_zero():
    # the target is lambda = 0; eleven removals already leave an edgeless
    # K_1, so the smallest matching k is n - 1
    g = complete_graph(12)
    (report,) = herd_equivalent([g], [Metric.DEGREE], n_h_fraction=1.0, seed=4)
    assert report.n_h == 12
    assert report.lambda_target == 0.0
    assert report.n_hs == 11


def test_herd_validation():
    g = complete_graph(5)
    with pytest.raises(ValueError):
        herd_equivalent([], [Metric.DEGREE])
    with pytest.raises(ValueError):
        herd_equivalent([g], [Metric.DEGREE], n_h_fraction=1.5)
    with pytest.raises(ValueError):
        herd_equivalent([g, complete_graph(6)], [Metric.DEGREE])
    with pytest.raises(TypeError, match="sequence of Metric"):
        herd_equivalent([g], Metric.DEGREE)


def test_herd_deterministic():
    graphs = [gen_erdos_renyi(40, 0.25, seed=s) for s in range(3)]
    a = herd_equivalent(graphs, [Metric.DEGREE], seed=11)
    b = herd_equivalent(graphs, [Metric.DEGREE], seed=11)
    assert a == b


def test_herd_metrics_share_one_baseline(monkeypatch):
    # Each metric's report equals its one-metric search, and the random
    # baseline is solved once for all of them.
    from vaxnet import vaccination
    calls = []
    inner = vaccination.lambda_max

    def counting(g, *args, **kwargs):
        calls.append(g.fingerprint)
        return inner(g, *args, **kwargs)

    monkeypatch.setattr(vaccination, "lambda_max", counting)
    graphs = [gen_barabasi_albert(80, 3, seed=s) for s in range(3)]
    metrics = [Metric.DEGREE, Metric.CLOSENESS, Metric.BETWEENNESS]
    alone = []
    for metric in metrics:
        del calls[:]
        alone.append((herd_equivalent(graphs, [metric], n_h_fraction=0.6, seed=5)[0],
                      len(calls)))
    del calls[:]
    together = herd_equivalent(graphs, metrics, n_h_fraction=0.6, seed=5)
    assert together == [report for report, _ in alone]
    assert len(calls) == sum(n for _, n in alone) - (len(metrics) - 1) * len(graphs)


# -- the herd search ----------------------------------------------------------------


def check_search(values, target):
    """Run the herd search on a fixed curve and return the k it asked for.
    values[k] is the mean after k removals; values[n] = 0 is never asked for."""
    n = len(values) - 1
    assert values[n] == 0.0 and all(b <= a for a, b in zip(values, values[1:]))
    asked = []

    def mean_after(k):
        asked.append(k)
        return values[k]

    k = vaccination._smallest_matching_k(mean_after, n, target)
    assert k == min(j for j in range(n + 1) if values[j] <= target)
    assert len(asked) == len(set(asked)) <= 2 * math.ceil(math.log2(n + 1))
    assert all(0 <= j < n for j in asked)
    return asked


def curve(n, f):
    return [float(f(k / n)) for k in range(n)] + [0.0]


@pytest.mark.parametrize("name, values, target", [
    ("plateaus", [5.0] * 300 + [3.0] * 400 + [1.0] * 300 + [0.0], 3.0),
    ("plateau above", [5.0] * 300 + [3.0] * 400 + [1.0] * 300 + [0.0], 2.9),
    ("step at 1", [1.0] + [0.0] * 1000, 0.5),
    ("step at 500", [1.0] * 500 + [0.0] * 501, 0.5),
    ("step at 999", [1.0] * 999 + [0.0] * 2, 0.5),
    ("convex", curve(1000, lambda x: 100 * (1 - x) ** 3), 10.0),
    ("concave", curve(1000, lambda x: 100 * (1 - x ** 3)), 10.0),
    ("linear", curve(1000, lambda x: 188 * (1 - x)), 120.27),
    ("answer 0", curve(1000, lambda x: 50 * (1 - x)), 50.0),
    ("answer n", [7.0] * 1000 + [0.0], 0.0),
    ("target 0, answer n - 1", curve(12, lambda x: 11 - 12 * x)[:-2] + [0.0, 0.0], 0.0),
    ("one node", [1.0, 0.0], 0.5),
    ("no nodes", [0.0], 0.0),
])
def test_herd_search_finds_least_k_on_fixed_curves(name, values, target):
    check_search(values, target)


def test_herd_search_interpolates_smooth_curves():
    # on a straight line two midpoints find an end above the target, the
    # first interpolated step lands on the answer and one more confirms it;
    # smooth curves take fewer evaluations than the 10 of bisection. On the
    # last two, one end would stay put for many steps without the Illinois
    # halving (18 and 19 evaluations).
    assert check_search(curve(1000, lambda x: 188 * (1 - x)), 120.27) == [500, 250, 361, 360]
    for f, target, most in [(lambda x: 100 * (1 - x) ** 3, 10.0, 6),
                            (lambda x: 100 * (1 - x ** 3), 10.0, 5),
                            (lambda x: 100 * math.exp(-10 * x), 1.0, 7),
                            (lambda x: 100 * (1 - x ** 8), 90.0, 8)]:
        assert len(check_search(curve(1000, f), target)) <= most


def test_herd_search_finds_least_k_on_random_curves():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        n = int(rng.integers(1, 300))
        # non-increasing with repeated values, ending at 0
        steps = rng.exponential(size=n) * (rng.random(n) < rng.random())
        values = list(np.cumsum(steps[::-1])[::-1]) + [0.0]
        # half the targets sit exactly on a value, so plateaus meet the target
        if rng.random() < 0.5:
            target = float(rng.choice(values))
        else:
            target = float(rng.uniform(0, values[0] + 1))
        check_search(values, target)


def test_herd_search_matches_bisection_on_random_ensembles():
    # the false-position search returns the oracle bisection's k on real
    # mean-eigenvalue curves
    from vaxnet.centrality import compute, ranking
    rng = np.random.default_rng(7)
    makers = [lambda n, s: gen_erdos_renyi(n, 0.15, seed=s),
              lambda n, s: gen_barabasi_albert(n, 3, seed=s),
              lambda n, s: gen_duplication_divergence(n, 0.4, seed=s),
              lambda n, s: gen_random_geometric(n, 0.3, seed=s)]
    metrics = [Metric.DEGREE, Metric.EIGENVECTOR, Metric.CLOSENESS]
    for case in range(100):
        n = int(rng.integers(30, 60))
        graphs = [makers[case % 4](n, 100 * case + r) for r in range(2)]
        metric = metrics[case % 3]
        fraction = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
        (report,) = herd_equivalent(graphs, [metric], n_h_fraction=fraction, seed=case)
        orders = [ranking(compute(g, metric)) for g in graphs]

        def mean_after(k):
            return float(np.mean([lambda_max(delete_nodes(g, order[:k])).lambda_max
                                  for g, order in zip(graphs, orders)]))

        assert report.n_hs == oracles.bisect_smallest_k(mean_after, n, report.lambda_target)
        assert report.solves <= 2 * math.ceil(math.log2(n + 1)) * len(graphs)


def herd_ensembles():
    return {"er": [gen_erdos_renyi(300, 0.2, seed=s) for s in range(3)],
            "ba": [gen_barabasi_albert(300, 5, seed=s) for s in range(3)]}


def solved_fingerprints(monkeypatch) -> list:
    """The (CSR fingerprint, lambda bits) of every solve made from now on."""
    seen = []
    inner = vaccination.lambda_max

    def recording(g, *args, **kwargs):
        res = inner(g, *args, **kwargs)
        seen.append((g.fingerprint, np.float64(res.lambda_max).tobytes()))
        return res

    monkeypatch.setattr(vaccination, "lambda_max", recording)
    return seen


@pytest.mark.parametrize("family", ["er", "ba"])
@pytest.mark.parametrize("fraction", [0.3, 0.7])
def test_herd_nested_deletions_match_deleting_from_the_intact_graph(monkeypatch, family,
                                                                     fraction):
    graphs, metrics = herd_ensembles()[family], [Metric.DEGREE, Metric.EIGENVECTOR]
    solves = solved_fingerprints(monkeypatch)
    nested = herd_equivalent(graphs, metrics, n_h_fraction=fraction, seed=2)
    nested_solves = solves[:]
    del solves[:]
    monkeypatch.setattr(vaccination, "_prefix_deleter",
                        lambda g, order: lambda k: delete_nodes(g, order[:k]))
    intact = herd_equivalent(graphs, metrics, n_h_fraction=fraction, seed=2)
    assert nested == intact
    assert nested_solves == solves


@pytest.mark.parametrize("family", ["er", "ba"])
def test_herd_deletes_from_the_largest_smaller_prefix(monkeypatch, family):
    graphs = herd_ensembles()[family]
    n = graphs[0].n
    acted = []
    inner = vaccination.delete_nodes

    def recording(g, victims):
        out = inner(g, victims)
        acted.append((n - g.n, n - out.n))    # (k' of the graph acted on, k)
        return out

    monkeypatch.setattr(vaccination, "delete_nodes", recording)
    (report,) = herd_equivalent(graphs, [Metric.DEGREE], n_h_fraction=0.7, seed=2)
    baseline, search = acted[:len(graphs)], acted[len(graphs):]
    assert [base for base, _ in baseline] == [0] * len(graphs)
    assert len(search) == report.solves
    for i in range(len(graphs)):
        steps = search[i::len(graphs)]
        for j, (base, k) in enumerate(steps):
            assert base == max([0] + [prev for _, prev in steps[:j] if prev <= k])
        # Past the first midpoint the answer lies above n / 2 on ER, so every
        # later deletion starts from a subgraph.
        if family == "er":
            assert report.n_hs > n // 2 and all(base > 0 for base, _ in steps[1:])


def test_herd_search_solve_count(monkeypatch):
    # three ER(400, 0.4) graphs, two metrics: 3 baseline solves plus the two
    # searches; plain bisection took 54 solves here
    calls = []
    inner = vaccination.lambda_max

    def counting(g, *args, **kwargs):
        calls.append(g.n)
        return inner(g, *args, **kwargs)

    monkeypatch.setattr(vaccination, "lambda_max", counting)
    graphs = [gen_erdos_renyi(400, 0.4, seed=s) for s in range(3)]
    reports = herd_equivalent(graphs, [Metric.DEGREE, Metric.EIGENVECTOR],
                              n_h_fraction=0.7, seed=3)
    assert [report.n_hs for report in reports] == [263, 264]
    assert len(calls) == 3 + sum(report.solves for report in reports) <= 30
    assert [report.nonconverged for report in reports] == [0, 0]


def test_herd_counts_nonconverged_solves(monkeypatch):
    # with a two-step iteration cap most solves stop short; each report
    # counts the baseline's plus its own search's
    results = []
    inner = vaccination.lambda_max

    def capped(g, *args, **kwargs):
        results.append(inner(g, max_iter=2))
        return results[-1]

    monkeypatch.setattr(vaccination, "lambda_max", capped)
    graphs = [gen_barabasi_albert(60, 3, seed=s) for s in range(3)]
    reports = herd_equivalent(graphs, [Metric.DEGREE, Metric.EIGENVECTOR],
                              n_h_fraction=0.5, seed=1)
    failed = [not res.converged for res in results]
    base = sum(failed[:3])
    first, second = reports[0].solves, reports[1].solves
    assert len(results) == 3 + first + second
    assert reports[0].nonconverged == base + sum(failed[3:3 + first]) > base
    assert reports[1].nonconverged == base + sum(failed[3 + first:])
