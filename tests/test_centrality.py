"""Centrality scores against closed forms and brute-force enumeration."""

import tracemalloc

import numpy as np
import pytest

from vaxnet import (Metric, NonConvergenceError, betweenness_centrality,
                    closeness_centrality, compute_many, degree_centrality,
                    eigenvector_centrality, from_edge_list, gen_barabasi_albert,
                    gen_duplication_divergence, gen_erdos_renyi, lambda_max, ranking,
                    top_k)
from vaxnet import centrality
from vaxnet.centrality import compute, write_scores_csv
from vaxnet.graph import EmptyGraphError

import oracles


# -- degree ----------------------------------------------------------------


def test_degree_path3(path3):
    assert degree_centrality(path3).values.tolist() == [1.0, 2.0, 1.0]


def test_degree_normalized_complete(k4):
    assert degree_centrality(k4, normalized=True).values.tolist() == [1.0] * 4
    assert degree_centrality(k4).metric is Metric.DEGREE
    assert degree_centrality(k4, normalized=True).metric is Metric.DEGREE_NORMALIZED


def test_degree_normalized_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        g = from_edge_list(oracles.random_edges(rng, n, 0.5), n=n)
        vals = degree_centrality(g, normalized=True).values
        assert np.all(vals >= 0) and np.all(vals <= 1)


# -- closeness -------------------------------------------------------------


def test_closeness_path3_center(path3):
    vals = closeness_centrality(path3).values
    assert vals[1] == pytest.approx(1.0)
    assert vals[0] == pytest.approx((2 / 3) * (2 / 2))


def test_closeness_complete(k4):
    assert np.allclose(closeness_centrality(k4).values, 1.0)


def test_closeness_disconnected_components(two_edges):
    # each node reaches one neighbor: (1/1) * (1/3)
    assert np.allclose(closeness_centrality(two_edges).values, 1 / 3)


def test_closeness_isolated_node_zero():
    g = from_edge_list([(0, 1)], n=3)
    vals = closeness_centrality(g).values
    assert vals[2] == 0.0


def test_closeness_needs_two_nodes():
    with pytest.raises(ValueError):
        closeness_centrality(from_edge_list([], n=1))


def test_closeness_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.1, 0.8)))
        g = from_edge_list(edges, n=n)
        want = oracles.brute_closeness(n, edges)
        assert np.allclose(closeness_centrality(g).values, want, atol=1e-8)


# -- betweenness -------------------------------------------------------------


def test_betweenness_path3(path3):
    assert betweenness_centrality(path3).values.tolist() == [0.0, 1.0, 0.0]


def test_betweenness_complete_zero(k4):
    assert np.allclose(betweenness_centrality(k4).values, 0.0)


def test_betweenness_star_hub(star5):
    # hub sits on every leaf pair: C(4,2)
    vals = betweenness_centrality(star5).values
    assert vals[0] == pytest.approx(6.0)
    assert np.allclose(vals[1:], 0.0)


def test_betweenness_cycle_split(cycle4):
    # the two geodesics between opposite nodes split the count
    assert np.allclose(betweenness_centrality(cycle4).values, 0.5)


def test_betweenness_normalized(star5):
    vals = betweenness_centrality(star5, normalized=True).values
    assert vals[0] == pytest.approx(1.0)


def test_betweenness_matches_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.15, 0.8)))
        g = from_edge_list(edges, n=n)
        want = oracles.brute_betweenness(n, edges)
        assert np.allclose(betweenness_centrality(g).values, want, atol=1e-8)


def test_betweenness_dense_and_sparse_paths_agree(monkeypatch):
    from vaxnet import centrality
    from vaxnet.centrality import _sweep_dense, _sweep_sparse
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(3, 30))
        g = from_edge_list(oracles.random_edges(rng, n, 0.3), n=n)
        if g.m == 0:
            continue
        assert np.allclose(_sweep_dense(g, False, True)[2], _sweep_sparse(g, False, True)[2],
                           atol=1e-9)
    # The public functions on both sides of the size switch, on graphs with
    # several components and three isolated nodes (the last three ids).
    graphs, split = [], 0
    for _ in range(15):
        n = int(rng.integers(3, 30)) + 3
        edges = oracles.random_edges(rng, n - 3, float(rng.uniform(0.05, 0.2)))
        adj = oracles.adjacency_sets(n, edges)
        dists = oracles.all_pairs_dists(adj)
        touched = [v for v in range(n) if adj[v]]
        split += any(dists[u][v] < 0 for u in touched for v in touched)
        graphs.append(from_edge_list(edges, n=n))
    assert split >= 5
    dense = [(closeness_centrality(g).values, betweenness_centrality(g).values)
             for g in graphs]
    monkeypatch.setattr(centrality, "_DENSE_LIMIT", 0)
    for g, (cc, bc) in zip(graphs, dense):
        assert np.array_equal(closeness_centrality(g).values, cc)
        assert np.allclose(betweenness_centrality(g).values, bc, rtol=0, atol=1e-9)


# -- one sweep for both path metrics -----------------------------------------------

PATH_METRICS = [Metric.CLOSENESS, Metric.BETWEENNESS]


def sweep_graphs():
    """ER, BA and DD draws, graphs with isolated nodes and several
    components, and an edgeless graph."""
    rng = np.random.default_rng(24)
    graphs = [gen_erdos_renyi(40, 0.15, seed=1), gen_barabasi_albert(50, 2, seed=2),
              gen_duplication_divergence(45, 0.4, seed=3),
              from_edge_list([(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)], n=11),
              from_edge_list([], n=6)]
    for _ in range(4):
        n = int(rng.integers(8, 25))
        edges = oracles.random_edges(rng, n - 3, float(rng.uniform(0.05, 0.2)))
        graphs.append(from_edge_list(edges, n=n))
    return graphs


@pytest.fixture(params=["dense", "gather", "sparse"])
def size_regime(request, monkeypatch):
    """The all-sources sweep stepping by products ("dense") or by row
    gathers ("gather"), or the per-source sweep ("sparse")."""
    if request.param == "sparse":
        monkeypatch.setattr(centrality, "_DENSE_LIMIT", 0)
    else:
        force_kernel(monkeypatch, request.param == "gather")
    return request.param


def force_kernel(monkeypatch, gather: bool):
    # 2m < n^2 holds on every graph, and 2m < 0 on none.
    monkeypatch.setattr(centrality, "_GATHER_DENSITY", 1.0 if gather else 0.0)


def test_compute_many_is_bit_equal_to_the_single_metric_wrappers(size_regime):
    for g in sweep_graphs():
        cc = closeness_centrality(g).values
        bc = betweenness_centrality(g).values
        for order in (PATH_METRICS, PATH_METRICS[::-1]):
            many = compute_many(g, order)
            assert set(many) == set(PATH_METRICS)
            assert np.array_equal(many[Metric.CLOSENESS].values, cc)
            assert np.array_equal(many[Metric.BETWEENNESS].values, bc)
            assert all(many[m].graph_fingerprint == g.fingerprint for m in order)
        assert np.array_equal(compute(g, Metric.CLOSENESS).values, cc)
        assert np.array_equal(compute(g, Metric.BETWEENNESS).values, bc)


def test_compute_many_matches_brute_force(size_regime):
    rng = np.random.default_rng(25)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.1, 0.7)))
        many = compute_many(from_edge_list(edges, n=n), PATH_METRICS)
        assert np.allclose(many[Metric.CLOSENESS].values,
                           oracles.brute_closeness(n, edges), atol=1e-8)
        assert np.allclose(many[Metric.BETWEENNESS].values,
                           oracles.brute_betweenness(n, edges), atol=1e-8)


def test_compute_many_closeness_needs_two_nodes(size_regime):
    g = from_edge_list([], n=1)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        compute_many(g, PATH_METRICS)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        compute_many(g, [Metric.BETWEENNESS, Metric.CLOSENESS])
    assert compute_many(g, [Metric.BETWEENNESS])[Metric.BETWEENNESS].values.tolist() == [0.0]


def test_compute_many_covers_every_metric_once(star5):
    metrics = list(Metric) + [Metric.DEGREE, Metric.CLOSENESS]
    many = compute_many(star5, metrics)
    assert set(many) == set(Metric)
    for metric in Metric:
        assert many[metric].metric is metric
        assert np.array_equal(many[metric].values, compute(star5, metric).values)
    assert compute_many(star5, []) == {}
    with pytest.raises(ValueError, match="unknown metric"):
        compute_many(star5, ["nonsense"])


def test_one_forward_sweep_per_graph(monkeypatch, size_regime):
    name = "_bfs_from" if size_regime == "sparse" else "_bfs_dense"
    calls = []
    inner = getattr(centrality, name)

    def counting(g, *args):
        calls.append(g.fingerprint)
        return inner(g, *args)

    monkeypatch.setattr(centrality, name, counting)
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (4, 5)], n=8)
    compute_many(g, [Metric.DEGREE, *PATH_METRICS, Metric.EIGENVECTOR])
    # all sources: one BFS; sparse: one BFS per non-isolated source
    assert len(calls) == (6 if size_regime == "sparse" else 1)


@pytest.mark.parametrize("sweep", ["_sweep_dense", "_sweep_sparse"])
def test_sweep_computes_only_the_metrics_asked_for(sweep):
    g = gen_erdos_renyi(30, 0.2, seed=5)
    run = getattr(centrality, sweep)
    reach, totals, bc = run(g, False, True)
    assert reach is None and totals is None
    assert np.array_equal(bc, run(g, True, True)[2])
    reach, totals, bc = run(g, True, False)
    assert bc is None
    assert np.array_equal(reach, run(g, True, True)[0])
    assert np.array_equal(totals, run(g, True, True)[1])


# -- the dense sweep against its boolean-mask reference --------------------------------


def mask_oracle_graphs():
    """ER, BA and DD draws of a few hundred nodes, a path, a star, a graph
    with isolated nodes and one of two components, at 2m/n^2 from 0.7% to
    3%, around the gather density, and a dense ER draw at 30%."""
    rng = np.random.default_rng(26)
    half = gen_barabasi_albert(150, 2, seed=7)
    u, v = half.edges()
    return {
        "er_dense": gen_erdos_renyi(300, 0.3, seed=9),
        "er": gen_erdos_renyi(400, 0.03, seed=4),
        "ba": gen_barabasi_albert(450, 3, seed=5),
        "dd": gen_duplication_divergence(350, 0.4, seed=6),
        "path": from_edge_list([(i, i + 1) for i in range(299)], n=300),
        "star": from_edge_list([(0, i) for i in range(1, 300)], n=300),
        "isolated": from_edge_list(oracles.random_edges(rng, 290, 0.02), n=300),
        "two_components": from_edge_list(
            list(zip(u.tolist(), v.tolist()))
            + list(zip((u + 150).tolist(), (v + 150).tolist())), n=300),
    }


@pytest.mark.parametrize("gather", [False, True], ids=["product", "gather"])
def test_dense_sweep_is_bit_equal_to_the_mask_reference(monkeypatch, gather):
    force_kernel(monkeypatch, gather)
    stops = set()
    for name, g in mask_oracle_graphs().items():
        dist, sigma, depth, bc, reach, totals = oracles.mask_sweep_dense(g.to_dense())
        A, got_dist, got_sigma, got_depth = centrality._bfs_dense(g)
        assert (A is None) == gather, name
        assert got_dist.dtype == dist.dtype, name
        assert got_dist.tobytes() == dist.tobytes(), name
        assert got_sigma.tobytes() == sigma.tobytes(), name
        assert got_depth == depth, name
        got_reach, got_totals, got_bc = centrality._sweep_dense(g, True, True)
        assert got_bc.tobytes() == bc.tobytes(), name
        assert got_reach.tobytes() == reach.tobytes(), name
        assert got_totals.tobytes() == totals.tobytes(), name
        # Connected graphs stop once every pair is reached, the others on
        # an empty level.
        stops.add(bool((dist >= 0).all()))
    assert stops == {True, False}


def test_gather_and_product_kernels_agree_around_the_density_switch(monkeypatch):
    # 2m < n^2 / 100 gathers: at n = 400 that is m <= 799.
    n = 400
    u, v = gen_erdos_renyi(n, 0.02, seed=10).edges()
    order = np.random.default_rng(27).permutation(len(u))
    sides = {780: True, 799: True, 800: False, 820: False}
    graphs = {m: from_edge_list(list(zip(u[order[:m]].tolist(), v[order[:m]].tolist())), n=n)
              for m in sides}
    picked = {m: centrality._bfs_dense(g) for m, g in graphs.items()}
    for m, gather in sides.items():
        assert graphs[m].m == m
        assert (picked[m][0] is None) == gather, m
    for forced in (False, True):
        force_kernel(monkeypatch, forced)
        for m, g in graphs.items():
            _, dist, sigma, depth = centrality._bfs_dense(g)
            assert dist.tobytes() == picked[m][1].tobytes(), (m, forced)
            assert sigma.tobytes() == picked[m][2].tobytes(), (m, forced)
            assert depth == picked[m][3], (m, forced)


@pytest.mark.parametrize("g, gather", [
    (gen_barabasi_albert(600, 3, seed=8), True),
    (gen_erdos_renyi(600, 0.05, seed=8), False)], ids=["gather", "product"])
def test_dense_sweep_peak_memory(g, gather):
    # The dense sweep holds five float64 n x n arrays and one int32 at its
    # peak (5.5 n^2 float64s), in the backward pass; gather copies and
    # unfreed temporaries took the boolean-mask version to 6.8. The gather
    # kernel builds the adjacency only for the backward pass.
    assert (centrality._bfs_dense(g)[0] is None) == gather
    tracemalloc.start()
    try:
        centrality._sweep_dense(g, True, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (g.n * g.n * 8) < 6.0


# -- eigenvector ---------------------------------------------------------------


def test_eigenvector_complete_uniform(k4):
    vals = eigenvector_centrality(k4).values
    assert np.allclose(vals, 0.5, atol=1e-8)


def test_eigenvector_star_ratio(star5):
    vals = eigenvector_centrality(star5).values
    assert vals[0] / vals[1] == pytest.approx(2.0, abs=1e-7)


def test_eigenvector_properties():
    rng = np.random.default_rng(24)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.15, 0.9)))
        g = from_edge_list(edges, n=n)
        if g.m == 0:
            continue
        vals = eigenvector_centrality(g).values
        assert np.all(vals >= -1e-12)
        assert np.linalg.norm(vals) == pytest.approx(1.0, abs=1e-9)
        # must satisfy A x = lambda x for the dominant lambda
        lam = float(vals @ g.matvec(vals))
        assert np.max(np.abs(g.matvec(vals) - lam * vals)) < 1e-6


def test_eigenvector_matches_dense_solver():
    rng = np.random.default_rng(25)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(3, 20))
        edges = oracles.random_edges(rng, n, 0.4)
        g = from_edge_list(edges, n=n)
        if g.m == 0:
            continue
        A = oracles.dense_from_edges(n, edges)
        w, vecs = np.linalg.eigh(A)
        # skip near-ties where the dominant direction is ambiguous
        if n > 1 and w[-1] - w[-2] < 1e-6:
            continue
        want = np.abs(vecs[:, -1])
        got = eigenvector_centrality(g).values
        assert np.allclose(got, want, atol=1e-6)
        checked += 1
    assert checked >= 10


def test_eigenvector_is_the_lambda_max_iterate(cycle4, star5):
    rng = np.random.default_rng(26)
    graphs = [cycle4, star5, from_edge_list([(0, 1), (2, 3), (3, 4)], n=6)]
    for _ in range(20):
        n = int(rng.integers(2, 30))
        graphs.append(from_edge_list(
            oracles.random_edges(rng, n, float(rng.uniform(0.05, 0.6))), n=n))
    for g in graphs:
        if g.m == 0:
            continue
        vals = eigenvector_centrality(g).values
        res = lambda_max(g, tol=1e-10)
        assert np.array_equal(vals, res.vector)
        assert np.all(vals >= 0.0)
        assert np.linalg.norm(vals) == pytest.approx(1.0, abs=1e-12)
        lam = res.lambda_max
        assert np.max(np.abs(g.matvec(vals) - lam * vals)) <= 1e-10 * max(1.0, lam)


def test_eigenvector_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        eigenvector_centrality(from_edge_list([], n=4))


def test_eigenvector_non_convergence_carries_diagnostics(cycle4):
    with pytest.raises(NonConvergenceError) as err:
        eigenvector_centrality(cycle4, tol=1e-16, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.residual > 0


# -- ranking -----------------------------------------------------------------


def test_top_k_star(star5):
    assert top_k(degree_centrality(star5), 1).tolist() == [0]


def test_top_k_tie_breaks_by_id(k4):
    assert top_k(degree_centrality(k4), 3).tolist() == [0, 1, 2]


def test_top_k_path4_betweenness(path4):
    picks = top_k(betweenness_centrality(path4), 2)
    assert sorted(picks.tolist()) == [1, 2]


def test_top_k_bounds(k4):
    scores = degree_centrality(k4)
    assert top_k(scores, 0).size == 0
    assert top_k(scores, 4).size == 4
    with pytest.raises(ValueError):
        top_k(scores, 5)
    with pytest.raises(ValueError):
        top_k(scores, -1)


def test_ranking_is_permutation():
    rng = np.random.default_rng(26)
    g = from_edge_list(oracles.random_edges(rng, 15, 0.3), n=15)
    order = ranking(degree_centrality(g))
    assert sorted(order.tolist()) == list(range(15))
    vals = degree_centrality(g).values
    assert np.all(np.diff(vals[order]) <= 0)


def test_permutation_equivariance():
    # relabeling nodes must relabel scores identically
    rng = np.random.default_rng(27)
    for metric in (Metric.DEGREE, Metric.CLOSENESS, Metric.BETWEENNESS):
        n = 12
        edges = oracles.random_edges(rng, n, 0.4)
        g = from_edge_list(edges, n=n)
        perm = rng.permutation(n)
        g2 = from_edge_list([(int(perm[u]), int(perm[v])) for u, v in edges], n=n)
        v1 = compute(g, metric).values
        v2 = compute(g2, metric).values
        assert np.allclose(v2[perm], v1, atol=1e-9)


def test_scores_csv_export(tmp_path, star5):
    out = tmp_path / "scores.csv"
    write_scores_csv(degree_centrality(star5), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,score,rank"
    assert lines[1] == "0,4.0,1"
    assert lines[2] == "1,1.0,2"
