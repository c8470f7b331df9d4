"""Centrality scores against closed forms and brute-force enumeration."""

import collections
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vaxnet import (Metric, NonConvergenceError, betweenness_centrality,
                    closeness_centrality, compute_many, degree_centrality, delete_nodes,
                    eigenvector_centrality, from_edge_list, gen_barabasi_albert,
                    gen_duplication_divergence, gen_erdos_renyi, lambda_max, ranking,
                    top_k)
from vaxnet import centrality
from vaxnet.centrality import compute
from vaxnet.experiments import run_centrality
from vaxnet.graph import EmptyGraphError, Graph, from_arrays
from vaxnet.ingest import load_daily_graphs

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


@pytest.fixture(params=["dense", "gather", "blocks"])
def size_regime(request, monkeypatch):
    """The sweep stepping by products ("dense") or by row gathers
    ("gather") over one block of sources, or with a budget of 64 entries
    per n x b array ("blocks"): blocks of 64 // n sources, and row gathers
    on every component, all of them below `_PRODUCT_MIN_NODES`."""
    if request.param == "blocks":
        monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", 64)
    else:
        force_kernel(monkeypatch, request.param == "gather")
    return request.param


def force_kernel(monkeypatch, gather: bool):
    # 2m < n^2 holds on every graph, and 2m < 0 on none; products also need
    # the node floor lifted, since the test graphs have fewer than 512 nodes.
    monkeypatch.setattr(centrality, "_GATHER_DENSITY", 1.0 if gather else 0.0)
    if not gather:
        monkeypatch.setattr(centrality, "_PRODUCT_MIN_NODES", 0)


def block_width(n: int) -> int:
    return max(1, min(n, centrality._BLOCK_ENTRIES // n))


def kernel(g) -> str:
    return "gather" if centrality._step(g).__name__ == "gather" else "product"


def test_compute_many_is_bit_equal_to_the_single_metric_wrappers(size_regime):
    for g in sweep_graphs():
        cc = closeness_centrality(g).values
        bc = betweenness_centrality(g).values
        for order in (PATH_METRICS, PATH_METRICS[::-1]):
            many = compute_many(g, order)
            assert set(many) == set(PATH_METRICS)
            assert np.array_equal(many[Metric.CLOSENESS].values, cc)
            assert np.array_equal(many[Metric.BETWEENNESS].values, bc)
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


def test_edgeless_graphs_score_zero(size_regime):
    for n in (0, 2, 5):
        g = from_edge_list([], n=n)
        assert betweenness_centrality(g).values.tolist() == [0.0] * n
        if n >= 2:
            assert closeness_centrality(g).values.tolist() == [0.0] * n


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
    calls = []
    inner = centrality._sweep

    def counting(g, *args):
        calls.append(g.n)
        return inner(g, *args)

    monkeypatch.setattr(centrality, "_sweep", counting)
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9), (7, 9)], n=12)
    compute_many(g, [Metric.DEGREE, *PATH_METRICS, Metric.EIGENVECTOR])
    # one sweep per component with an edge that is not complete; the
    # triangle 7-8-9 and the isolated nodes 10 and 11 get none
    assert calls == [4, 3]


def test_sweep_computes_only_the_metrics_asked_for():
    g = gen_erdos_renyi(30, 0.2, seed=5)
    assert len(list(centrality._components(g))) == 1
    cc, bc = centrality._path_values(g, False, True)
    assert cc is None
    assert np.array_equal(bc, centrality._path_values(g, True, True)[1])
    cc, bc = centrality._path_values(g, True, False)
    assert bc is None
    assert np.array_equal(cc, centrality._path_values(g, True, True)[0])
    # Closeness alone runs no backward pass.
    totals, bc = centrality._sweep(g, False)
    assert not bc.any()
    assert np.array_equal(totals, centrality._sweep(g, True)[0])


# -- components --------------------------------------------------------------------


def components(g):
    """`centrality._components(g)` with each component's CSR as a `Graph`."""
    for nodes, indptr, indices in centrality._components(g):
        yield nodes, Graph(nodes.size, indptr, indices)


def component_union():
    """A BA draw, a DD draw's largest component, a path, a triangle and
    three isolated nodes on shuffled ids; returns the graph and each
    component's ids and edges in its own id order."""
    dd = gen_duplication_divergence(70, 0.4, seed=11)
    dd_nodes, dd_sub = max(components(dd), key=lambda c: c[0].size)
    parts = [gen_barabasi_albert(60, 2, seed=10).edges(), dd_sub.edges(),
             (np.arange(9), np.arange(1, 10)), (np.array([0, 0, 1]), np.array([1, 2, 2]))]
    sizes = [60, dd_nodes.size, 10, 3]
    n = sum(sizes) + 3
    ids = np.random.default_rng(28).permutation(n)
    edges, comps, start = [], [], 0
    for (u, v), size in zip(parts, sizes):
        nodes = ids[start:start + size]
        edges += list(zip(nodes[u].tolist(), nodes[v].tolist()))
        # The component on its own, relabelled in id order.
        local = np.argsort(np.argsort(nodes))
        comps.append((np.sort(nodes), list(zip(local[u].tolist(), local[v].tolist()))))
        start += size
    return from_edge_list(edges, n=n), comps, ids[start:]


def test_components_are_labelled_and_relabelled_in_id_order():
    g, comps, isolated = component_union()
    got = list(components(g))
    assert sorted(c[0][0] for c in comps) == [nodes[0] for nodes, _ in got]
    for nodes, sub in got:
        want_nodes, want_edges = next(c for c in comps if c[0][0] == nodes[0])
        assert np.array_equal(nodes, want_nodes)
        assert sub == from_edge_list(want_edges, n=nodes.size)
    assert not np.isin(isolated, np.concatenate([nodes for nodes, _ in got])).any()


@pytest.mark.parametrize("name", ["shuffled_path", "sparse_er", "edgeless", "one_node"])
def test_components_match_scipy_and_delete_nodes(name):
    # A path on shuffled ids takes many label rounds; ER(400, 1/400) has
    # isolated nodes between non-empty rows.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    ids = np.random.default_rng(29).permutation(300)
    g = {"shuffled_path": lambda: from_arrays(ids[:-1], ids[1:], n=300),
         "sparse_er": lambda: gen_erdos_renyi(400, 1 / 400, seed=30),
         "edgeless": lambda: from_arrays([], [], n=6),
         "one_node": lambda: from_arrays([], [], n=1)}[name]()
    adjacency = csr_array((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    count, label = connected_components(adjacency, directed=False)
    want = [np.flatnonzero(label == c).tolist() for c in range(count)]
    got = list(components(g))
    assert [nodes.tolist() for nodes, _ in got] == sorted(w for w in want if len(w) > 1)
    for nodes, sub in got:
        alone = delete_nodes(g, np.setdiff1d(np.arange(g.n), nodes))
        assert alone.labels == tuple(nodes.tolist())
        assert sub.indptr.tobytes() == alone.indptr.tobytes()
        assert sub.indices.tobytes() == alone.indices.tobytes()


def test_scores_equal_each_component_swept_alone(size_regime):
    g, comps, isolated = component_union()
    cc, bc = closeness_centrality(g).values, betweenness_centrality(g).values
    for nodes, edges in comps:
        alone = from_edge_list(edges, n=nodes.size)
        assert bc[nodes].tobytes() == betweenness_centrality(alone).values.tobytes()
        # Alone, a node reaches all r = size - 1 others, so its closeness is
        # (r / D) * 1.0; in g the second factor is r / (n - 1).
        share = (nodes.size - 1) / (g.n - 1)
        assert cc[nodes].tobytes() == (closeness_centrality(alone).values * share).tobytes()
    assert not cc[isolated].any() and not bc[isolated].any()


# -- the sweep against its boolean-mask reference ---------------------------------------


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


@pytest.mark.parametrize("regime", ["product", "gather", "blocks"])
def test_sweep_matches_the_mask_reference(monkeypatch, regime):
    if regime == "blocks":
        # Blocks of 42 to 128 sources; no dense adjacency fits.
        monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", 300 * 64)
    else:
        force_kernel(monkeypatch, regime == "gather")
    for name, g in mask_oracle_graphs().items():
        dist, sigma, depth, bc, reach, totals = oracles.mask_sweep_dense(g.to_dense())
        for nodes, sub in components(g):
            assert kernel(sub) == ("product" if regime == "product" else "gather"), name
            step, width = centrality._step(sub), block_width(sub.n)
            assert (width < sub.n) == (regime == "blocks"), name
            for s0 in range(0, sub.n, width):
                s1 = min(s0 + width, sub.n)
                got_dist, got_sigma, got_sizes = centrality._forward(sub, step, s0, s1)
                # The reference is source-major over all of g's nodes, in
                # int32 and float64; every component has 129 to 32768 nodes,
                # and no count comes near 2^24.
                block = np.ix_(nodes[s0:s1], nodes)
                assert (got_dist.dtype, got_sigma.dtype) == (np.int16, np.float32), name
                got_dist, got_sigma = got_dist.astype(np.int32), got_sigma.astype(np.float64)
                assert got_dist.T.tobytes() == dist[block].tobytes(), (name, s0)
                assert got_sigma.T.tobytes() == sigma[block].tobytes(), (name, s0)
                assert got_sizes.tolist() == np.bincount(dist[block].ravel()).tolist(), (name, s0)
            # The closeness sums: each node reaches its whole component.
            assert centrality._sweep(sub, False)[0].tobytes() == totals[nodes].tobytes(), name
            assert (reach[nodes] == sub.n - 1).all(), name
        cc, got_bc = centrality._path_values(g, True, True)
        assert cc.tobytes() == closeness_centrality(g).values.tobytes(), name
        pos = totals > 0
        want_cc = np.zeros(g.n)
        want_cc[pos] = (reach[pos] / totals[pos]) * (reach[pos] / (g.n - 1))
        assert cc.tobytes() == want_cc.tobytes(), name
        # The backward pass sums floats in the kernel's own order.
        assert np.abs(got_bc - bc).max() <= 1e-12 * np.abs(bc).max(), name


@pytest.mark.parametrize("kernel_name", ["product", "gather"])
def test_backward_is_bit_equal_to_the_where_masked_backward(monkeypatch, kernel_name):
    # Masking by multiplication: every entry is finite and >= +0.0, so
    # x * 1 = x, x * 0 = +0.0 and d + 0.0 = d, the bits of the masked
    # copy and add.
    force_kernel(monkeypatch, kernel_name == "gather")
    for name, g in mask_oracle_graphs().items():
        for _, sub in components(g):
            assert kernel(sub) == kernel_name, name
            step = centrality._step(sub)
            dist, sigma, sizes = centrality._forward(sub, step, 0, sub.n)
            got = centrality._backward(sub, step, dist, sigma, sizes)
            want = oracles.masked_backward(step, dist, sigma, sizes.size - 1)
            assert got.tobytes() == want.tobytes(), name
            # The float32 counts are exact integers, and so is their cast.
            assert sigma.dtype == np.float32, name
            wide = centrality._backward(sub, step, dist, sigma.astype(np.float64), sizes)
            assert wide.tobytes() == got.tobytes(), name


# -- sparse levels ------------------------------------------------------------------


@pytest.fixture(params=["all", "none", "alternate"])
def sparse_levels(request, monkeypatch):
    """Every level that may step sparsely does ("all": at cost 0 any set
    is cheaper than a dense step), none does (at an infinite cost), or
    every other level does, starting with the first ("alternate"), so
    that dense levels follow sparse ones and the other way round."""
    if request.param == "none":
        monkeypatch.setattr(centrality, "_SPARSE_COST", float("inf"))
        return request.param
    monkeypatch.setattr(centrality, "_SPARSE_COST", 0)
    if request.param == "alternate":
        inner, calls = centrality._side, itertools.count()
        monkeypatch.setattr(centrality, "_side",
                            lambda *args: None if next(calls) % 2 else inner(*args))
    return request.param


def test_sparse_forward_matches_the_mask_reference(monkeypatch, sparse_levels):
    force_kernel(monkeypatch, True)
    graphs = {**mask_oracle_graphs(), "layered_chain": layered_chain()}
    for name, g in graphs.items():
        dist, sigma, *_ = oracles.mask_sweep_dense(g.to_dense())
        for nodes, sub in components(g):
            step = centrality._step(sub)
            for s0, s1 in ((0, sub.n), (0, 1), (sub.n // 2, sub.n // 2 + 7)):
                got_dist, got_sigma, got_sizes = centrality._forward(sub, step, s0, s1)
                block = np.ix_(nodes[s0:s1], nodes)
                # Only blocks with a first-layer source of the chain take
                # counts near 2^24 (see the test below).
                wide = name == "layered_chain" and s0 == 0
                assert got_dist.dtype == centrality._dist_dtype(sub.n), name
                assert got_sigma.dtype == (np.float64 if wide else np.float32), (name, s0, s1)
                got_dist, got_sigma = got_dist.astype(np.int32), got_sigma.astype(np.float64)
                assert got_dist.T.tobytes() == dist[block].tobytes(), (name, s0, s1)
                assert got_sigma.T.tobytes() == sigma[block].tobytes(), (name, s0, s1)
                assert got_sizes.tolist() == np.bincount(dist[block].ravel()).tolist(), name


def test_sparse_forward_switches_to_float64_mid_block(monkeypatch, sparse_levels):
    # Level 6 holds 2^20 paths a node from the end layers' sources and a
    # node has up to 32 neighbors, so the step from it runs in float64,
    # sigma included, whether it is dense (from the frontier pair, or from
    # positions after a sparse level), a push or a pull. One block of all
    # 128 sources ends by a pull when all levels may be sparse; a block of
    # source 0 alone ends by a push. "alternate" steps levels 2, 4 and 6
    # sparsely and 3, 5 and 7 densely in both blocks.
    force_kernel(monkeypatch, True)
    g = layered_chain()
    dist, sigma, *_ = oracles.mask_sweep_dense(g.to_dense())
    inner, routes = centrality._step(g), []

    def recording(X, out):
        routes.append(("dense", X.dtype))
        inner(X, out)

    def push(g, pos, vals, b, mask, out, _inner=centrality._push):
        routes.append(("push", out.dtype))
        return _inner(g, pos, vals, b, mask, out)

    def pull(g, pos, b, terms, _inner=centrality._pull):
        routes.append(("pull", terms(np.empty(0, np.int64)).dtype))
        return _inner(g, pos, b, terms)
    monkeypatch.setattr(centrality, "_push", push)
    monkeypatch.setattr(centrality, "_pull", pull)
    kinds = {"all": ["push"] * 5, "none": ["dense"] * 5,
             "alternate": ["push", "dense"] * 2 + ["push"]}[sparse_levels]
    last = {"all": ("pull", "push"), "none": ("dense", "dense"),
            "alternate": ("dense", "dense")}[sparse_levels]
    for s1, end in zip((g.n, 1), last):
        routes.clear()
        got_dist, got_sigma, got_sizes = centrality._forward(g, recording, 0, s1)
        assert got_dist.T.astype(np.int32).tobytes() == dist[:s1].tobytes(), s1
        assert got_sigma.dtype == np.float64, s1
        assert got_sigma.T.tobytes() == sigma[:s1].tobytes(), s1
        assert got_sizes.size - 1 == 7
        assert routes == [(k, np.float32) for k in kinds] + [(end, np.float64)], s1


def test_sparse_backward_is_bit_equal_to_the_where_masked_backward(monkeypatch, sparse_levels):
    # Blocks of b >= 2 sources may step sparsely; a block of one source
    # never does, since its gather sums each column pairwise.
    force_kernel(monkeypatch, True)
    for name, g in mask_oracle_graphs().items():
        for _, sub in components(g):
            step = centrality._step(sub)
            for s0, s1 in ((0, sub.n), (3, 4), (sub.n // 2, sub.n // 2 + 2)):
                dist, sigma, sizes = centrality._forward(sub, step, s0, s1)
                got = centrality._backward(sub, step, dist, sigma, sizes)
                want = oracles.masked_backward(step, dist, sigma, sizes.size - 1)
                assert got.tobytes() == want.tobytes(), (name, s0, s1)
                assert sigma.dtype == np.float32, name
                wide = centrality._backward(sub, step, dist, sigma.astype(np.float64), sizes)
                assert wide.tobytes() == got.tobytes(), (name, s0, s1)


def sparse_calls(monkeypatch) -> collections.Counter:
    """Counts of `_push` and `_pull` calls by the pass that made them."""
    counts, passes = collections.Counter(), []
    for name in ("_forward", "_backward"):
        def in_pass(*args, _inner=getattr(centrality, name), _name=name):
            passes.append(_name)
            try:
                return _inner(*args)
            finally:
                passes.pop()
        monkeypatch.setattr(centrality, name, in_pass)
    for name in ("_push", "_pull"):
        def counted(*args, _inner=getattr(centrality, name), _name=name):
            counts[passes[-1], _name] += 1
            return _inner(*args)
        monkeypatch.setattr(centrality, name, counted)
    return counts


@pytest.mark.parametrize("cost", [0, float("inf")])
def test_both_sparse_steps_run_in_both_passes_on_the_contact_days(
        monkeypatch, contact_files, cost):
    # Every sparse step possible at cost 0, none at an infinite cost.
    monkeypatch.setattr(centrality, "_SPARSE_COST", cost)
    counts = sparse_calls(monkeypatch)
    for g in load_daily_graphs(contact_files).graphs:
        compute_many(g, PATH_METRICS)
    if cost:
        assert not counts
    else:
        assert set(counts) == {(p, s) for p in ("_forward", "_backward")
                               for s in ("_push", "_pull")}, counts


def test_sparse_levels_run_at_the_default_cost(monkeypatch):
    # A 300-node contact mix at 2m/n^2 = 2.7% reaches its last pairs by a
    # pull and starts its backward pass by a push, with the same bytes as
    # an all-dense sweep.
    g = contact_mixing_graph()
    counts = sparse_calls(monkeypatch)
    cc, bc = centrality._path_values(g, True, True)
    assert counts == {("_forward", "_pull"): 1, ("_backward", "_push"): 1}
    monkeypatch.setattr(centrality, "_SPARSE_COST", float("inf"))
    want_cc, want_bc = centrality._path_values(g, True, True)
    assert cc.tobytes() == want_cc.tobytes() and bc.tobytes() == want_bc.tobytes()


def swept_path_values(g) -> tuple[np.ndarray, np.ndarray]:
    """`_path_values(g, True, True)` with every component swept."""
    reach, totals, bc = np.zeros(g.n), np.zeros(g.n), np.zeros(g.n)
    for nodes, sub in components(g):
        reach[nodes] = nodes.size - 1
        totals[nodes], bc[nodes] = centrality._sweep(sub, True)
    cc = np.zeros(g.n)
    pos = totals > 0
    cc[pos] = (reach[pos] / totals[pos]) * (reach[pos] / (g.n - 1))
    return cc, bc


def test_complete_components_skip_the_sweep(monkeypatch, contact_files):
    cliques = [from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)])
               for n in range(2, 9)]
    days = load_daily_graphs(contact_files).graphs
    # The first day beside households of 3 and 5 people.
    (u, v), (x, y), (w, z) = days[0].edges(), cliques[1].edges(), cliques[3].edges()
    mixed = from_arrays(np.concatenate([u, x + 150, w + 153]),
                        np.concatenate([v, y + 150, z + 153]), n=158)
    graphs = cliques + days + [mixed]
    want = [swept_path_values(g) for g in graphs]
    calls = []
    inner = centrality._sweep

    def counting(g, *args):
        calls.append(g.n)
        return inner(g, *args)
    built = []

    class CountedGraph(Graph):
        def __init__(self, n, *args):
            built.append(n)
            super().__init__(n, *args)
    monkeypatch.setattr(centrality, "_sweep", counting)
    monkeypatch.setattr(centrality, "Graph", CountedGraph)
    for g, (cc, bc) in zip(graphs, want):
        got_cc, got_bc = centrality._path_values(g, True, True)
        assert got_cc.tobytes() == cc.tobytes() and got_bc.tobytes() == bc.tobytes(), g.n
    # Only the days' 150-node components, which are not complete, are swept.
    assert calls == [150] * 4
    # A clique is judged on its CSR slice and a connected day is swept as it
    # is, so only the mixed graph's 150-node component becomes a new Graph.
    assert built == [150]


def layered_chain(layers: int = 8, width: int = 16):
    """`layers` layers of `width` nodes, each pair of adjacent layers joined
    as a complete bipartite graph: a first-layer source reaches each node
    of layer l by width^(l - 1) shortest paths."""
    edges = [(l * width + i, (l + 1) * width + j) for l in range(layers - 1)
             for i in range(width) for j in range(width)]
    return from_edge_list(edges, n=layers * width)


@pytest.mark.parametrize("regime", ["product", "gather", "blocks"])
def test_forward_moves_to_float64_before_counts_pass_float32(monkeypatch, regime):
    if regime == "blocks":
        # Blocks of 32 sources: two layers each.
        monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", 128 * 32)
    else:
        force_kernel(monkeypatch, regime == "gather")
    g = layered_chain()
    dist, sigma, depth, *_ = oracles.mask_sweep_dense(g.to_dense())
    assert sigma.max() == 2.0**24 and depth == 7
    inner, width = centrality._step(g), block_width(g.n)
    assert kernel(g) == ("product" if regime == "product" else "gather")
    assert (width < g.n) == (regime == "blocks")
    for s0 in range(0, g.n, width):
        s1 = s0 + width
        dtypes = []

        def recording(X, out):
            dtypes.append(X.dtype)
            inner(X, out)
        got_dist, got_sigma, got_sizes = centrality._forward(g, recording, s0, s1)
        assert got_dist.dtype == np.int8, s0
        assert got_dist.T.astype(np.int32).tobytes() == dist[s0:s1].tobytes(), s0
        assert got_sigma.T.astype(np.float64).tobytes() == sigma[s0:s1].tobytes(), s0
        got_depth = got_sizes.size - 1
        assert got_depth == dist[s0:s1].max(), s0
        # From a first- or last-layer source the level-6 frontier holds
        # 16^5 = 2^20 paths a node and a node has up to 32 neighbors, so the
        # last step could pass 2^24 and runs in float64, and sigma with it.
        # Other sources never come near it.
        ends = s0 < 16 or s1 > g.n - 16
        assert dtypes == ([np.float32] * 5 + [np.float64] if ends
                          else [np.float32] * (got_depth - 1)), s0
        assert got_sigma.dtype == (np.float64 if ends else np.float32), s0


def test_one_block_and_multi_block_sweeps_agree(monkeypatch):
    rng = np.random.default_rng(23)
    graphs = [gen_barabasi_albert(200, 3, seed=12), gen_duplication_divergence(150, 0.4, seed=13)]
    for _ in range(15):
        n = int(rng.integers(3, 40)) + 3
        graphs.append(from_edge_list(
            oracles.random_edges(rng, n - 3, float(rng.uniform(0.05, 0.3))), n=n))
    force_kernel(monkeypatch, True)
    one = [centrality._path_values(g, True, True) for g in graphs]
    for budget in (1, 64, 2000):
        monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", budget)
        for g, (cc, bc) in zip(graphs, one):
            got_cc, got_bc = centrality._path_values(g, True, True)
            assert got_cc.tobytes() == cc.tobytes(), budget
            assert np.abs(got_bc - bc).max() <= 1e-12 * max(np.abs(bc).max(), 1.0), budget
    assert block_width(graphs[0].n) == 10


def connected_with_m_edges(n: int, ms, seed: int) -> dict:
    """Connected graphs on n nodes with each of `ms` edges: a path, plus
    the first of a fixed random order of other node pairs."""
    rng = np.random.default_rng(seed)
    path = [(i, i + 1) for i in range(n - 1)]
    u, v = gen_erdos_renyi(n, 0.02, seed=10).edges()
    extra = [(a, b) for a, b in zip(u.tolist(), v.tolist()) if b != a + 1]
    extra = [extra[i] for i in rng.permutation(len(extra))]
    return {m: from_edge_list(path + extra[:m - (n - 1)], n=n) for m in ms}


def test_gather_and_product_kernels_agree_around_the_density_switch(monkeypatch):
    # 2m < n^2 / 100 gathers: at n = 600, above the node floor, that is
    # m <= 1799.
    n = 600
    sides = {1780: "gather", 1799: "gather", 1800: "product", 1820: "product"}
    graphs = connected_with_m_edges(n, sides, seed=27)
    picked = {}
    for m, g in graphs.items():
        assert g.m == m and len(list(centrality._components(g))) == 1
        assert kernel(g) == sides[m], m
        picked[m] = centrality._forward(g, centrality._step(g), 0, n)
    for forced in (False, True):
        force_kernel(monkeypatch, forced)
        for m, g in graphs.items():
            dist, sigma, sizes = centrality._forward(g, centrality._step(g), 0, n)
            assert dist.tobytes() == picked[m][0].tobytes(), (m, forced)
            assert sigma.tobytes() == picked[m][1].tobytes(), (m, forced)
            assert sizes.tolist() == picked[m][2].tolist(), (m, forced)


def test_step_gathers_below_the_node_floor():
    # Both are well above the gather density (2m/n^2 about 30% and 5%);
    # only the node count keeps the first off the dense product.
    assert centrality._PRODUCT_MIN_NODES == 512
    assert kernel(gen_erdos_renyi(300, 0.3, seed=9)) == "gather"
    assert kernel(gen_erdos_renyi(600, 0.05, seed=8)) == "product"


def test_no_dense_adjacency_below_the_node_floor(monkeypatch, contact_files):
    built = []
    to_dense = Graph.to_dense

    def recording(g, dtype=np.float64):
        built.append(g.n)
        return to_dense(g, dtype)
    monkeypatch.setattr(Graph, "to_dense", recording)
    # The bundled contact days are 150-node components at 2m/n^2 = 5%.
    for g in load_daily_graphs(contact_files).graphs:
        compute_many(g, PATH_METRICS)
    assert built == []
    # A 300-node and a 600-node component, both dense, in one graph.
    small, large = gen_erdos_renyi(300, 0.3, seed=9), gen_erdos_renyi(600, 0.05, seed=8)
    (u, v), (x, y) = small.edges(), large.edges()
    compute_many(from_arrays(np.concatenate([u, x + 300]), np.concatenate([v, y + 300]),
                             n=900), PATH_METRICS)
    assert set(built) == {600}


def contact_mixing_graph(n: int = 300, links: int = 4, seed: int = 31):
    """The mixing part of a contact day: each of n people starts `links`
    pairs with others drawn at random (2m/n^2 about 2.7% at n = 300)."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for a in range(n):
        started = 0
        while started < links:
            b = int(rng.integers(n))
            pair = (min(a, b), max(a, b))
            if a != b and pair not in pairs:
                pairs.add(pair)
                started += 1
    return from_edge_list(sorted(pairs), n=n)


@pytest.mark.parametrize("name", ["er", "mixing"])
def test_small_dense_components_gather_within_the_product_tolerance(monkeypatch, name):
    # Components under the node floor now gather where they used to take
    # the product: closeness keeps its bits, betweenness sums in gather
    # order, and no ranking moves under the tie rule.
    g = gen_erdos_renyi(300, 0.1, seed=3) if name == "er" else contact_mixing_graph()
    assert len(list(centrality._components(g))) == 1
    assert 2 * g.m >= centrality._GATHER_DENSITY * g.n * g.n
    assert kernel(g) == "gather"
    gathered = compute_many(g, PATH_METRICS)
    force_kernel(monkeypatch, False)
    assert kernel(g) == "product"
    multiplied = compute_many(g, PATH_METRICS)
    cc, bc = (gathered[m].values for m in PATH_METRICS)
    want_cc, want_bc = (multiplied[m].values for m in PATH_METRICS)
    assert cc.tobytes() == want_cc.tobytes()
    assert np.abs(bc - want_bc).max() <= 1e-12 * np.abs(want_bc).max()
    for m in PATH_METRICS:
        assert ranking(gathered[m]).tolist() == ranking(multiplied[m]).tolist(), m


def sweep_peak(g, betweenness: bool = True) -> int:
    tracemalloc.start()
    try:
        centrality._path_values(g, True, betweenness)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("g, regime, bound", [
    (gen_barabasi_albert(600, 3, seed=8), "gather", 4.3),
    (gen_erdos_renyi(600, 0.05, seed=8), "product", 5.1)], ids=["gather", "product"])
def test_sweep_peak_memory(g, regime, bound):
    # One block of all n sources. The backward pass holds the peak: three
    # float64 n x n arrays (delta, the coefficients and their product), the
    # float32 sigma, the int16 dist and one reused one-byte level mask,
    # 3.875 n^2 float64s, plus the float64 dense adjacency for the product:
    # 4.875 (4.95 measured). The gather kernel builds no adjacency (4.12
    # measured; its row gathers add up to max-degree x n floats). The
    # forward pass holds less: dist, sigma, a float32 frontier pair and a
    # one-byte mask, plus the adjacency in float32. Holding a float32 and a
    # float64 adjacency at once reads 5.45.
    assert kernel(g) == regime
    assert sweep_peak(g) / (g.n * g.n * 8) < bound


def test_sweep_peak_memory_scales_with_the_block(monkeypatch):
    g = gen_barabasi_albert(600, 3, seed=8)
    monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", g.n * 64)
    assert kernel(g) == "gather"
    # 3.875 n x b float64s at the backward peak, the level mask included,
    # and no n x n array; the neighbor lists, CSR copies and a step's row
    # gathers add about 0.6 n x b at this size (4.51 measured).
    assert sweep_peak(g) / (g.n * 64 * 8) < 4.7


def test_forward_peak_memory_across_blocks(monkeypatch):
    # Closeness alone runs only forward passes, ten blocks of 64 sources.
    # One block holds its int16 dist, float32 sigma, float32 frontier pair
    # and one-byte mask, 1.875 n x b float64s, plus about 0.6 as above
    # (2.49 measured). Keeping the last block's dist and sigma alive into
    # the next forward pass adds 0.75 (3.24 measured).
    g = gen_barabasi_albert(600, 3, seed=8)
    monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", g.n * 64)
    assert sweep_peak(g, betweenness=False) / (g.n * 64 * 8) < 2.6


@pytest.mark.parametrize("regime", ["product", "gather"])
def test_forward_peak_stays_below_the_backward_peak(monkeypatch, regime):
    # One block of all 128 sources of the layered chain, stepped densely:
    # the last forward step runs in float64 (see above), so the forward
    # pass ends holding dist, sigma and a frontier pair in float64 and the
    # mask, 3.375 n^2 float64s, with the float32 pair freed before the
    # float64 one is allocated. The backward pass holds the float64 sigma
    # beside its three float64 arrays, 4.375. The product adds its float64
    # adjacency to both (forward 3.78 and backward 4.77 measured gathering,
    # 4.79 and 5.78 multiplying).
    force_kernel(monkeypatch, regime == "gather")
    monkeypatch.setattr(centrality, "_SPARSE_COST", float("inf"))
    g = layered_chain()
    step = centrality._step(g)
    tracemalloc.start()
    try:
        dist, sigma, sizes = centrality._forward(g, step, 0, g.n)
        forward = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        centrality._backward(g, step, dist, sigma, sizes)
        backward = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Allocating the float64 pair before freeing the float32 one would
    # lift the forward peak by a whole n x n float64 array, to the
    # backward pass's own.
    assert sigma.dtype == np.float64
    assert (backward - forward) / (g.n * g.n * 8) > 0.5


def test_distances_take_the_smallest_integer_type_that_holds_n_minus_1():
    # Judged on the type alone at the int16 and int32 edges, where an n x n
    # array would take from 1 GiB.
    assert [centrality._dist_dtype(n) for n in (2, 128, 129, 32768, 32769)] == \
        [np.int8, np.int8, np.int16, np.int16, np.int32]
    # A path of n nodes puts its ends n - 1 apart, and each end's total
    # distance n (n - 1) / 2 passes the int8 range: dist.sum accumulates
    # in int64.
    for n, dtype in ((128, np.int8), (129, np.int16)):
        g = from_edge_list([(i, i + 1) for i in range(n - 1)], n=n)
        dist, _, sizes = centrality._forward(g, centrality._step(g), 0, 1)
        assert dist.dtype == dtype and dist[-1, 0] == n - 1 and sizes.size == n
        totals, _ = centrality._sweep(g, False)
        assert totals[0] == totals[-1] == n * (n - 1) // 2


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


def scores_of(vals) -> centrality.CentralityScores:
    return centrality.CentralityScores(Metric.BETWEENNESS, np.array(vals, dtype=float))


def test_ranking_ties_absorb_summation_noise():
    # Exact ties of 3.0 with ulp-sized noise, as summation order leaves
    # them, rank by id; plain descending order would put 5 first.
    up, down = np.nextafter(3.0, 4.0), np.nextafter(3.0, 2.0)
    vals = [1.0, up, 3.0, down, 2.0, np.nextafter(up, 4.0)]
    assert ranking(scores_of(vals)).tolist() == [1, 2, 3, 5, 4, 0]
    assert top_k(scores_of(vals), 3).tolist() == [1, 2, 3]
    # Gaps count against the largest |score| (here 1e-10): 1e-11 ties,
    # 1e-9 does not.
    assert ranking(scores_of([0.5, 0.5 + 1e-11, 100.0, 0.5 - 1e-9])).tolist() == [2, 0, 1, 3]
    assert ranking(scores_of([-100.0, 0.5 + 1e-11, 0.5, 0.5 - 1e-9])).tolist() == [1, 2, 3, 0]
    # Adjacent gaps within the tolerance chain into one tie.
    assert ranking(scores_of([0.0, 0.6e-12, 1.2e-12, 1.0])).tolist() == [3, 0, 1, 2]
    # Without any spread, every score ties.
    assert ranking(scores_of([0.0, 0.0, 0.0])).tolist() == [0, 1, 2]
    assert ranking(scores_of([])).tolist() == []


BLAS_SCRIPT = """
import hashlib, json
from vaxnet import betweenness_centrality, gen_barabasi_albert, gen_duplication_divergence
from vaxnet import centrality
from vaxnet.graph import Graph
out = {}
for name, g in (("ba", gen_barabasi_albert(1000, 50, seed=1)),
                ("dd", gen_duplication_divergence(1000, 0.4, seed=1))):
    scores = betweenness_centrality(g)
    out[name] = {"kernels": [centrality._step(Graph(nodes.size, *csr)).__name__ == "gather"
                             for nodes, *csr in centrality._components(g)],
                 "ranking": centrality.ranking(scores).tolist(),
                 "bytes": hashlib.sha256(scores.values.tobytes()).hexdigest()}
print(json.dumps(out))
"""


def test_betweenness_rankings_do_not_depend_on_blas_threads():
    src = str(Path(centrality.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", BLAS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    one, two = runs
    # BA(1000, 50) steps by BLAS products, whose sums may split by thread;
    # its ranking may not move. DD(1000, 0.4) gathers, in a fixed order.
    assert one["ba"]["kernels"] == [False]
    assert one["ba"]["ranking"] == two["ba"]["ranking"]
    assert one["dd"]["kernels"] == [True]
    assert one["dd"]["bytes"] == two["dd"]["bytes"]


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
    run_centrality(star5, Metric.DEGREE, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,score,rank"
    assert lines[1] == "0,4.0,1"
    assert lines[2] == "1,1.0,2"


def test_scores_csv_export_with_labels(tmp_path, star5):
    out = tmp_path / "scores.csv"
    labelled = Graph(star5.n, star5.indptr, star5.indices, labels=(1200, 1300, 1500, 7, -3))
    run_centrality(labelled, Metric.DEGREE, out)
    assert out.read_text() == ("node_id,label,score,rank\n"
                               "0,1200,4.0,1\n"
                               "1,1300,1.0,2\n"
                               "2,1500,1.0,3\n"
                               "3,7,1.0,4\n"
                               "4,-3,1.0,5\n")
