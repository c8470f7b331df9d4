"""Graph construction, deletion, matvec, and edge-list round trips."""

import re

import numpy as np
import pytest

from vaxnet import (DegreeStats, EmptyGraphError, degree_stats, delete_nodes,
                    from_arrays, from_edge_list, gen_barabasi_albert, gen_erdos_renyi,
                    lambda_max, read_edge_list, write_edge_list)
from vaxnet.graph import Graph

import oracles


def check_csr_invariants(g):
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.indices.size
    assert np.all(np.diff(g.indptr) >= 0)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        # sorted, strictly increasing, no self loop
        assert np.all(np.diff(nbrs) > 0)
        assert v not in nbrs
    # symmetry: every arc has its mirror
    for v in range(g.n):
        for w in g.neighbors(v).tolist():
            assert g.has_edge(w, v)


def test_from_edge_list_triangle(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert triangle.neighbors(0).tolist() == [1, 2]
    check_csr_invariants(triangle)


def test_duplicates_and_self_loops_collapse():
    g = from_edge_list([(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert not g.has_edge(2, 2)
    check_csr_invariants(g)


def test_explicit_n_keeps_isolated_nodes():
    g = from_edge_list([(0, 1)], n=5)
    assert g.n == 5
    assert g.degrees.tolist() == [1, 1, 0, 0, 0]


def test_n_too_small_rejected():
    with pytest.raises(ValueError):
        from_edge_list([(0, 4)], n=3)


def test_negative_ids_rejected():
    with pytest.raises(ValueError):
        from_edge_list([(-1, 2)])


def test_empty_graph():
    g = from_edge_list([], n=0)
    assert g.n == 0 and g.m == 0
    g2 = from_edge_list([], n=7)
    assert g2.n == 7 and g2.m == 0


def messy_copy(rng, n, edges):
    """The same edge set shuffled, with some pairs flipped or repeated and
    self loops added."""
    pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    pairs += [pairs[i] for i in rng.integers(0, len(pairs), size=len(pairs) // 2)]
    pairs += [(w, w) for w in rng.integers(0, n, size=3).tolist()]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def test_random_graphs_match_dense_reference():
    rng = np.random.default_rng(42)
    mess = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 14))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.1, 0.9)))
        g = from_edge_list(edges, n=n)
        check_csr_invariants(g)
        A = oracles.dense_from_edges(n, edges)
        assert np.array_equal(g.to_dense(), A)
        assert g.m == int(A.sum()) // 2
        # matvec against the dense product
        x = rng.normal(size=n)
        assert np.allclose(g.matvec(x), A @ x, atol=1e-12)
        # input order and orientation do not matter
        assert from_edge_list(messy_copy(mess, n, edges), n=n) == g


def test_edges_returns_canonical_pairs(k4):
    u, v = k4.edges()
    assert np.all(u < v)
    assert sorted(zip(u.tolist(), v.tolist())) == [(0, 1), (0, 2), (0, 3),
                                                   (1, 2), (1, 3), (2, 3)]


def test_delete_single_node_from_triangle(triangle):
    g = delete_nodes(triangle, [0])
    assert g.n == 2
    assert g.m == 1
    assert g.labels == (1, 2)
    check_csr_invariants(g)


def test_delete_hub_isolates_leaves(star5):
    g = delete_nodes(star5, [0])
    assert g.n == 4
    assert g.m == 0
    assert g.labels == (1, 2, 3, 4)


def test_delete_nothing_is_identity(k4):
    g = delete_nodes(k4, [])
    assert g.n == 4 and g.m == 6
    assert g.labels == (0, 1, 2, 3)


def test_delete_all_nodes(k4):
    g = delete_nodes(k4, range(4))
    assert g.n == 0 and g.m == 0


def test_delete_out_of_range_rejected(k4):
    with pytest.raises(ValueError):
        delete_nodes(k4, [4])
    with pytest.raises(ValueError):
        delete_nodes(k4, [-1])


def test_delete_matches_dense_submatrix():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        edges = oracles.random_edges(rng, n, 0.5)
        g = from_edge_list(edges, n=n)
        k = int(rng.integers(0, n))
        victims = rng.choice(n, size=k, replace=False)
        sub = delete_nodes(g, victims)
        keep = np.setdiff1d(np.arange(n), victims)
        A = oracles.dense_from_edges(n, edges)[np.ix_(keep, keep)]
        assert np.array_equal(sub.to_dense(), A)
        assert sub.labels == tuple(int(i) for i in keep)
        check_csr_invariants(sub)


def test_delete_composes():
    rng = np.random.default_rng(11)
    edges = oracles.random_edges(rng, 10, 0.4)
    g = from_edge_list(edges, n=10)
    once = delete_nodes(g, [1, 3, 8])
    # removing {1,3} then {8} must equal removing {1,3,8}; the second call
    # uses re-indexed ids, so map through the labels
    step1 = delete_nodes(g, [1, 3])
    pos8 = step1.labels.index(8)
    twice = delete_nodes(step1, [pos8])
    assert once.n == twice.n
    assert np.array_equal(once.indptr, twice.indptr)
    assert np.array_equal(once.indices, twice.indices)
    assert once.labels == twice.labels


def test_labels_carried_through_delete():
    g = from_edge_list([(0, 1), (1, 2)], labels=["a", "b", "c"])
    sub = delete_nodes(g, [0])
    assert sub.labels == ("b", "c")


def test_degree_stats_examples(k4, star5, path3):
    assert degree_stats(k4) == DegreeStats(3.0, 3, 3)
    assert degree_stats(star5) == DegreeStats(8 / 5, 4, 1)
    assert degree_stats(path3) == DegreeStats(4 / 3, 2, 1)


def test_degree_stats_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        degree_stats(from_edge_list([], n=0))


def test_immutable_arrays(k4):
    with pytest.raises(ValueError):
        k4.indices[0] = 99
    with pytest.raises(ValueError):
        k4.indptr[0] = 1


def test_fingerprint_distinguishes_topology(k4, cycle4):
    assert k4.fingerprint != cycle4.fingerprint
    again = from_edge_list([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert k4.fingerprint == again.fingerprint


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    edges = oracles.random_edges(rng, 9, 0.4)
    g = from_edge_list(edges, n=9)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back == Graph(g.n, g.indptr, g.indices)


def test_edge_list_round_trip_keeps_isolated(tmp_path):
    g = from_edge_list([(0, 1)], n=4)
    path = tmp_path / "iso.edges"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n == 4
    assert back.m == 1


def test_read_edge_list_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n2 3 4\n")
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list(path)


@pytest.mark.parametrize("text, line", [("0 1\n1 x\n", 2), ("# nodes abc\n0 1\n", 1),
                                        ("0 1\n\n2 1.5\n", 3)],
                         ids=["edge", "nodes-header", "after-blank-line"])
def test_read_edge_list_names_the_line_of_a_non_integer(tmp_path, text, line):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.edges: line {line}: invalid literal for int"):
        read_edge_list(path)


@pytest.mark.parametrize("text, line, message", [
    ("# nodes 2\n0 1\n0 5\n", 1, "n=2 too small for node id 5"),
    ("0 1\n# nodes -3\n", 2, "node count must be non-negative"),
    ("# nodes 99999999999999999999\n0 1\n", 1, "node count outside the int64 range"),
], ids=["below-largest-id", "negative", "beyond-int64"])
def test_read_edge_list_names_a_bad_node_count(tmp_path, text, line, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^.*bad\.edges: line {line}: {message}$"):
        read_edge_list(path)


@pytest.mark.parametrize("text, message", [
    ("# nodes 4\n0 1\n2 -1\n", "node ids must be non-negative"),
    ("0 1\n1 2\n0 99999999999999999999\n", "node id outside the int64 range"),
], ids=["negative", "beyond-int64"])
def test_read_edge_list_names_the_line_of_a_bad_id(tmp_path, text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.edges: line 3: {message}$"):
        read_edge_list(path)


def test_matvec_empty_graph():
    g = from_edge_list([], n=4)
    assert np.array_equal(g.matvec(np.ones(4)), np.zeros(4))


@pytest.mark.parametrize("u, v", [([], []), ([0], [1])], ids=["no-edges", "one-edge"])
def test_from_arrays_refuses_a_negative_node_count(u, v):
    with pytest.raises(ValueError, match="^node count must be non-negative$"):
        from_arrays(np.array(u, np.int64), np.array(v, np.int64), n=-3)


def test_from_arrays_mismatched_lengths():
    with pytest.raises(ValueError):
        from_arrays(np.array([0, 1]), np.array([1]))


# -- matvec -------------------------------------------------------------------------


@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0, 100.0], [1.0, 2.0], [[1.0], [2.0], [3.0]],
                               np.ones((3, 3)), 1.0],
                         ids=["longer", "shorter", "column", "matrix", "scalar"])
def test_matvec_rejects_misshaped_x(path3, x):
    with pytest.raises(ValueError, match=re.escape("x must have shape (3,)")):
        path3.matvec(x)


def test_matvec_rejects_misshaped_x_without_edges():
    with pytest.raises(ValueError, match=re.escape("x must have shape (4,)")):
        from_edge_list([], n=4).matvec(np.ones(5))


def assert_matvec_matches_dense(g, rng):
    A = g.to_dense()
    for x in (np.ones(g.n), rng.normal(size=g.n), rng.uniform(0.0, 1e6, size=g.n)):
        got = g.matvec(x)
        assert got.shape == (g.n,)
        scale = np.maximum(1.0, np.abs(A) @ np.abs(x))
        assert np.all(np.abs(got - A @ x) <= 1e-12 * scale)
        assert np.all(got[g.degrees == 0] == 0.0)


def one_row_graph():
    # CSR need not be symmetric: only row 2 has entries
    return Graph(5, [0, 0, 0, 4, 4, 4], [0, 1, 3, 4])


MATVEC_GRAPHS = {
    "empty_rows_first": lambda: from_edge_list([(3, 4), (4, 5), (3, 6), (5, 6)], n=7),
    "empty_rows_middle": lambda: from_edge_list([(0, 1), (0, 6), (5, 6), (1, 5)], n=7),
    "empty_rows_last": lambda: from_edge_list([(0, 1), (1, 2), (0, 3)], n=7),
    "empty_rows_everywhere": lambda: from_edge_list([(1, 4), (4, 7), (1, 7)], n=9),
    "single_edge": lambda: from_edge_list([(0, 1)]),
    "single_edge_among_isolated": lambda: from_edge_list([(2, 3)], n=6),
    "one_non_empty_row": one_row_graph,
}


@pytest.mark.parametrize("name", sorted(MATVEC_GRAPHS))
def test_matvec_matches_dense_product(name):
    assert_matvec_matches_dense(MATVEC_GRAPHS[name](), np.random.default_rng(5))


@pytest.mark.parametrize("family", ["erdos_renyi", "barabasi_albert"])
def test_matvec_matches_dense_product_after_top_degree_deletions(family):
    g = (gen_erdos_renyi(300, 0.3, seed=8) if family == "erdos_renyi"
         else gen_barabasi_albert(300, 5, seed=8))
    order = np.argsort(-g.degrees, kind="stable")
    rng = np.random.default_rng(9)
    for k in (0, 1, 30, 100, 200, 280, 299):
        assert_matvec_matches_dense(delete_nodes(g, order[:k]), rng)


def test_matvec_builds_no_entry_rows():
    g = delete_nodes(gen_barabasi_albert(200, 4, seed=3), np.arange(20))
    g.matvec(np.ones(g.n))
    lambda_max(g)
    assert g._rows is None
