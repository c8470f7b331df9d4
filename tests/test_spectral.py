"""Dominant eigenvalue, interlacing under deletion, and threshold reports."""

import math

import numpy as np
import pytest

from vaxnet import (SirRates, SpectralResult, delete_nodes, from_edge_list,
                    lambda_max, spectral_bounds_check, threshold_check)
from vaxnet.graph import EmptyGraphError, Graph

import oracles


def test_complete_graph_eigenvalue(k4):
    res = lambda_max(k4)
    assert res.converged
    assert res.lambda_max == pytest.approx(3.0, abs=1e-8)


def test_star_eigenvalue(star5):
    # K_{1,4} has lambda = sqrt(4)
    assert lambda_max(star5).lambda_max == pytest.approx(2.0, abs=1e-8)


def test_single_edge():
    g = from_edge_list([(0, 1)])
    assert lambda_max(g).lambda_max == pytest.approx(1.0, abs=1e-10)


def test_edgeless_graph_is_zero():
    res = lambda_max(from_edge_list([], n=5))
    assert res.lambda_max == 0.0
    assert res.converged
    assert np.array_equal(res.vector, np.zeros(5))


def test_vector_is_left_out_of_equality_and_repr(k4):
    res = lambda_max(k4)
    assert res == SpectralResult(res.lambda_max, res.iterations, res.residual,
                                 res.converged, -res.vector)
    assert "vector" not in repr(res)


def test_bipartite_even_cycle_converges(cycle4):
    # spectrum of C4 is {2, 0, 0, -2}; an unshifted power iteration
    # oscillates between the +-2 eigenvectors
    res = lambda_max(cycle4)
    assert res.converged
    assert res.lambda_max == pytest.approx(2.0, abs=1e-8)


def test_long_even_path_converges():
    g = from_edge_list([(i, i + 1) for i in range(9)])
    res = lambda_max(g)
    assert res.converged
    assert res.lambda_max == pytest.approx(2 * math.cos(math.pi / 11), abs=1e-8)


def test_matches_jacobi_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 33))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.05, 0.9)))
        g = from_edge_list(edges, n=n)
        want = oracles.jacobi_lambda_max(oracles.dense_from_edges(n, edges))
        got = lambda_max(g)
        assert got.converged
        assert got.lambda_max == pytest.approx(want, abs=1e-6)


def test_matches_jacobi_on_disconnected_graphs():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n1, n2 = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        e1 = oracles.random_edges(rng, n1, 0.6)
        e2 = [(u + n1, v + n1) for u, v in oracles.random_edges(rng, n2, 0.6)]
        g = from_edge_list(e1 + e2, n=n1 + n2)
        want = oracles.jacobi_lambda_max(oracles.dense_from_edges(n1 + n2, e1 + e2))
        assert lambda_max(g).lambda_max == pytest.approx(want, abs=1e-6)


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    edges = oracles.random_edges(rng, 12, 0.4)
    g = from_edge_list(edges, n=12)
    perm = rng.permutation(12)
    g2 = from_edge_list([(int(perm[u]), int(perm[v])) for u, v in edges], n=12)
    assert lambda_max(g2).lambda_max == pytest.approx(lambda_max(g).lambda_max, abs=1e-8)


def test_deletion_never_increases_eigenvalue():
    # principal submatrices interlace: removing nodes cannot raise lambda
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.1, 0.8)))
        g = from_edge_list(edges, n=n)
        k = int(rng.integers(1, n))
        sub = delete_nodes(g, rng.choice(n, size=k, replace=False))
        assert lambda_max(sub).lambda_max <= lambda_max(g).lambda_max + 1e-7


def test_degree_sandwich(k4, star5):
    for g in (k4, star5):
        rep = spectral_bounds_check(g, lambda_max(g).lambda_max)
        assert rep.holds
    rep = spectral_bounds_check(star5, lambda_max(star5).lambda_max)
    assert rep.deg_avg == pytest.approx(1.6)
    assert rep.deg_max == 4.0


def test_degree_sandwich_random():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.1, 0.9)))
        if not edges:
            continue
        g = from_edge_list(edges, n=n)
        rep = spectral_bounds_check(g, lambda_max(g).lambda_max)
        assert rep.holds


def test_bounds_check_judges_the_lambda_it_is_given(star5):
    assert spectral_bounds_check(star5, 2.0).holds
    assert spectral_bounds_check(star5, 2.0).lambda_max == 2.0
    assert not spectral_bounds_check(star5, 1.0).holds    # below deg_avg 1.6
    assert not spectral_bounds_check(star5, 4.5).holds    # above deg_max 4


def test_bounds_need_an_edge():
    with pytest.raises(EmptyGraphError):
        spectral_bounds_check(from_edge_list([], n=3), 0.0)


def test_residual_reported_small(k4):
    res = lambda_max(k4, tol=1e-12)
    assert res.residual < 1e-12
    assert res.iterations >= 1


def test_non_convergence_reported_not_raised():
    g = from_edge_list([(i, i + 1) for i in range(20)])
    res = lambda_max(g, tol=1e-15, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.residual > 0


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": 0.0}, "tol must be positive"),
    ({"tol": -1.0}, "tol must be positive"),
    ({"tol": math.nan}, "tol must be positive"),
    ({"max_iter": 0}, "max_iter must be at least 1"),
    ({"max_iter": -5}, "max_iter must be at least 1"),
], ids=["tol_zero", "tol_negative", "tol_nan", "max_iter_zero", "max_iter_negative"])
def test_solver_settings_validated(k4, kwargs, message):
    with pytest.raises(ValueError, match=message):
        lambda_max(k4, **kwargs)
    # also before the early return of an edgeless graph
    with pytest.raises(ValueError, match=message):
        lambda_max(from_edge_list([], n=3), **kwargs)


def test_one_iteration_is_allowed(k4):
    res = lambda_max(k4, max_iter=1)
    assert res.iterations == 1


def test_threshold_check_contained_and_not():
    lam = 400.0
    hot = threshold_check(SirRates(0.4, 1.0 / 14.0), lam)
    assert hot.ratio == pytest.approx(5.6)
    assert hot.inv_lambda == pytest.approx(0.0025)
    assert not hot.contained
    cold = threshold_check(SirRates(0.0001, 1.0), lam)
    assert cold.contained
    assert cold.margin == pytest.approx(0.0025 - 0.0001)


def test_threshold_zero_lambda_always_contained():
    rep = threshold_check(SirRates(5.0, 1.0), 0.0)
    assert rep.contained
    assert rep.inv_lambda == math.inf


def test_rates_validation():
    with pytest.raises(ValueError):
        SirRates(0.4, 0.0)
    with pytest.raises(ValueError):
        SirRates(-0.1, 1.0)
    with pytest.raises(ValueError):
        threshold_check(SirRates(0.4, 1.0), -1.0)


# -- the power loop against its one-array-per-operation reference -------------


def solver_graphs():
    """Random graphs with isolated nodes, edgeless graphs, and what
    `delete_nodes` leaves of them."""
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.0, 0.3)))
        # nodes beyond the last edge's ends stay isolated
        g = from_edge_list(edges, n=n + int(rng.integers(0, 4)))
        yield g
        k = int(rng.integers(0, g.n + 1))
        yield delete_nodes(g, rng.choice(g.n, size=k, replace=False))
    yield from_edge_list([], n=0)
    yield from_edge_list([], n=7)


@pytest.mark.parametrize("tol, max_iter", [(1e-9, 50_000), (1e-12, 50_000), (1e-15, 7)],
                         ids=["default", "tight", "non_converged"])
def test_lambda_max_is_bit_equal_to_the_reference_power_loop(tol, max_iter):
    kinds, outcomes = set(), set()
    for g in solver_graphs():
        got = lambda_max(g, tol=tol, max_iter=max_iter)
        lam, iterations, residual, converged, vector = oracles.power_iteration(
            g, tol=tol, max_iter=max_iter)
        assert got.lambda_max.hex() == lam.hex()
        assert got.residual.hex() == residual.hex()
        assert (got.iterations, got.converged) == (iterations, converged)
        assert got.vector.dtype == vector.dtype
        assert got.vector.tobytes() == vector.tobytes()
        kinds.add((g.m > 0, bool(np.any(g.degrees == 0))))
        if g.m:
            outcomes.add(converged)
    # edgeless graphs, and graphs with edges with and without isolated nodes
    assert {(False, True), (True, True), (True, False)} <= kinds
    assert (False in outcomes) if max_iter == 7 else (outcomes == {True})


def test_matvec_with_kept_row_starts_equals_a_fresh_graph():
    rng = np.random.default_rng(22)
    for g in solver_graphs():
        for _ in range(2):
            g.matvec(rng.standard_normal(g.n))
        assert (g._segments is not None) == (g.m > 0)
        fresh = Graph(g.n, g.indptr.copy(), g.indices.copy())
        for _ in range(3):
            x = rng.standard_normal(g.n)
            want = fresh.matvec(x)
            assert g.matvec(x).tobytes() == want.tobytes()
            assert oracles.reduceat_matvec(g, x).tobytes() == want.tobytes()
