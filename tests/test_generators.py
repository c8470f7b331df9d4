"""Random graph families: exact edge cases, distributions, determinism."""

import math
import re

import numpy as np
import pytest

from vaxnet import (GenSpec, degree_preserving_shuffle, from_edge_list,
                    gen_barabasi_albert, gen_duplication_divergence,
                    gen_erdos_renyi, gen_gnp, gen_random_geometric, generate,
                    lambda_max, seeding)
from vaxnet.experiments import ConfigError, config_from_dict
from vaxnet.generators import canonical_family, default_geometric_radius

import oracles
from test_graph import check_csr_invariants


ALL_SPECS = [
    GenSpec("gnp", 60, p=0.15, seed=3),
    GenSpec("erdos_renyi", 60, p=0.15, seed=3),
    GenSpec("duplication_divergence", 60, p=0.5, seed=3),
    GenSpec("barabasi_albert", 60, m=3, seed=3),
    GenSpec("random_geometric", 60, radius=0.25, seed=3),
]


def test_same_spec_same_graph():
    for spec in ALL_SPECS:
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)


def test_different_seed_different_graph():
    for spec in ALL_SPECS:
        a = generate(spec)
        b = generate(spec.with_seed(spec.seed + 1))
        if a.m or b.m:
            assert not (np.array_equal(a.indptr, b.indptr)
                        and np.array_equal(a.indices, b.indices))


def test_all_families_produce_simple_graphs():
    for spec in ALL_SPECS:
        g = generate(spec)
        assert g.n == spec.n
        check_csr_invariants(g)


# -- Bernoulli families -------------------------------------------------------


def test_gnp_extremes():
    assert gen_gnp(30, 0.0, seed=1).m == 0
    g = gen_gnp(30, 1.0, seed=1)
    assert g.m == 30 * 29 // 2
    assert gen_erdos_renyi(30, 0.0, seed=1).m == 0
    assert gen_erdos_renyi(30, 1.0, seed=1).m == 30 * 29 // 2


def test_gnp_trivial_sizes():
    assert gen_gnp(0, 0.5, seed=0).n == 0
    assert gen_gnp(1, 0.5, seed=0).m == 0
    assert gen_erdos_renyi(1, 0.5, seed=0).m == 0


def test_gnp_edge_count_concentrates():
    # skip-sampling must hit the binomial mean: 30 seeds, n=400, p=0.1
    counts = [gen_gnp(400, 0.1, seed=seeding.child_seed(5, "g", s)).m for s in range(30)]
    expected = 400 * 399 / 2 * 0.1
    assert abs(np.mean(counts) - expected) < 100  # ~6 sigma of the mean


def test_er_edge_count_concentrates():
    counts = [gen_erdos_renyi(400, 0.1, seed=seeding.child_seed(5, "e", s)).m
              for s in range(30)]
    assert abs(np.mean(counts) - 400 * 399 / 2 * 0.1) < 100


def test_gnp_and_er_degree_distributions_agree():
    # the fast and the naive construction sample the same family
    from scipy.stats import ks_2samp
    fast = np.concatenate([gen_gnp(400, 0.1, seed=seeding.child_seed(5, "g", s)).degrees
                           for s in range(30)])
    naive = np.concatenate([gen_erdos_renyi(400, 0.1, seed=seeding.child_seed(5, "e", s)).degrees
                            for s in range(30)])
    assert ks_2samp(fast, naive).pvalue > 0.01


def test_p_out_of_range_rejected():
    with pytest.raises(ValueError):
        gen_gnp(10, 1.5)
    with pytest.raises(ValueError):
        gen_erdos_renyi(10, -0.1)


# -- duplication divergence -------------------------------------------------------


def test_dd_smallest_case_is_single_edge():
    g = gen_duplication_divergence(2, 0.7, seed=9)
    assert g.m == 1 and g.has_edge(0, 1)


def test_dd_three_nodes_full_retention_is_path():
    # with p=1 the third node copies its anchor's whole neighborhood,
    # which is exactly the other seed node: always a path
    for s in range(10):
        g = gen_duplication_divergence(3, 1.0, seed=s)
        assert g.m == 2
        assert sorted(g.degrees.tolist()) == [1, 1, 2]


def test_dd_connected_for_positive_p():
    # redraw-on-empty keeps every joining node attached
    for s in range(5):
        g = gen_duplication_divergence(200, 0.3, seed=s)
        assert g.degrees.min() >= 1
        dist = oracles.bfs_dists(oracles.adjacency_sets(g.n, zip(*g.edges())), 0)
        assert all(d >= 0 for d in dist)


def test_dd_zero_retention_leaves_only_seed_edge():
    g = gen_duplication_divergence(50, 0.0, seed=4)
    assert g.m == 1
    assert g.degrees[2:].max() == 0


def test_dd_needs_two_nodes():
    with pytest.raises(ValueError):
        gen_duplication_divergence(1, 0.4)


def test_dd_heavier_tail_than_matched_bernoulli():
    # same mean degree, 30 seeds each: duplication piles mass on hubs
    dd_degs, means = [], []
    for s in range(30):
        g = gen_duplication_divergence(300, 0.4, seed=seeding.child_seed(100, "dd", s))
        dd_degs.append(g.degrees)
        means.append(g.degrees.mean())
    dbar = float(np.mean(means))
    er_degs = [gen_erdos_renyi(300, dbar / 299, seed=seeding.child_seed(100, "er", s)).degrees
               for s in range(30)]
    dd_all = np.concatenate(dd_degs)
    er_all = np.concatenate(er_degs)
    thr = 2 * dbar
    dd_tail = float((dd_all > thr).mean())
    er_tail = float((er_all > thr).mean())
    assert dd_tail > 2 * er_tail
    assert dd_all.max() > 3 * er_all.max()


# -- preferential attachment --------------------------------------------------------


def test_ba_exact_edge_count():
    for n, m in ((10, 1), (50, 3), (200, 7)):
        g = gen_barabasi_albert(n, m, seed=n + m)
        assert g.m == m * (n - m)


def test_ba_first_newcomer_links_all_seeds():
    g = gen_barabasi_albert(6, 5, seed=0)
    # n = m + 1: the only newcomer connects to every seed, giving a star
    assert g.m == 5
    assert g.degrees[5] == 5


def test_ba_two_nodes_one_edge():
    g = gen_barabasi_albert(2, 1, seed=1)
    assert g.m == 1 and g.has_edge(0, 1)


def test_ba_newcomers_keep_their_m_edges():
    # seed nodes may stay small, but every arriving node adds m edges
    for s in range(5):
        g = gen_barabasi_albert(120, 4, seed=s)
        assert g.degrees[4:].min() >= 4
        assert g.degrees[:4].min() >= 1


def test_ba_rich_get_richer():
    # early nodes should end with far larger degree than late arrivals
    g = gen_barabasi_albert(400, 3, seed=11)
    early = g.degrees[:20].mean()
    late = g.degrees[-20:].mean()
    assert early > 3 * late


def test_ba_parameter_validation():
    with pytest.raises(ValueError):
        gen_barabasi_albert(5, 0)
    with pytest.raises(ValueError):
        gen_barabasi_albert(5, 5)


# -- random geometric ------------------------------------------------------------------


def test_rgg_radius_sqrt2_is_complete():
    g = gen_random_geometric(25, radius=math.sqrt(2), seed=2)
    assert g.m == 25 * 24 // 2


def test_rgg_tiny_radius_is_edgeless():
    g = gen_random_geometric(200, radius=1e-9, seed=2)
    assert g.m == 0


def test_rgg_matches_brute_force_distances():
    # relies on the generator drawing its points as the first rng use
    for s in range(5):
        n, r = 60, 0.3
        pts = seeding.rng_from(seeding.child_seed(7, "bf", s)).random((n, 2))
        want = {(i, j) for i in range(n) for j in range(i + 1, n)
                if ((pts[i] - pts[j]) ** 2).sum() <= r * r}
        g = gen_random_geometric(n, radius=r, seed=seeding.child_seed(7, "bf", s))
        got = set(zip(*map(lambda a: a.tolist(), g.edges())))
        assert got == want


def test_rgg_default_radius_hits_target_degree():
    # interior nodes (a radius away from every wall) see the full disc, so
    # their mean degree estimates n * pi * r^2
    r = default_geometric_radius(800)
    inner = []
    for s in range(15):
        seed = seeding.child_seed(7, "rg", s)
        pts = seeding.rng_from(seed).random((800, 2))
        g = gen_random_geometric(800, seed=seed)
        interior = np.all((pts > r) & (pts < 1 - r), axis=1)
        inner.append(float(g.degrees[interior].mean()))
    assert np.mean(inner) == pytest.approx(100.0, rel=0.05)


def test_rgg_three_dimensions():
    g = gen_random_geometric(80, radius=0.4, seed=3, dim=3)
    check_csr_invariants(g)
    assert g.m > 0


def test_rgg_default_radius_needs_dim2():
    with pytest.raises(ValueError):
        gen_random_geometric(50, seed=1, dim=3)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rgg_matches_all_pairs_oracle(dim):
    # no radius, round fractions (1/10, 1/4, 1/3, 1/2), sqrt(dim) (every
    # pair) and beyond, and random radii
    radii = [0.0, 0.1, 0.25, 1 / 3, 0.5, math.sqrt(dim), 2.0 * math.sqrt(dim)]
    radii += (np.random.default_rng(dim).random(8) * 0.4).tolist()
    for k, radius in enumerate(radii):
        for n in (0, 1, 37, 300):
            seed = seeding.child_seed(11, "rgg", dim, k, n)
            got = gen_random_geometric(n, radius, seed=seed, dim=dim)
            assert got == oracles.all_pairs_geometric(n, radius, seed, dim), (radius, n)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rgg_pairs_at_exactly_the_radius(dim):
    # the radius is the distance of a drawn pair, which then sits on the
    # boundary of the pair test
    n = 400
    for s in range(6):
        seed = seeding.child_seed(12, "edge", dim, s)
        pts = seeding.rng_from(seed).random((n, dim))
        for j in (1 + s, 100 + s, n - 1):
            radius = float(np.sqrt(((pts[0] - pts[j]) ** 2).sum()))
            got = gen_random_geometric(n, radius, seed=seed, dim=dim)
            assert got == oracles.all_pairs_geometric(n, radius, seed, dim), (s, j)


# -- degree-preserving shuffle ------------------------------------------------------------


def test_shuffle_preserves_degree_sequence():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(6, 40))
        g = from_edge_list(oracles.random_edges(rng, n, 0.3), n=n)
        if g.m < 2:
            continue
        shuffled = degree_preserving_shuffle(g, seed=int(rng.integers(1 << 30)))
        assert np.array_equal(shuffled.degrees, g.degrees)
        check_csr_invariants(shuffled)


def test_shuffle_actually_moves_edges():
    g = gen_erdos_renyi(60, 0.2, seed=12)
    shuffled = degree_preserving_shuffle(g, seed=5)
    assert not np.array_equal(shuffled.indices, g.indices)


def test_shuffle_rigid_graph_unchanged(triangle):
    # every swap proposal on a triangle collides, so it must come back intact
    g = degree_preserving_shuffle(triangle, n_swaps=50, seed=8)
    assert g == triangle or np.array_equal(g.indices, triangle.indices)


def test_shuffle_needs_two_edges():
    with pytest.raises(ValueError):
        degree_preserving_shuffle(from_edge_list([(0, 1)]))


def test_shuffle_deterministic():
    g = gen_erdos_renyi(50, 0.2, seed=1)
    a = degree_preserving_shuffle(g, seed=9)
    b = degree_preserving_shuffle(g, seed=9)
    assert np.array_equal(a.indices, b.indices)


def test_shuffle_keeps_eigenvalue_concentrated():
    # same degree sequence keeps the dense-family spectrum pinned: each
    # shuffled eigenvalue within 1% of the fresh-draw ensemble mean
    base_lams = [lambda_max(gen_erdos_renyi(300, 0.3, seed=seeding.child_seed(3, "b", s))).lambda_max
                 for s in range(10)]
    mean_lam = float(np.mean(base_lams))
    g = gen_erdos_renyi(300, 0.3, seed=seeding.child_seed(3, "b", 0))
    for s in range(10):
        shuffled = degree_preserving_shuffle(g, n_swaps=g.m, seed=seeding.child_seed(3, "s", s))
        lam = lambda_max(shuffled).lambda_max
        assert abs(lam - mean_lam) / mean_lam < 0.01


# -- GenSpec ----------------------------------------------------------------------------


def test_family_aliases():
    assert canonical_family("ER") == "erdos_renyi"
    assert canonical_family("ba") == "barabasi_albert"
    assert canonical_family("Duplication-Divergence") == "duplication_divergence"
    with pytest.raises(ValueError):
        canonical_family("smallworld")
    with pytest.raises(ValueError, match="graph family must be a name, got 5"):
        canonical_family(5)


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec("gnp", 10)            # missing p
    with pytest.raises(ValueError):
        GenSpec("barabasi_albert", 10)  # missing m
    with pytest.raises(ValueError):
        GenSpec("duplication_divergence", 1, p=0.4)
    with pytest.raises(ValueError):
        GenSpec("random_geometric", 10, dim=3)  # default radius undefined


@pytest.mark.parametrize("radius", [-0.1, float("nan")])
def test_negative_or_nan_radius_rejected(radius):
    # NaN fails every comparison, so a `radius < 0` test would let it through
    with pytest.raises(ValueError, match="radius must be non-negative"):
        GenSpec("random_geometric", 50, radius=radius)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        gen_random_geometric(50, radius=radius)


def test_genspec_round_trip():
    networks = config_from_dict({"networks": [spec.to_dict() for spec in ALL_SPECS]}).networks
    assert networks == tuple(ALL_SPECS)
    with pytest.raises(ConfigError, match=re.escape("unknown networks keys ['bogus']")):
        config_from_dict({"networks": [{"family": "gnp", "n": 5, "p": 0.2, "bogus": 1}]})


@pytest.mark.parametrize("key", ["n", "m", "dim", "seed"])
@pytest.mark.parametrize("bad", [100.5, 3.7, True])
def test_network_entry_refuses_non_integral(key, bad):
    d = {"family": "rgg", "n": 200, "radius": 0.1, "dim": 2, "seed": 4}
    if key == "m":
        d = {"family": "ba", "n": 200, "m": 3, "seed": 4}
    with pytest.raises(ConfigError, match=f"^networks\\.{key} must be an integer"):
        config_from_dict({"networks": [{**d, key: bad}]})


def test_network_entry_takes_integral_floats():
    spec, rgg = config_from_dict({"networks": [
        {"family": "ba", "n": 200.0, "m": 3.0, "seed": 4.0},
        {"family": "rgg", "n": 50, "radius": 0.2, "dim": 3.0}]}).networks
    assert spec == GenSpec("ba", 200, m=3, seed=4)
    assert all(type(v) is int for v in (spec.n, spec.m, spec.seed))
    assert type(rgg.dim) is int and rgg.dim == 3


def test_integral_p_and_radius_read_as_floats():
    # the family label and the meta JSON show `p1.0`, not `p1`
    as_int, as_float = config_from_dict({"networks": [
        {"family": "gnp", "n": 10, "p": 1}, {"family": "gnp", "n": 10, "p": 1.0}]}).networks
    assert as_int == as_float and type(as_int.p) is float
    rgg = config_from_dict({"networks": [{"family": "rgg", "n": 10, "radius": 1}]}).networks[0]
    assert type(rgg.radius) is float and rgg.radius == 1.0


@pytest.mark.parametrize("gen, arg", [
    (gen_gnp, 0.5), (gen_erdos_renyi, 0.5), (gen_duplication_divergence, 0.5),
    (gen_barabasi_albert, 2), (gen_random_geometric, 0.2),
], ids=["gnp", "erdos_renyi", "duplication_divergence", "barabasi_albert", "random_geometric"])
def test_every_generator_refuses_a_negative_n(gen, arg):
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        gen(-3, arg)
