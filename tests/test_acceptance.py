"""Acceptance gate: one test per acceptance criterion.

Each test prints a single `[acceptance] ...: PASS/FAIL` line before
asserting (echoed in the terminal summary), so any pytest run doubles as
the checklist. Criteria with unreachable reference bands are asserted
faithfully anyway and fail honestly; the README explains each one.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vaxnet import (GenSpec, Intervention, Metric, SirParams, delete_nodes,
                    eigen_drop, ensemble, from_edge_list, gen_erdos_renyi,
                    generate, herd_equivalent, lambda_max, paired_t_test,
                    peak_and_final, plan_random, plan_topk, replicate_graphs, seeding,
                    simulate, t_cdf)
from vaxnet.centrality import (betweenness_centrality, closeness_centrality, compute,
                               degree_centrality, eigenvector_centrality)

import oracles

DATA_DIR = Path(__file__).parent / "data"
MASTER = 20_240_915

# filled by report(); echoed as a checklist in the terminal summary (conftest)
ACCEPTANCE_LINES: list[str] = []


def report(cid: str, ok: bool, detail: str) -> bool:
    line = f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


# -- criterion 1: dense-family eigendrop row --------------------------------------------


def test_criterion_1_er_degree_row():
    reps = 30
    k = 100
    orig, topk, rand = [], [], []
    for rep in range(reps):
        g = gen_erdos_renyi(1000, 0.4, seed=seeding.child_seed(MASTER, "c1", rep))
        orig.append(lambda_max(g).lambda_max)
        topk.append(eigen_drop(g, [plan_topk(compute(g, Metric.DEGREE), k)])[0].lambda_after)
        rand.append(eigen_drop(
            g, [plan_random(g, k, seed=seeding.child_seed(MASTER, "c1r", rep))])[0].lambda_after)
    o, t, r = map(lambda v: float(np.mean(v)), (orig, topk, rand))
    p = paired_t_test(topk, rand).p_value
    ok = (395 <= o <= 405) and (344 <= t <= 360) and (358 <= r <= 374) and p <= 0.05
    assert report("criterion 1 (eigendrop row, 1000-node Bernoulli graph)", ok,
                  f"orig {o:.2f} in [395,405], top-100-degree {t:.2f} in [344,360], "
                  f"random-100 {r:.2f} in [358,374], paired p={p:.2e}")


# -- criterion 2: directional ordering in every family/metric cell ------------------------


def test_criterion_2_all_families_directional():
    reps = 10
    k = 100
    specs = [GenSpec("erdos_renyi", 1000, p=0.4),
             GenSpec("gnp", 1000, p=0.4),
             GenSpec("duplication_divergence", 1000, p=0.4),
             GenSpec("barabasi_albert", 1000, m=50)]
    metrics = [Metric.DEGREE, Metric.BETWEENNESS, Metric.EIGENVECTOR]
    failures = []
    details = []
    for fi, spec in enumerate(specs):
        orig, rand = [], []
        topk = {m: [] for m in metrics}
        for rep in range(reps):
            g = generate(spec.with_seed(seeding.child_seed(MASTER, "c2", fi, rep)))
            orig.append(lambda_max(g).lambda_max)
            rand.append(eigen_drop(g, [plan_random(
                g, k, seed=seeding.child_seed(MASTER, "c2r", fi, rep))])[0].lambda_after)
            for m in metrics:
                topk[m].append(eigen_drop(g, [plan_topk(compute(g, m), k)])[0].lambda_after)
        o_mean = float(np.mean(orig))
        r_mean = float(np.mean(rand))
        for m in metrics:
            t_mean = float(np.mean(topk[m]))
            p = paired_t_test(topk[m], rand).p_value
            if not (t_mean < r_mean and p <= 0.05):
                failures.append(f"{spec.family}/{m.value}: topk {t_mean:.2f} vs "
                                f"rand {r_mean:.2f}, p={p:.3g}")
        details.append(f"{spec.family} orig {o_mean:.2f}")
        if spec.family == "barabasi_albert" and abs(o_mean - 129.38) > 0.15 * 129.38:
            failures.append(f"BA original {o_mean:.2f} outside 129.38 +- 15%")
        if spec.family == "duplication_divergence" and abs(o_mean - 15.2) > 0.25 * 15.2:
            failures.append(f"DD original {o_mean:.2f} outside 15.2 +- 25%")
    ok = not failures
    assert report("criterion 2 (directional ordering, all families x metrics)", ok,
                  "; ".join(details) + (f"; failures: {failures}" if failures else
                                        "; all 12 cells ordered with p <= 0.05"))


# -- criterion 3: herd-equivalent removal fractions ----------------------------------------


@pytest.fixture(scope="module")
def herd_reports():
    graphs = [gen_erdos_renyi(1000, 0.4, seed=seeding.child_seed(MASTER, "c3", rep))
              for rep in range(5)]
    metrics = (Metric.DEGREE, Metric.BETWEENNESS, Metric.EIGENVECTOR)
    return dict(zip(metrics, herd_equivalent(graphs, metrics, n_h_fraction=0.7,
                                             seed=seeding.child_seed(MASTER, "c3base"))))


def test_criterion_3a_degree_fraction_in_reference_band(herd_reports):
    frac = herd_reports[Metric.DEGREE].n_hs_fraction
    ok = 0.33 <= frac <= 0.50
    assert report("criterion 3a (degree herd-equivalent fraction in [33%, 50%])", ok,
                  f"got {frac:.1%} (target lambda "
                  f"{herd_reports[Metric.DEGREE].lambda_target:.2f})")


def test_criterion_3b_all_metrics_below_random_baseline(herd_reports):
    fracs = {m.value: rep.n_hs_fraction for m, rep in herd_reports.items()}
    ok = all(f < 0.70 for f in fracs.values())
    assert report("criterion 3b (herd-equivalent fraction < 70% for all metrics)", ok,
                  ", ".join(f"{k} {v:.1%}" for k, v in fracs.items()))


# -- criterion 4: intervention ordering of epidemic peaks -----------------------------------


def _peak_ordering(spec: GenSpec, label: str):
    params = SirParams(tau=0.4, recovery_days=14.0, initial_infected=5, t_max=30.0)
    arms = {
        "degree": (Intervention(2.0, "topk", 100, Metric.DEGREE),),
        "random": (Intervention(2.0, "random", 100),),
        "none": (),
    }
    seed = seeding.child_seed(MASTER, "c4", label)
    graphs = replicate_graphs(spec, 10, seed)
    peaks, late = {}, {}
    for arm, res in zip(arms, ensemble(graphs, params, list(arms.values()), seed=seed)):
        summ = peak_and_final(res.mean)
        peaks[arm] = summ.peak_infected
        tr = res.mean
        late[arm] = float(tr.i[-1])
    return peaks, late


def _check_ordering(label, peaks, late):
    ordered = peaks["degree"] < peaks["random"] < peaks["none"]
    collapsed = all(v < 0.10 * peaks["none"] for v in late.values())
    ok = ordered and collapsed
    assert report(f"criterion 4 (peak ordering + collapse, {label})", ok,
                  f"peaks degree {peaks['degree']:.1f} / random {peaks['random']:.1f} "
                  f"/ none {peaks['none']:.1f}; infected at horizon "
                  + ", ".join(f"{k} {v:.1f}" for k, v in late.items()))


def test_criterion_4_duplication_divergence_ordering():
    peaks, late = _peak_ordering(GenSpec("duplication_divergence", 1000, p=0.4), "dd")
    _check_ordering("duplication-divergence", peaks, late)


def test_criterion_4_dense_bernoulli_ordering():
    peaks, late = _peak_ordering(GenSpec("erdos_renyi", 1000, p=0.4), "er")
    _check_ordering("dense Bernoulli", peaks, late)


# -- criterion 5: contact-data pipeline on the bundled fixture ------------------------------


def test_criterion_5_contact_fixture_pipeline(tmp_path):
    from vaxnet.experiments import config_from_dict, run_ingest
    files = sorted(str(p) for p in DATA_DIR.glob("contacts_day*.txt"))
    cfg = config_from_dict({"seed": 4, "metrics": ["degree", "betweenness", "eigenvector"],
                            "ingest": {"replicates": 10}})
    run_ingest(cfg, files, tmp_path)
    rows = (tmp_path / "contact_summary.csv").read_text().splitlines()[1:]
    ordered = {}
    for row in rows:
        cells = row.split(",")
        metric = cells[0]
        o, t, r = float(cells[2]), float(cells[4]), float(cells[6])
        ordered[metric] = t < r < o
    daily = (tmp_path / "contact_daily.csv").read_text().splitlines()[1:]
    per_day_ok = all(float(c[6]) < float(c[7])
                     for c in (row.split(",") for row in daily))
    ok = len(ordered) == 3 and all(ordered.values()) and per_day_ok
    assert report("criterion 5 (ingest-to-table pipeline on bundled fixture)", ok,
                  f"aggregate ordering topk < random < original per metric: {ordered}; "
                  f"per-day ordering holds: {per_day_ok}")


# -- criterion 6: property suites ------------------------------------------------------------


def _all_small_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if bits >> i & 1]


def test_criterion_6a_centrality_oracle_equivalence():
    checked = 0
    rng = np.random.default_rng(601)

    def check(n, edges):
        nonlocal checked
        g = from_edge_list(edges, n=n)
        assert np.allclose(degree_centrality(g).values,
                           oracles.brute_degree(n, edges), atol=1e-8)
        if n >= 2:
            assert np.allclose(closeness_centrality(g).values,
                               oracles.brute_closeness(n, edges), atol=1e-8)
        assert np.allclose(betweenness_centrality(g).values,
                           oracles.brute_betweenness(n, edges), atol=1e-8)
        if g.m:
            A = oracles.dense_from_edges(n, edges)
            w, vecs = np.linalg.eigh(A)
            got = eigenvector_centrality(g).values
            if n == 1 or w[-1] - w[-2] > 1e-6:
                assert np.allclose(got, np.abs(vecs[:, -1]), atol=1e-6)
            else:
                # degenerate dominant eigenspace: the vector is not unique,
                # so equivalence means satisfying the eigen equation
                lam = float(got @ g.matvec(got))
                assert abs(lam - w[-1]) < 1e-6
                assert np.max(np.abs(g.matvec(got) - lam * got)) < 1e-6
        checked += 1

    for n in range(2, 6):          # every graph on up to 5 nodes
        for edges in _all_small_graphs(n):
            check(n, edges)
    for _ in range(250):           # random sample up to 10 nodes
        n = int(rng.integers(6, 11))
        check(n, oracles.random_edges(rng, n, float(rng.uniform(0.1, 0.9))))
    assert report("criterion 6a (centrality oracle equivalence, n <= 10)", True,
                  f"{checked} graphs checked (exhaustive n <= 5 + random n <= 10)")


def test_criterion_6b_lambda_vs_jacobi():
    rng = np.random.default_rng(602)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        edges = oracles.random_edges(rng, n, float(rng.uniform(0.05, 0.95)))
        g = from_edge_list(edges, n=n)
        want = oracles.jacobi_lambda_max(oracles.dense_from_edges(n, edges))
        got = lambda_max(g).lambda_max
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-6
    assert report("criterion 6b (power iteration vs Jacobi, n <= 32)", True,
                  f"200 graphs, worst |diff| {worst:.2e}")


def test_criterion_6c_interlacing_500_pairs():
    rng = np.random.default_rng(603)
    for _ in range(500):
        n = int(rng.integers(2, 28))
        g = from_edge_list(oracles.random_edges(rng, n, float(rng.uniform(0.05, 0.9))), n=n)
        k = int(rng.integers(1, n + 1))
        victims = rng.choice(n, size=k, replace=False)
        before = lambda_max(g).lambda_max
        after = lambda_max(delete_nodes(g, victims)).lambda_max
        assert after <= before + 1e-7
    assert report("criterion 6c (interlacing under deletion, 500 pairs)", True,
                  "lambda never increased")


def test_criterion_6d_degree_sandwich_100_graphs():
    from vaxnet import spectral_bounds_check
    rng = np.random.default_rng(604)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 40))
        g = from_edge_list(oracles.random_edges(rng, n, float(rng.uniform(0.05, 0.9))), n=n)
        if g.m == 0:
            continue
        assert spectral_bounds_check(g, lambda_max(g).lambda_max).holds
        done += 1
    assert report("criterion 6d (deg_avg <= lambda <= deg_max, 100 graphs)", True,
                  "bracket held on all 100")


def test_criterion_6e_sir_conservation_100_runs():
    rng = np.random.default_rng(605)
    for trial in range(100):
        n = int(rng.integers(5, 60))
        g = from_edge_list(oracles.random_edges(rng, n, 0.15), n=n)
        params = SirParams(tau=float(rng.uniform(0.0, 1.5)),
                           recovery_days=float(rng.uniform(2.0, 20.0)),
                           initial_infected=int(rng.integers(1, n + 1)),
                           t_max=30.0)
        ivs = ((Intervention(float(rng.uniform(0.0, 4.0)), "random",
                             int(rng.integers(0, n))),) if trial % 2 else ())
        tr = simulate(g, params, ivs, seed=int(rng.integers(1 << 30)))
        assert np.allclose(tr.s + tr.i + tr.r + tr.v, n)
    assert report("criterion 6e (SIR conservation on 100 runs)", True,
                  "s+i+r+v == n at every sampled instant")


def test_criterion_6f_t_cdf_symmetry_and_quadrature():
    worst = 0.0
    for df in (1, 2, 4, 9, 25, 50):
        for t in (-8.0, -2.7, -1.0, -0.1, 0.6, 1.9, 5.2, 9.0):
            assert t_cdf(t, df) + t_cdf(-t, df) == pytest.approx(1.0, abs=1e-12)
            diff = abs(t_cdf(t, df) - oracles.t_cdf_quadrature(t, df))
            worst = max(worst, diff)
            assert diff < 1e-8
    assert report("criterion 6f (t CDF symmetry + quadrature agreement)", True,
                  f"worst |diff| {worst:.2e}")


def test_criterion_6g_pipeline_byte_determinism(tmp_path):
    import yaml
    from vaxnet.cli import main
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "seed": 13, "replicates": 3, "k": 10, "metrics": ["degree"],
        "networks": [{"family": "erdos_renyi", "n": 80, "p": 0.25},
                     {"family": "duplication_divergence", "n": 80, "p": 0.4}],
        "sir": {"t_max": 8.0, "grid_dt": 0.5, "runs": 2,
                "interventions": [{"time": 1.0, "k": 10}]},
        "herd": {"fraction": 0.7, "replicates": 2},
    }))
    outs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        assert main(["table1", "--config", str(cfg_path), "--out", str(root / "t")]) == 0
        assert main(["herd", "--config", str(cfg_path), "--out", str(root / "h")]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(root / "s")]) == 0
        assert main(["generate", "--family", "gnp", "--n", "50", "--p", "0.2",
                     "--seed", "3", "--out", str(root / "g.edges")]) == 0
        blobs = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                blobs[str(path.relative_to(root))] = path.read_bytes()
        outs.append(blobs)
    assert outs[0].keys() == outs[1].keys()
    assert outs[0] == outs[1]
    assert report("criterion 6g (byte-identical repeated pipeline runs)", True,
                  f"{len(outs[0])} files compared byte-for-byte")


# -- criterion 7: epidemic threshold ------------------------------------------------------------


def test_criterion_7_threshold_behavior():
    # subcritical: star with 100 leaves has lambda = 10; beta/delta = 0.05
    star = from_edge_list([(0, i) for i in range(1, 101)])
    lam = lambda_max(star).lambda_max
    assert lam == pytest.approx(10.0, abs=1e-8)
    tau = 0.05 / 14.0
    params = SirParams(tau=tau, recovery_days=14.0, initial_infected=5, t_max=60.0)
    finals = []
    for rep in range(200):
        tr = simulate(star, params, seed=seeding.child_seed(MASTER, "c7", rep))
        finals.append((tr.r[-1] + tr.i[-1]) / star.n)
    sub_rate = float(np.mean(finals))
    seeded = 5 / star.n
    sub_ok = sub_rate < 5 * seeded

    # supercritical: the dense graph with beta/delta = 5.6 >> 1/400
    attack = []
    for rep in range(5):
        g = gen_erdos_renyi(1000, 0.4, seed=seeding.child_seed(MASTER, "c7g", rep))
        tr = simulate(g, SirParams(tau=0.4, recovery_days=14.0, initial_infected=5,
                                   t_max=30.0),
                      seed=seeding.child_seed(MASTER, "c7s", rep))
        attack.append(tr.r[-1] / g.n)
    super_rate = float(np.mean(attack))
    super_ok = super_rate > 0.5
    ok = sub_ok and super_ok
    assert report("criterion 7 (threshold: subcritical dies, supercritical spreads)", ok,
                  f"subcritical attack {sub_rate:.3f} < {5 * seeded:.3f}; "
                  f"supercritical attack {super_rate:.3f} > 0.5")
