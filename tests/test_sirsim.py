"""Event-driven SIR: conservation, timing, interventions, ensemble behavior."""

import math

import numpy as np
import pytest

from vaxnet import (Intervention, Metric, SirParams, ensemble, from_edge_list,
                    gen_duplication_divergence, gen_erdos_renyi, lambda_max,
                    peak_and_final, simulate)
from vaxnet.sirsim import _grid

import oracles


def star_graph(leaves):
    return from_edge_list([(0, i) for i in range(1, leaves + 1)])


def conserved(tr):
    return np.allclose(tr.s + tr.i + tr.r + tr.v, tr.n)


# -- basic dynamics -----------------------------------------------------------


def test_zero_tau_nobody_else_infected(k4):
    params = SirParams(tau=0.0, recovery_days=14.0, initial_infected=2, t_max=20.0)
    tr = simulate(k4, params, seed=1)
    assert tr.i[tr.times < 14.0].max() == 2
    assert tr.i[tr.times < 14.0].min() == 2
    # at day 14 both recover in one step
    assert tr.i[tr.times >= 14.0].max() == 0
    assert tr.r[-1] == 2
    assert conserved(tr)


def test_edgeless_graph_outbreak_stops():
    g = from_edge_list([], n=30)
    params = SirParams(initial_infected=5, t_max=20.0)
    tr = simulate(g, params, seed=2)
    assert tr.r[-1] == 5
    assert tr.s[-1] == 25


def test_huge_tau_sweeps_connected_graph(k4):
    params = SirParams(tau=1e6, initial_infected=1, t_max=5.0)
    tr = simulate(k4, params, seed=3)
    # infection crosses every edge long before the first grid day
    assert tr.s[tr.times >= 1.0].max() == 0


def test_conservation_many_random_runs():
    rng = np.random.default_rng(60)
    for trial in range(100):
        n = int(rng.integers(5, 40))
        g = from_edge_list(oracles.random_edges(rng, n, 0.2), n=n)
        params = SirParams(tau=float(rng.uniform(0.01, 2.0)),
                           recovery_days=float(rng.uniform(1.0, 20.0)),
                           initial_infected=int(rng.integers(1, n + 1)),
                           t_max=float(rng.uniform(5.0, 40.0)))
        ivs = ()
        if trial % 3 == 0:
            ivs = (Intervention(float(rng.uniform(0, 5)), "random", int(rng.integers(0, n))),)
        tr = simulate(g, params, ivs, seed=int(rng.integers(1 << 30)))
        assert conserved(tr)
        assert np.all(tr.s >= 0) and np.all(tr.i >= 0)
        assert np.all(tr.r >= 0) and np.all(tr.v >= 0)


def test_identical_inputs_identical_trajectories():
    g = gen_erdos_renyi(80, 0.1, seed=4)
    params = SirParams(t_max=25.0)
    iv = (Intervention(2.0, "topk", 10, Metric.DEGREE),)
    a = simulate(g, params, iv, seed=77)
    b = simulate(g, params, iv, seed=77)
    for attr in ("times", "s", "i", "r", "v"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr))


def test_infectious_window_is_exact():
    g = gen_erdos_renyi(60, 0.15, seed=5)
    params = SirParams(tau=0.5, recovery_days=7.0, t_max=40.0)
    tr = simulate(g, params, seed=6)
    inf_t = tr.meta["infection_time"]
    rec_t = tr.meta["recovery_time"]
    both = ~np.isnan(inf_t) & ~np.isnan(rec_t)
    assert both.any()
    assert np.allclose(rec_t[both] - inf_t[both], 7.0)


def test_infections_monotone_counts():
    # s never rises, r and v never fall
    g = gen_erdos_renyi(60, 0.2, seed=7)
    tr = simulate(g, SirParams(t_max=30.0),
                  (Intervention(3.0, "random", 10),), seed=8)
    assert np.all(np.diff(tr.s) <= 0)
    assert np.all(np.diff(tr.r) >= 0)
    assert np.all(np.diff(tr.v) >= 0)


def test_initial_infected_bounds(k4):
    with pytest.raises(ValueError):
        simulate(k4, SirParams(initial_infected=5), seed=0)
    with pytest.raises(ValueError):
        SirParams(initial_infected=0)


def test_grid_covers_horizon_and_intervention_times():
    g = star_graph(10)
    params = SirParams(t_max=10.0, grid_dt=0.4)
    iv = (Intervention(2.345, "random", 2),)
    tr = simulate(g, params, iv, seed=9)
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(10.0)
    assert np.any(np.isclose(tr.times, 2.345))
    assert np.all(np.diff(tr.times) > 0)


@pytest.mark.parametrize("times, extra", [((), []), ((0.3,), [0.3]), ((1.5,), []),
                                          ((0.5, 1.1), [])],
                         ids=["none", "off_grid", "beyond_t_max", "on_grid"])
def test_grid_points_are_the_steps_then_t_max_and_intervention_times(times, extra):
    params = SirParams(t_max=1.1, grid_dt=0.25)
    grid = _grid(params, [Intervention(t, "random", 1) for t in times])
    assert grid.dtype == np.float64
    assert grid.tolist() == sorted([0.0, 0.25, 0.5, 0.75, 1.0, 1.1] + extra)


# -- interventions -----------------------------------------------------------------


def test_intervention_vaccinates_only_susceptible():
    g = star_graph(30)
    params = SirParams(tau=0.0, initial_infected=4, t_max=10.0)
    iv = (Intervention(1.0, "random", 31),)
    tr = simulate(g, params, iv, seed=10)
    # k exceeds the susceptible pool: everyone not infected gets vaccinated
    assert tr.v[-1] == 27
    assert tr.r[-1] + tr.i[-1] == 4
    assert any("wanted 31" in w for w in tr.meta["warnings"])


def test_vaccinated_nodes_never_infected():
    g = gen_erdos_renyi(80, 0.15, seed=11)
    params = SirParams(tau=1.0, t_max=30.0)
    iv = (Intervention(0.5, "random", 40),)
    tr = simulate(g, params, iv, seed=12)
    assert conserved(tr)
    # vaccination is permanent: v never decreases and the final tally of
    # infected-ever excludes every vaccinated node
    assert np.all(np.diff(tr.v) >= 0)
    ever_infected = (~np.isnan(tr.meta["infection_time"])).sum()
    assert ever_infected + tr.s[-1] + tr.v[-1] == tr.n


def test_topk_intervention_targets_hub():
    g = star_graph(40)
    # seed infections land on leaves with high probability; vaccinating the
    # hub must then stop all transmission
    params = SirParams(tau=5.0, recovery_days=14.0, initial_infected=1, t_max=30.0)
    iv = (Intervention(0.01, "topk", 1, Metric.DEGREE),)
    for s in range(20):
        tr = simulate(g, params, iv, seed=s)
        if np.isnan(tr.meta["infection_time"][0]):  # hub never infected
            assert tr.r[-1] == 1.0
            assert tr.v[-1] >= 1.0


def test_intervention_beyond_horizon_skipped_with_warning(k4):
    params = SirParams(initial_infected=2, t_max=5.0)
    iv = (Intervention(9.0, "random", 2),)
    tr = simulate(k4, params, iv, seed=13)
    assert tr.v[-1] == 0
    assert any("beyond horizon" in w for w in tr.meta["warnings"])


def test_intervention_validation():
    with pytest.raises(ValueError):
        Intervention(-1.0, "random", 5)
    with pytest.raises(ValueError):
        Intervention(1.0, "topk", 5)         # metric missing
    with pytest.raises(ValueError):
        Intervention(1.0, "degreeish", 5)
    iv = Intervention(1.0, "topk", 5, "degree")
    assert iv.metric is Metric.DEGREE


@pytest.mark.parametrize("metric", [Metric.DEGREE, "closeness"])
def test_random_intervention_refuses_a_metric(metric):
    # a random plan never ranks, so a metric there would be silently ignored
    with pytest.raises(ValueError, match="^random intervention takes no metric$"):
        Intervention(2.0, "random", 10, metric)


@pytest.mark.parametrize("k", [2.5, True, False, "3", None])
def test_intervention_size_must_be_an_integer(k):
    # the vaccination loop stops when its count equals k, which a
    # fractional k never does
    with pytest.raises(ValueError, match="^k must be an integer"):
        Intervention(1.0, "random", k)


@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_initial_infected_must_be_an_integer(value):
    with pytest.raises(ValueError, match="^initial_infected must be an integer"):
        SirParams(initial_infected=value)


@pytest.mark.parametrize("value", [True, False, "0.4", None])
@pytest.mark.parametrize("key", ["tau", "recovery_days", "t_max", "grid_dt"])
def test_sir_rates_and_times_must_be_numbers(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a number"):
        SirParams(**{key: value})


@pytest.mark.parametrize("value", [True, False, "2", None])
def test_intervention_time_must_be_a_number(value):
    with pytest.raises(ValueError, match="^time must be a number"):
        Intervention(value, "random", 3)


def test_numeric_settings_become_floats():
    params = SirParams(tau=1, recovery_days=np.int64(14), t_max=30, grid_dt=np.float32(0.5))
    got = [params.tau, params.recovery_days, params.t_max, params.grid_dt,
           Intervention(2, "random", 3).time]
    assert got == [1.0, 14.0, 30.0, 0.5, 2.0]
    assert all(type(x) is float for x in got)


@pytest.mark.parametrize("value", [3.0, np.int64(3)])
def test_integral_counts_become_ints(value):
    for got in (Intervention(1.0, "random", value).k,
                SirParams(initial_infected=value).initial_infected):
        assert got == 3 and type(got) is int


def test_adding_intervention_never_increases_attack_rate():
    g = gen_duplication_divergence(150, 0.4, seed=14)
    params = SirParams(tau=0.4, t_max=30.0)
    plain, helped = ensemble([g] * 15, params,
                             [(), (Intervention(2.0, "topk", 15, Metric.DEGREE),)], seed=15)
    assert peak_and_final(helped.mean).attack_rate <= peak_and_final(plain.mean).attack_rate


# -- threshold behavior ---------------------------------------------------------------


def test_subcritical_outbreak_dies_out():
    # beta/delta safely under 1/lambda_max: final attack stays near the
    # seeded infections over 100 runs
    g = star_graph(50)
    lam = lambda_max(g).lambda_max
    assert lam == pytest.approx(math.sqrt(50), abs=1e-6)
    tau = 0.3 / (14.0 * lam)   # beta/delta = 0.3 / lambda
    params = SirParams(tau=tau, recovery_days=14.0, initial_infected=5, t_max=60.0)
    finals = []
    for s in range(100):
        tr = simulate(g, params, seed=s)
        assert conserved(tr)
        finals.append(tr.r[-1] + tr.i[-1])
    assert np.mean(finals) < 5 * 5


def test_supercritical_on_dense_graph_spreads():
    g = gen_erdos_renyi(200, 0.3, seed=16)
    params = SirParams(tau=0.4, t_max=30.0)
    tr = simulate(g, params, seed=17)
    assert tr.r[-1] > 100


# -- ensembles -------------------------------------------------------------------------


def test_ensemble_mean_of_single_run_is_that_run():
    g = gen_erdos_renyi(50, 0.2, seed=18)
    params = SirParams(t_max=15.0)
    res, = ensemble([g], params, [()], seed=19)
    only = res.runs[0]
    assert np.array_equal(res.mean.i, only.i)


def test_ensemble_average_and_store():
    g = gen_duplication_divergence(100, 0.4, seed=20)
    params = SirParams(t_max=20.0)
    res, = ensemble([g] * 8, params, [()], seed=21)
    assert len(res.runs) == 8
    stacked = np.mean([tr.i for tr in res.runs], axis=0)
    assert np.allclose(res.mean.i, stacked)
    assert conserved(res.mean)


def test_ensemble_regenerates_graph_per_run():
    from vaxnet import GenSpec, replicate_graphs
    spec = GenSpec("erdos_renyi", 60, p=0.15, seed=0)
    params = SirParams(t_max=10.0)
    res, = ensemble(replicate_graphs(spec, 4, seed=22), params, [()], seed=22)
    # runs on fresh draws differ (same spec would tie them if reused)
    assert len({tuple(tr.i.tolist()) for tr in res.runs}) > 1


def test_peak_and_final_flat_epidemic(k4):
    params = SirParams(tau=0.0, initial_infected=3, t_max=20.0)
    tr = simulate(k4, params, seed=23)
    summ = peak_and_final(tr)
    assert summ.peak_infected == 3
    assert summ.peak_time == 0.0
    assert summ.attack_rate == pytest.approx(3 / 4)
    assert summ.final_s == 1


def test_params_validation():
    with pytest.raises(ValueError):
        SirParams(tau=-0.1)
    with pytest.raises(ValueError):
        SirParams(recovery_days=0.0)
    with pytest.raises(ValueError):
        SirParams(t_max=-1.0)
    with pytest.raises(ValueError):
        SirParams(grid_dt=0.0)


@pytest.mark.parametrize("name", ["t_max", "grid_dt"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_params_need_a_finite_horizon_and_grid(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        SirParams(**{name: value})


def test_infinite_recovery_is_an_si_model(k4):
    params = SirParams(tau=2.0, recovery_days=math.inf, initial_infected=1, t_max=10.0)
    tr = simulate(k4, params, seed=4)
    assert tr.r.max() == 0
    assert np.all(np.diff(tr.i) >= 0)
    assert tr.times[-1] == 10.0
