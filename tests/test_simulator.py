import math

import numpy as np
import pytest
from scipy import stats

from driftlab.fields import (
    Constant1,
    CriticalLamperti,
    ExponentialMean1,
    GammaMean1,
    MeanReverting,
    RateField,
    UniformMean1,
    Zero,
)
from driftlab.seeding import path_seed
from driftlab.simulator import (
    compensator_ensemble,
    compensator_literal,
    compensator_report,
    ensemble_mean_compensator,
    simulate_compound_poisson,
    simulate_walk,
    trajectory_csv,
    wald_second_moment_check,
)

ZERO = RateField(Zero())

ENGINE_CASES = [
    # driftless engine, long enough to cross internal batch boundaries
    (ZERO, ExponentialMean1(), ExponentialMean1(), 6000.0, 0.0),
    (RateField(CriticalLamperti(c=0.5)), GammaMean1(k=2.0), Constant1(), 500.0, 0.0),
    (RateField(MeanReverting(kappa=0.2)), UniformMean1(d=0.3), ExponentialMean1(), 300.0, 2.5),
]


class TestSimulateWalk:
    @pytest.mark.parametrize("rf", [ZERO, RateField(CriticalLamperti(c=1.0))])
    def test_zero_horizon_gives_empty_path(self, rf):
        traj = simulate_walk(rf, Constant1(), Constant1(), 0.0, seed=3, z0=1.5)
        assert traj.n_events == 0
        assert traj.final_z == 1.5
        assert traj.times.size == traj.jumps.size == traj.z_after.size == 0

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            simulate_walk(ZERO, Constant1(), Constant1(), -1.0, seed=0)

    @pytest.mark.parametrize("rf,up,down,horizon,z0", ENGINE_CASES)
    def test_deterministic_given_seed(self, rf, up, down, horizon, z0):
        a = simulate_walk(rf, up, down, horizon, seed=42, z0=z0)
        b = simulate_walk(rf, up, down, horizon, seed=42, z0=z0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.jumps, b.jumps)
        assert np.array_equal(a.z_after, b.z_after)
        c = simulate_walk(rf, up, down, horizon, seed=43, z0=z0)
        assert not np.array_equal(a.times, c.times)

    @pytest.mark.parametrize("rf,up,down,horizon,z0", ENGINE_CASES)
    def test_event_times_strictly_increasing_within_horizon(self, rf, up, down, horizon, z0):
        traj = simulate_walk(rf, up, down, horizon, seed=7, z0=z0)
        assert traj.n_events > 0
        assert traj.times[0] > 0.0
        assert traj.times[-1] <= horizon
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("rf,up,down,horizon,z0", ENGINE_CASES)
    def test_replaying_jumps_reproduces_positions_bitwise(self, rf, up, down, horizon, z0):
        traj = simulate_walk(rf, up, down, horizon, seed=11, z0=z0)
        replay = np.cumsum(np.concatenate(([z0], traj.jumps)))[1:]
        assert np.array_equal(replay, traj.z_after)

    def test_sign_encodes_jump_law(self):
        traj = simulate_walk(ZERO, Constant1(), UniformMean1(d=0.4), 200.0, seed=5)
        up, dn = traj.jumps > 0, traj.jumps < 0
        t_up, m_up = traj.times[up], traj.jumps[up]
        t_dn, m_dn = traj.times[dn], -traj.jumps[dn]
        assert np.all(m_up == 1.0)
        assert np.all((m_dn > 0.6) & (m_dn < 1.4))
        assert t_up.size + t_dn.size == traj.n_events
        merged = np.sort(np.concatenate([t_up, t_dn]))
        assert np.array_equal(merged, traj.times)

    def test_event_count_scales_linearly_with_horizon(self):
        rf = RateField(CriticalLamperti(c=0.5))
        n1 = simulate_walk(rf, Constant1(), Constant1(), 1500.0, seed=21).n_events
        n4 = simulate_walk(rf, Constant1(), Constant1(), 6000.0, seed=22).n_events
        assert 3.4 <= n4 / n1 <= 4.6

    def test_up_split_follows_drift(self):
        # phi is pinned at 0.45 everywhere the path can reach within the
        # horizon, so roughly 95% of events should be up-jumps
        rf = RateField(CriticalLamperti(c=3600.0, x_floor=2000.0))
        traj = simulate_walk(rf, Constant1(), Constant1(), 400.0, seed=9, z0=0.0)
        assert abs(traj.final_z) < 1500
        frac_up = np.mean(traj.jumps > 0)
        assert frac_up > 0.9


def full_block_walk(rf, up_law, down_law, horizon, seed, z0=0.0):
    """Reference: every block drawn in full (waits, uniforms, up marks,
    down marks; 4096 each), events split by the scalar loop."""
    times, jumps, zs = [], [], []
    rng = np.random.default_rng(seed)
    phi = rf.drift.scalar_phi()
    t, z, n = 0.0, z0, 4096
    while horizon > 0 and n == 4096:
        dts = rng.exponential(1.0, 4096)
        us = rng.random(4096)
        ups = up_law.sample_block(rng, 4096)
        dns = down_law.sample_block(rng, 4096)
        n = 0
        for dt, u, up, dn in zip(dts.tolist(), us.tolist(), ups.tolist(), dns.tolist()):
            if t + dt > horizon:
                break
            t += dt
            j = up if u < 0.5 + phi(z, t) else -dn
            z += j
            times.append(t)
            jumps.append(j)
            zs.append(z)
            n += 1
    return np.array(times), np.array(jumps), np.array(zs)


LAWS = [Constant1(), ExponentialMean1(), GammaMean1(k=2.0), UniformMean1(d=0.4)]
LAZY_SEED = 71
# the 4096th event time: a full first block, then a block without events
EXACT_4096TH = float(np.cumsum(np.random.default_rng(LAZY_SEED).exponential(1.0, 4096))[-1])


@pytest.mark.parametrize("rf", [ZERO, RateField(CriticalLamperti(c=0.5))], ids=["zero", "lamperti"])
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize("horizon", [0.0, 0.3, 300.0, EXACT_4096TH, 9000.0])
def test_lazy_final_block_matches_the_full_block_recipe(rf, law, horizon):
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    traj = simulate_walk(rf, up, down, horizon, seed=LAZY_SEED, z0=0.25)
    want = full_block_walk(rf, up, down, horizon, LAZY_SEED, z0=0.25)
    for got, ref in zip((traj.times, traj.jumps, traj.z_after), want):
        assert got.tobytes() == ref.tobytes()
    if horizon == EXACT_4096TH:
        assert traj.n_events == 4096


def test_thinning_up_counts_are_poisson_half_rate():
    # Zero field splits the unit-rate clock 50/50, so up-counts over
    # [0, T] must be Poisson(T/2); chi-square GOF on pooled bins.
    n_paths, horizon = 10**4, 20.0
    lam = horizon / 2.0
    counts = np.empty(n_paths, dtype=int)
    for p in range(n_paths):
        traj = simulate_walk(ZERO, Constant1(), Constant1(), horizon, seed=path_seed(314, p))
        counts[p] = int(np.sum(traj.jumps > 0))

    lo, hi = 4, 17  # pmf*n >= 5 inside; lump the tails
    edges = list(range(lo, hi + 1))
    f_obs = [np.sum(counts <= lo - 1)]
    f_obs += [np.sum(counts == k) for k in edges]
    f_obs.append(np.sum(counts >= hi + 1))
    pmf = stats.poisson.pmf(edges, lam)
    f_exp = np.concatenate(
        ([stats.poisson.cdf(lo - 1, lam)], pmf, [stats.poisson.sf(hi, lam)])
    ) * n_paths
    chi2 = stats.chisquare(np.asarray(f_obs, float), f_exp)
    assert chi2.pvalue > 0.001


class TestCompoundPoisson:
    def test_rejects_bad_bounds(self):
        law = Constant1()
        with pytest.raises(ValueError):
            simulate_compound_poisson(lambda s: 1.0, 0.0, law, 1.0, seed=0)
        with pytest.raises(ValueError):
            simulate_compound_poisson(lambda s: 1.0, 1.0, law, -1.0, seed=0)

    def test_rejects_rate_above_bound(self):
        with pytest.raises(ValueError, match="outside"):
            simulate_compound_poisson(lambda s: 2.0, 1.0, Constant1(), 50.0, seed=1)

    def test_variable_rate_mean_count(self):
        # E[N] = integral of 0.25*(1 + s/20) over [0, 20] = 7.5
        rate = lambda s: 0.25 * (1.0 + s / 20.0)
        total = 0
        n_paths = 2000
        for p in range(n_paths):
            times, marks = simulate_compound_poisson(
                rate, 0.5, ExponentialMean1(), 20.0, seed=path_seed(777, p)
            )
            total += times.size
            if times.size:
                assert times[0] > 0
                assert np.all(np.diff(times) > 0)
                assert times[-1] <= 20.0
                assert np.all(marks > 0)
        mean = total / n_paths
        assert abs(mean - 7.5) <= 3 * math.sqrt(7.5 / n_paths)


class TestCompensators:
    def test_constant_rate_unit_jumps_telescopes(self):
        # lambda * tau regardless of where the events sit
        times = [0.25, 0.5, 0.9, 1.4]
        marks = [1.0, 1.0, 1.0, 1.0]
        v = compensator_literal(times, marks, lambda s: 2.0, 1.0)
        assert v == pytest.approx(2.0, rel=1e-12)

    def test_literal_worked_example(self):
        # 1*(2*0.3 + 0.5*0.5 + 1.5*0.2) with the next mark priced in
        times = [0.3, 0.8, 1.2]
        marks = [2.0, 0.5, 1.5]
        v = compensator_literal(times, marks, lambda s: 1.0, 1.0)
        assert v == pytest.approx(1.15, rel=1e-12)

    def test_tau_zero(self):
        assert compensator_literal([0.5], [1.0], lambda s: 3.0, 0.0) == 0.0
        assert compensator_ensemble([0.5], [1.0], lambda s: 3.0, 0.0) == 0.0

    def test_literal_falls_back_to_mean_mark(self):
        # no recorded event beyond tau: open interval priced at mean 1
        times = [0.3, 0.8]
        marks = [2.0, 0.5]
        v = compensator_literal(times, marks, lambda s: 1.0, 1.0)
        assert v == pytest.approx(2 * 0.3 + 0.5 * 0.5 + 1.0 * 0.2, rel=1e-12)
        rep = compensator_report(times, marks, lambda s: 1.0, 1.0)
        assert rep.literal_tail_mode == "mean-mark"

    def test_modes_agree_for_unit_marks(self):
        times = [0.2, 0.9, 1.7, 2.2]
        marks = [1.0, 1.0, 1.0, 1.0]
        rate = lambda s: 1.0 / (1.0 + s)
        lit = compensator_literal(times, marks, rate, 2.0)
        ens = compensator_ensemble(times, marks, rate, 2.0)
        assert lit == pytest.approx(ens, rel=1e-12)

    def test_ensemble_constant_rates(self):
        assert compensator_ensemble([], [], lambda s: 1.0, 10.0) == pytest.approx(10.0, rel=1e-12)
        assert compensator_ensemble([], [], lambda s: 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_mean_compensator_log_integral(self):
        v = ensemble_mean_compensator(lambda s: 1.0 / (1.0 + s), 1.0)
        assert abs(v - math.log(2.0)) <= 1e-9

    def test_mean_compensator_validates_tau(self):
        assert ensemble_mean_compensator(lambda s: 1.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            ensemble_mean_compensator(lambda s: 1.0, -1.0)

    def test_report_residuals_are_raw_minus_value(self):
        times = [0.3, 0.8, 1.2]
        marks = [2.0, 0.5, 1.5]
        rep = compensator_report(times, marks, lambda s: 1.0, 1.0)
        assert rep.raw_value == 2.5
        assert rep.residual_literal == pytest.approx(2.5 - rep.literal_value)
        assert rep.residual_ensemble == pytest.approx(2.5 - rep.ensemble_value)
        assert rep.literal_tail_mode == "next-mark"

    @pytest.mark.parametrize(
        "times,marks",
        [
            ([0.8, 0.3], [1.0, 1.0]),  # out of order
            ([0.3, 0.3], [1.0, 1.0]),  # tied
            ([-0.1, 0.3], [1.0, 1.0]),  # nonpositive time
            ([0.3, 0.8], [1.0, -1.0]),  # nonpositive mark
            ([0.3, 0.8], [1.0]),  # length mismatch
        ],
    )
    def test_malformed_event_streams_rejected(self, times, marks):
        with pytest.raises(ValueError):
            compensator_literal(times, marks, lambda s: 1.0, 1.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            compensator_literal([0.5], [1.0], lambda s: 1.0, -0.1)


def test_martingale_residuals_centered_both_modes():
    # Constant-rate compound Poisson fixture: raw minus compensator has
    # mean 0 under either tail convention; checked at 3 standard errors.
    n_paths, tau, horizon = 10**4, 8.0, 10.0
    rate = lambda s: 0.5
    lit = np.empty(n_paths)
    ens = np.empty(n_paths)
    for p in range(n_paths):
        times, marks = simulate_compound_poisson(
            rate, 0.5, ExponentialMean1(), horizon, seed=path_seed(31337, p)
        )
        rep = compensator_report(times, marks, rate, tau)
        lit[p] = rep.residual_literal
        ens[p] = rep.residual_ensemble
    for res in (lit, ens):
        se = res.std(ddof=1) / math.sqrt(n_paths)
        assert abs(res.mean()) <= 3 * se


class TestWaldBound:
    def test_constant_jumps_unit_window(self):
        chk = wald_second_moment_check(ZERO, Constant1(), Constant1(), 1.0, 10**4, seed=6021)
        assert chk.bound == 2.0
        assert 0.9 <= chk.empirical_second_moment <= 1.1
        assert chk.passed

    def test_gamma_bound_formula(self):
        chk = wald_second_moment_check(
            ZERO, GammaMean1(k=2.0), GammaMean1(k=2.0), 1.0, 200, seed=17
        )
        assert chk.bound == 3.0
        assert chk.passed

    def test_zero_window_degenerates(self):
        chk = wald_second_moment_check(ZERO, Constant1(), Constant1(), 0.0, 100, seed=0)
        assert chk.empirical_second_moment == 0.0
        assert chk.bound == 0.0
        assert chk.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            wald_second_moment_check(ZERO, Constant1(), Constant1(), -1.0, 100, seed=0)
        with pytest.raises(ValueError):
            wald_second_moment_check(ZERO, Constant1(), Constant1(), 1.0, 99, seed=0)


class TestTrajectoryCsv:
    def test_header_and_shape(self):
        traj = simulate_walk(ZERO, ExponentialMean1(), Constant1(), 50.0, seed=2)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "tau,signed_jump,z_after"
        assert len(lines) == traj.n_events + 1

    def test_round_trips_exact_floats(self):
        traj = simulate_walk(ZERO, ExponentialMean1(), ExponentialMean1(), 80.0, seed=13)
        rows = trajectory_csv(traj).strip().split("\n")[1:]
        parsed = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1], traj.jumps)
        assert np.array_equal(parsed[:, 2], traj.z_after)

    def test_empty_trajectory(self):
        traj = simulate_walk(ZERO, Constant1(), Constant1(), 0.0, seed=2)
        assert trajectory_csv(traj) == "tau,signed_jump,z_after\n"
