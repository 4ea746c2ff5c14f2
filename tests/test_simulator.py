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
from driftlab import simulator
from driftlab.experiments import RecurrenceExperiment, run_recurrence_experiment
from driftlab.seeding import path_seed
from driftlab.simulator import (
    compensator_report,
    martingale_check,
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

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, horizon):
        # inf used to loop forever; NaN failed in the block sizing unnamed
        with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
            simulate_walk(ZERO, Constant1(), Constant1(), horizon, seed=0)

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


def full_block_walk(rf, up_law, down_law, horizon, seed, z0=0.0, first=None):
    """Reference: every block drawn in full (n waits, n uniforms, n up
    marks, n down marks), events split by the scalar loop.  The first
    block holds ``first`` events (recipe v2: ``_first_block(horizon)``;
    v1: 4096), every later block 4096."""
    times, jumps, zs = [], [], []
    rng = np.random.default_rng(seed)
    phi = rf.drift.scalar_phi()
    t, z = 0.0, z0
    n = simulator._first_block(horizon) if first is None else first
    while horizon > 0:
        dts = rng.exponential(1.0, n)
        us = rng.random(n)
        ups = up_law.sample_block(rng, n)
        dns = down_law.sample_block(rng, n)
        k = 0
        for dt, u, up, dn in zip(dts.tolist(), us.tolist(), ups.tolist(), dns.tolist()):
            if t + dt > horizon:
                break
            t += dt
            j = up if u < 0.5 + phi(z, t) else -dn
            z += j
            times.append(t)
            jumps.append(j)
            zs.append(z)
            k += 1
        if k < n:
            break
        n = 4096
    return np.array(times), np.array(jumps), np.array(zs)


def assert_same_path(traj, want):
    for got, ref in zip((traj.times, traj.jumps, traj.z_after), want):
        assert got.tobytes() == ref.tobytes()


LAWS = [Constant1(), ExponentialMean1(), GammaMean1(k=2.0), UniformMean1(d=0.4)]
RECIPE_FIELDS = [ZERO, RateField(CriticalLamperti(c=0.5))]
LAZY_SEED = 71
# the 4096th event time: a full first block, then a block without events
EXACT_4096TH = float(np.cumsum(np.random.default_rng(LAZY_SEED).exponential(1.0, 4096))[-1])
# the 8th event time, for a first block shrunk to 8 events
EXACT_8TH = float(np.cumsum(np.random.default_rng(LAZY_SEED).exponential(1.0, 8))[-1])


@pytest.mark.parametrize("rf", RECIPE_FIELDS, ids=["zero", "lamperti"])
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize("horizon", [0.0, 0.3, 300.0, EXACT_4096TH, 9000.0])
def test_lazy_final_block_matches_the_full_block_recipe(rf, law, horizon):
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    traj = simulate_walk(rf, up, down, horizon, seed=LAZY_SEED, z0=0.25)
    assert_same_path(traj, full_block_walk(rf, up, down, horizon, LAZY_SEED, z0=0.25))
    if horizon == EXACT_4096TH:
        assert traj.n_events == 4096


@pytest.mark.parametrize("rf", RECIPE_FIELDS, ids=["zero", "lamperti"])
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize("horizon", [3600.0, EXACT_4096TH, 9000.0, 2e4])
def test_long_horizons_keep_the_v1_recipe(rf, law, horizon):
    # v1 drew 4096 events in every block; v2 only shrinks the first block
    # of horizons below 3600
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    traj = simulate_walk(rf, up, down, horizon, seed=LAZY_SEED, z0=0.25)
    assert_same_path(traj, full_block_walk(rf, up, down, horizon, LAZY_SEED, 0.25, first=4096))


@pytest.mark.parametrize("rf", RECIPE_FIELDS, ids=["zero", "lamperti"])
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize("horizon", [EXACT_8TH, 30.0, 5000.0])
def test_paths_overflowing_the_first_block(monkeypatch, rf, law, horizon):
    # an 8-event first block: the path goes on in blocks of 4096, and at
    # the exact 8th event time it ends in a second block without events
    monkeypatch.setattr(simulator, "_first_block", lambda h: 8)
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    traj = simulate_walk(rf, up, down, horizon, seed=LAZY_SEED, z0=0.25)
    assert_same_path(traj, full_block_walk(rf, up, down, horizon, LAZY_SEED, 0.25, first=8))
    assert traj.n_events == 8 if horizon == EXACT_8TH else traj.n_events > 8


@pytest.mark.parametrize(
    "horizon,n", [(0.0, 16), (1.0, 25), (3599.0, 4095), (3600.0, 4096), (1e9, 4096), (math.inf, 4096)]
)
def test_first_block_size(horizon, n):
    # min(4096, ceil(h + 8 sqrt(h) + 16))
    assert simulator._first_block(horizon) == n


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
        v = compensator_report(times, marks, lambda s: 2.0, 1.0).literal_value
        assert v == pytest.approx(2.0, rel=1e-12)

    def test_literal_worked_example(self):
        # 1*(2*0.3 + 0.5*0.5 + 1.5*0.2) with the next mark priced in
        times = [0.3, 0.8, 1.2]
        marks = [2.0, 0.5, 1.5]
        v = compensator_report(times, marks, lambda s: 1.0, 1.0).literal_value
        assert v == pytest.approx(1.15, rel=1e-12)

    def test_tau_zero(self):
        rep = compensator_report([0.5], [1.0], lambda s: 3.0, 0.0)
        assert rep.literal_value == 0.0
        assert rep.ensemble_value == 0.0

    def test_literal_falls_back_to_mean_mark(self):
        # no recorded event beyond tau: open interval priced at mean 1
        times = [0.3, 0.8]
        marks = [2.0, 0.5]
        v = compensator_report(times, marks, lambda s: 1.0, 1.0).literal_value
        assert v == pytest.approx(2 * 0.3 + 0.5 * 0.5 + 1.0 * 0.2, rel=1e-12)
        rep = compensator_report(times, marks, lambda s: 1.0, 1.0)
        assert rep.literal_tail_mode == "mean-mark"

    def test_modes_agree_for_unit_marks(self):
        times = [0.2, 0.9, 1.7, 2.2]
        marks = [1.0, 1.0, 1.0, 1.0]
        rate = lambda s: 1.0 / (1.0 + s)
        rep = compensator_report(times, marks, rate, 2.0)
        assert rep.literal_value == pytest.approx(rep.ensemble_value, rel=1e-12)

    def test_ensemble_constant_rates(self):
        ens = compensator_report([], [], lambda s: 1.0, 10.0).ensemble_value
        assert ens == pytest.approx(10.0, rel=1e-12)
        ens = compensator_report([], [], lambda s: 2.0, 1.0).ensemble_value
        assert ens == pytest.approx(2.0, rel=1e-12)

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
            compensator_report(times, marks, lambda s: 1.0, 1.0)

    @pytest.mark.parametrize(
        "times,marks,message",
        [
            ([1.0, math.nan], [1.0, 1.0], "strictly increasing"),
            ([math.nan, 1.0], [1.0, 1.0], "strictly increasing"),
            ([1.0, math.inf], [1.0, 1.0], "strictly increasing"),
            ([0.3, 0.8], [1.0, math.nan], "marks must be positive"),
            ([0.3, 0.8], [math.inf, 1.0], "marks must be positive"),
        ],
        ids=["nan-time", "nan-first-time", "inf-time", "nan-mark", "inf-mark"],
    )
    def test_non_finite_event_streams_rejected(self, times, marks, message):
        # NaN compares false both ways, so it must not slip past the
        # ordering and sign checks
        with pytest.raises(ValueError, match=message):
            compensator_report(times, marks, lambda s: 1.0, 1.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            compensator_report([0.5], [1.0], lambda s: 1.0, -0.1)


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


# The compensator as first written: a scalar loop over paths, events and
# Gauss-Legendre nodes.  The batched fold must reproduce it bit for bit.

GL = list(zip(*(v.tolist() for v in np.polynomial.legendre.leggauss(16))))


def scalar_integral(rate, a, b):
    if b <= a:
        return 0.0
    n_panels = max(1, math.ceil((b - a) / 4.0))
    h = (b - a) / n_panels
    total = 0.0
    for k in range(n_panels):
        lo = a + k * h
        mid = lo + 0.5 * h
        half = 0.5 * h
        s = 0.0
        for xn, w in GL:
            s += w * rate(mid + half * xn)
        total += half * s
    return total


def scalar_report(times, marks, rate, tau):
    """(raw, literal, ensemble, mode) by the scalar rule."""
    marks = np.asarray(marks, float)
    ts, ms = list(times), marks.tolist()
    n_done = sum(1 for t in ts if t <= tau)
    done = prev = 0.0
    for ti, mi in zip(ts[:n_done], ms):
        done += mi * scalar_integral(rate, prev, ti)
        prev = ti
    if prev < tau:
        tail = scalar_integral(rate, prev, tau)
        mark, mode = (ms[n_done], "next-mark") if n_done < len(ms) else (1.0, "mean-mark")
    else:
        tail, mark, mode = 0.0, 1.0, "complete"
    raw = float(np.sum(marks[:n_done]))
    return raw, done + mark * tail, done + tail, mode


def scalar_path(rate, rate_bound, law, horizon, seed):
    rng = np.random.default_rng(seed)
    t, times, marks = 0.0, [], []
    while True:
        t += rng.exponential(1.0 / rate_bound)
        if t > horizon:
            return np.array(times), np.array(marks)
        if rng.random() * rate_bound <= rate(t):
            times.append(t)
            marks.append(law.sample(rng))


def scalar_martingale(rate, law, tau, horizon, n_paths, seed):
    """Per-path literal and ensemble residuals of the scalar loop."""
    lit, ens = np.empty(n_paths), np.empty(n_paths)
    for i in range(n_paths):
        times, marks = scalar_path(lambda t: rate, rate, law, horizon, path_seed(seed, i))
        raw, literal, ensemble, _ = scalar_report(times, marks, lambda t: rate, tau)
        lit[i], ens[i] = raw - literal, raw - ensemble
    return lit, ens


def same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def residual_record(v):
    mean = float(np.mean(v))
    se = float(np.std(v, ddof=1) / math.sqrt(v.size))
    return {"mean_residual": mean, "se": se, "within_3se": abs(mean) <= 3.0 * se}


def run_martingale_check(monkeypatch, *args):
    """``martingale_check(*args)`` and the per-path residual arrays it
    summarized (literal, ensemble)."""
    seen = []
    of = simulator.ResidualMean.of
    monkeypatch.setattr(simulator.ResidualMean, "of", lambda v: (seen.append(v.copy()), of(v))[1])
    return martingale_check(*args), seen


def assert_matches_scalar_loop(chk, seen, rate, law, tau, horizon, n_paths, seed):
    lit, ens = scalar_martingale(rate, law, tau, horizon, n_paths, seed)
    assert same_bits(seen[0], lit) and same_bits(seen[1], ens)
    rec = chk.to_record()
    assert rec == {
        "n_paths": n_paths,
        "tau": tau,
        "rate": rate,
        "literal": residual_record(lit),
        "ensemble": residual_record(ens),
    }
    for mode in ("literal", "ensemble"):
        want = residual_record(lit if mode == "literal" else ens)
        for key in ("mean_residual", "se"):
            assert same_bits(rec[mode][key], want[key])


MARTINGALE_HORIZON = 12.0


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("rate", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("tau", [0.0, 7.5, MARTINGALE_HORIZON])
def test_martingale_check_matches_the_scalar_loop(monkeypatch, law, rate, tau):
    # 515 paths: one full sub-batch of 512 and a short one; at rate 0.1
    # most gaps exceed 4, so intervals span several panels
    args = (rate, law, tau, MARTINGALE_HORIZON, 515, 2**40 + 9)
    chk, seen = run_martingale_check(monkeypatch, *args)
    assert_matches_scalar_loop(chk, seen, *args)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
def test_martingale_check_sub_batches_of_three(monkeypatch, law):
    monkeypatch.setattr(simulator, "_BATCH", 3)
    args = (0.1, law, 7.5, MARTINGALE_HORIZON, 100, 5)
    chk, seen = run_martingale_check(monkeypatch, *args)
    assert_matches_scalar_loop(chk, seen, *args)


EDGE_MASTERS = [0, 2**64 - 1]
SEEDING_CASES = [
    (ZERO, GammaMean1(k=2.0), GammaMean1(k=2.0), 1.0, 0.0),
    (RateField(CriticalLamperti(c=0.5)), ExponentialMean1(), Constant1(), 3.0, 0.5),
    (RateField(MeanReverting(kappa=0.2)), UniformMean1(d=0.3), ExponentialMean1(), 2.0, -1.0),
]


def test_martingale_check_positions_each_path_at_default_rngs_start(monkeypatch):
    # the check sets one generator to each path's derived PCG64 state; the
    # scalar loop builds default_rng(path_seed(seed, i)) per path
    for seed in EDGE_MASTERS:
        args = (0.5, GammaMean1(k=2.0), 7.5, MARTINGALE_HORIZON, 515, seed)
        chk, seen = run_martingale_check(monkeypatch, *args)
        assert_matches_scalar_loop(chk, seen, *args)


@pytest.mark.parametrize("case", range(len(SEEDING_CASES)))
@pytest.mark.parametrize("batch", [3, 512])
def test_wald_check_matches_per_path_default_rng(monkeypatch, case, batch):
    monkeypatch.setattr(simulator, "_BATCH", batch)
    rf, up, down, sigma, z0 = SEEDING_CASES[case]
    for seed in EDGE_MASTERS:
        chk = wald_second_moment_check(rf, up, down, sigma, 515, seed, z0)
        acc = 0.0
        for p in range(515):
            dz = simulate_walk(rf, up, down, sigma, path_seed(seed, p), z0).final_z - z0
            acc += dz * dz
        assert same_bits(chk.empirical_second_moment, acc / 515)


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_matches_per_path_default_rng(workers):
    rf, up, down, _sigma, z0 = SEEDING_CASES[1]
    for seed in EDGE_MASTERS:
        exp = RecurrenceExperiment(rf, up, down, 515, 50.0, 3.0, 1.0, seed, z0, workers)
        got = run_recurrence_experiment(exp).paths
        for i, o in enumerate(got):
            traj = simulate_walk(rf, up, down, 50.0, path_seed(seed, i), z0)
            assert o.seed == path_seed(seed, i)
            assert same_bits(o.final_z, traj.final_z)
            absz = np.abs(traj.z_after)
            hit = np.flatnonzero(absz >= 3.0)
            assert o.reached_level == bool(hit.size)
            if hit.size:
                assert same_bits(o.first_hit_time, traj.times[hit[0]])
                assert o.returned == bool(np.any(absz[hit[0] + 1 :] <= 1.0))


VARIABLE_RATES = [
    (lambda s: 1.0 / (1.0 + s), 1.0),
    (lambda s: 0.25 * (1.0 + s / 20.0), 0.5),
]


@pytest.mark.parametrize("rate,bound", VARIABLE_RATES, ids=["decaying", "rising"])
def test_compensator_report_matches_the_scalar_rule(rate, bound):
    streams = [([0.5, 9.3, 9.4, 21.0, 33.7], [0.7, 1.9, 0.2, 1.1, 1.3])]
    for seed in range(40):
        streams.append(simulate_compound_poisson(rate, bound, GammaMean1(k=2.0), 20.0, seed))
    gaps = np.concatenate([np.diff(np.concatenate(([0.0], t))) for t, _ in streams])
    assert np.sum(gaps > 4.0) >= 20
    modes = set()
    for times, marks in streams:
        taus = [0.0, 3.0, 9.3, 12.5, 20.0, 40.0] + list(np.asarray(times)[:3])
        for tau in taus:
            rep = compensator_report(times, marks, rate, float(tau))
            raw, literal, ensemble, mode = scalar_report(times, marks, rate, tau)
            assert same_bits(
                [rep.raw_value, rep.literal_value, rep.ensemble_value,
                 rep.residual_literal, rep.residual_ensemble],
                [raw, literal, ensemble, raw - literal, raw - ensemble],
            )
            assert rep.literal_tail_mode == mode
            modes.add(mode)
    assert modes == {"complete", "next-mark", "mean-mark"}


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("rate,bound", VARIABLE_RATES + [(lambda s: 0.1, 0.1)],
                         ids=["decaying", "rising", "constant"])
def test_compound_poisson_path_matches_the_scalar_loop(law, rate, bound):
    for seed in range(5):
        got = simulate_compound_poisson(rate, bound, law, 20.0, seed)
        want = scalar_path(rate, bound, law, 20.0, seed)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("scale", [1.0, 2.0, 10.0, 1.0 / 3.0, 1.0 / 7.3, 1e-3])
def test_scaled_standard_exponential_is_numpys_exponential(scale):
    a, b = np.random.default_rng(99), np.random.default_rng(99)
    got = [scale * a.standard_exponential() for _ in range(2000)]
    want = [b.exponential(scale) for _ in range(2000)]
    assert same_bits(got, want)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": NAN},
        {"horizon": INF},
        {"rate_bound": NAN},
        {"rate_bound": INF},
    ],
    ids=["nan-horizon", "inf-horizon", "nan-rate-bound", "inf-rate-bound"],
)
def test_compound_poisson_rejects_non_finite_inputs(kwargs):
    args = {"rate_bound": 1.0, "horizon": 5.0, **kwargs}
    with pytest.raises(ValueError, match="finite"):
        simulate_compound_poisson(lambda s: 0.5, args["rate_bound"], Constant1(), args["horizon"], 0)


def test_compound_poisson_rejects_a_nan_rate():
    with pytest.raises(ValueError, match="outside"):
        simulate_compound_poisson(lambda s: NAN, 1.0, Constant1(), 5.0, 0)


@pytest.mark.parametrize("tau", [NAN, INF], ids=["nan", "inf"])
def test_compensator_report_rejects_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        compensator_report([0.5, 1.5], [1.0, 1.0], lambda s: 1.0, tau)


@pytest.mark.parametrize("sigma", [NAN, INF], ids=["nan", "inf"])
def test_wald_check_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        wald_second_moment_check(ZERO, Constant1(), Constant1(), sigma, 100, seed=0)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"rate": NAN}, "rate"),
        ({"rate": INF}, "rate"),
        ({"rate": 0.0}, "rate"),
        ({"tau": NAN}, "tau"),
        ({"tau": INF, "horizon": INF}, "tau"),
        ({"tau": -1.0}, "tau"),
        ({"horizon": NAN}, "horizon"),
        ({"horizon": INF}, "horizon"),
        ({"horizon": 2.0}, "horizon"),
        ({"n_paths": 99}, "n_paths"),
    ],
    ids=["nan-rate", "inf-rate", "zero-rate", "nan-tau", "inf-tau", "negative-tau",
         "nan-horizon", "inf-horizon", "horizon-below-tau", "too-few-paths"],
)
def test_martingale_check_rejects_bad_inputs(kwargs, message):
    args = {"rate": 1.0, "tau": 4.0, "horizon": 6.0, "n_paths": 100, **kwargs}
    with pytest.raises(ValueError, match=message):
        martingale_check(args["rate"], Constant1(), args["tau"], args["horizon"], args["n_paths"], 0)


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
