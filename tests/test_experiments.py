import dataclasses
import decimal
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from driftlab.classifier import BDChain, discretize_to_bd, ratio_family_chain
from driftlab import simulator
from driftlab.experiments import (
    OccupancyEstimate,
    PathOutcome,
    RecurrenceExperiment,
    balance_residual,
    estimate_occupancy,
    experiment_csv,
    run_recurrence_experiment,
    solve_balance_window,
    wilson_interval,
)
from driftlab.fields import (
    Constant1,
    CriticalLamperti,
    ExponentialMean1,
    GammaMean1,
    MeanReverting,
    PowerLaw,
    RateField,
    Tabulated,
    UniformMean1,
    Zero,
)
from driftlab.seeding import path_seed
from driftlab.simulator import simulate_walk

ZERO = RateField(Zero())
MR = RateField(MeanReverting(kappa=0.2))
BALANCE_WINDOWS = [
    (discretize_to_bd(MR, -1001, 1001), (-1000, 1000)),
    (ratio_family_chain(0.5, 1, 2000), (1, 2000)),
]


def quiet_run(exp):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_recurrence_experiment(exp)


class TestWilsonInterval:
    @pytest.mark.parametrize("k,n", [(0, 10), (3, 7), (50, 100), (99, 100), (1, 1)])
    def test_matches_reference_implementation(self, k, n):
        lo, hi = wilson_interval(k, n)
        ref = stats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_empty_sample(self):
        lo, hi = wilson_interval(0, 0)
        assert math.isnan(lo) and math.isnan(hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 5)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)

    @given(st.integers(0, 500), st.integers(1, 500))
    def test_brackets_the_point_estimate(self, a, n):
        k = min(a, n)
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


class TestRecurrenceExperiment:
    def test_config_validation(self):
        ok = dict(
            rate_field=ZERO, up_law=Constant1(), down_law=Constant1(),
            n_paths=10, horizon=10.0, level=3.0, band=1.0, seed=0,
        )
        RecurrenceExperiment(**ok)
        with pytest.raises(ValueError):
            RecurrenceExperiment(**{**ok, "n_paths": 0})
        with pytest.raises(ValueError):
            RecurrenceExperiment(**{**ok, "horizon": -1.0})
        with pytest.raises(ValueError):
            RecurrenceExperiment(**{**ok, "band": 3.0})
        with pytest.raises(ValueError):
            RecurrenceExperiment(**{**ok, "band": 0.0})
        with pytest.raises(ValueError):
            RecurrenceExperiment(**{**ok, "workers": -1})

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
            RecurrenceExperiment(ZERO, Constant1(), Constant1(), 10, horizon, 3.0, 1.0, seed=0)

    def test_zero_horizon_single_path(self):
        exp = RecurrenceExperiment(
            ZERO, Constant1(), Constant1(), 1, 0.0, 50.0, 1.0, seed=4
        )
        rep = quiet_run(exp)
        assert rep.reached_fraction == 0.0
        assert math.isnan(rep.returned_fraction)
        assert math.isnan(rep.returned_ci[0])
        rec = rep.to_record()
        assert rec["returned_fraction"] is None
        assert rec["returned_ci"] == [None, None]
        assert rec["proxy"] == "band-return"

    def test_thin_subsample_warns(self):
        exp = RecurrenceExperiment(
            ZERO, Constant1(), Constant1(), 20, 100.0, 50.0, 1.0, seed=5
        )
        with pytest.warns(UserWarning) as rec:
            run_recurrence_experiment(exp)
        messages = " | ".join(str(w.message) for w in rec)
        assert "thin subsample" in messages
        assert "horizon is shorter than 4 * level^2" in messages

    def test_ample_horizon_does_not_warn(self):
        exp = RecurrenceExperiment(
            ZERO, Constant1(), Constant1(), 30, 40.0, 3.0, 1.0, seed=6
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_recurrence_experiment(exp)

    def test_deterministic_per_seed(self):
        exp = RecurrenceExperiment(
            ZERO, ExponentialMean1(), ExponentialMean1(), 40, 60.0, 3.0, 1.0, seed=7
        )
        a = quiet_run(exp)
        b = quiet_run(exp)
        assert experiment_csv(a) == experiment_csv(b)
        assert a.returned_fraction == b.returned_fraction

    def test_worker_count_does_not_change_results(self):
        base = dict(
            rate_field=ZERO, up_law=ExponentialMean1(), down_law=ExponentialMean1(),
            n_paths=40, horizon=60.0, level=3.0, band=1.0, seed=8,
        )
        serial = quiet_run(RecurrenceExperiment(**base, workers=1))
        pooled = quiet_run(RecurrenceExperiment(**base, workers=2))
        assert experiment_csv(serial) == experiment_csv(pooled)

    def test_longer_horizon_returns_more(self):
        # diffusive return times have heavy tails: quadrupling the
        # horizon must not lose returns (up to one binomial SE)
        base = dict(
            rate_field=ZERO, up_law=Constant1(), down_law=Constant1(),
            n_paths=300, level=12.0, band=1.0, seed=555,
        )
        short = quiet_run(RecurrenceExperiment(**base, horizon=1500.0))
        long = quiet_run(RecurrenceExperiment(**base, horizon=6000.0))
        n_reached = sum(1 for o in short.paths if o.reached_level)
        se = math.sqrt(short.returned_fraction * (1 - short.returned_fraction) / n_reached)
        assert long.returned_fraction >= short.returned_fraction - se

    def test_outcome_fields_are_consistent(self):
        exp = RecurrenceExperiment(
            ZERO, ExponentialMean1(), ExponentialMean1(), 50, 80.0, 4.0, 1.0, seed=9
        )
        rep = quiet_run(exp)
        assert rep.n_paths == len(rep.paths) == 50
        for o in rep.paths:
            if o.reached_level:
                assert 0.0 < o.first_hit_time <= 80.0
            else:
                assert math.isnan(o.first_hit_time)
                assert not o.returned
        ci = rep.returned_ci
        assert 0.0 <= ci[0] <= rep.returned_fraction <= ci[1] <= 1.0


def scalar_outcome(exp, index):
    """Reference: one materialized ``simulate_walk`` path per outcome."""
    seed = path_seed(exp.seed, index)
    traj = simulate_walk(exp.rate_field, exp.up_law, exp.down_law, exp.horizon, seed, exp.z0)
    reached, t_hit, returned = False, math.nan, False
    absz = np.abs(traj.z_after)
    hit = absz >= exp.level
    if hit.any():
        i = int(np.argmax(hit))
        reached, t_hit = True, float(traj.times[i])
        returned = bool(np.any(absz[i + 1 :] <= exp.band))
    return PathOutcome(index, seed, reached, t_hit, returned, traj.final_z)


def outcome_reprs(outcomes):
    # repr keeps nan == nan, the float bits and the Python types
    return [repr(dataclasses.astuple(o)) for o in outcomes]


# A small table that decays in t as well as in |x|.
TABLE = Tabulated(
    x_grid=[0.0, 5.0, 20.0, 100.0],
    t_grid=[0.0, 1000.0, 6000.0],
    values=[[0.20, 0.15, 0.10], [0.10, 0.08, 0.05], [0.04, 0.03, 0.02], [0.01, 0.01, 0.005]],
)
ENGINE_FIELDS = [Zero(), CriticalLamperti(c=0.5), MeanReverting(kappa=0.3), TABLE]
ENGINE_LAWS = [Constant1(), ExponentialMean1(), GammaMean1(k=2.0), UniformMean1(d=0.4)]
# (up, down) pairs with unit marks on both sides, only up, only down
UNIT_PAIRS = [
    (Constant1(), Constant1()),
    (Constant1(), GammaMean1(k=2.0)),
    (ExponentialMean1(), Constant1()),
]
UNIT_PAIR_IDS = ["unit-both", "unit-up", "unit-down"]


def first_block_times(seed, n):
    """Event times of the n-event first draw block of the path with this
    seed (n = ``simulator._first_block(horizon)`` in the recipe)."""
    waits = np.random.default_rng(seed).exponential(1.0, n)
    return np.cumsum(np.concatenate(((0.0,), waits)))[1:]


def first_block_counts(exp):
    n = simulator._first_block(exp.horizon)
    return [
        int(np.searchsorted(first_block_times(path_seed(exp.seed, i), n), exp.horizon, "right"))
        for i in range(exp.n_paths)
    ]


EXACT_4096TH = float(first_block_times(path_seed(43, 0), 4096)[-1])
EXACT_8TH = float(first_block_times(path_seed(48, 0), 8)[-1])


class TestBatchedEngine:
    """The lockstep engine reduces every path exactly as the scalar loop."""

    def check(self, exp):
        want = [scalar_outcome(exp, i) for i in range(exp.n_paths)]
        assert outcome_reprs(quiet_run(exp).paths) == outcome_reprs(want)

    @pytest.mark.parametrize("field", ENGINE_FIELDS, ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("law", range(len(ENGINE_LAWS)))
    def test_fields_and_laws_across_the_last_chunk(self, field, law):
        # about 4070 events per path: most paths end in the last chunk of
        # their first block, the rest fill it and end early in a second one
        up, down = ENGINE_LAWS[law], ENGINE_LAWS[(law + 1) % len(ENGINE_LAWS)]
        exp = RecurrenceExperiment(
            RateField(field), up, down, 6, 4070.0, 6.0, 1.0, seed=41 + law, z0=0.5
        )
        counts = first_block_counts(exp)
        assert any(4096 - 128 < k < 4096 for k in counts) and 4096 in counts
        self.check(exp)

    @pytest.mark.parametrize(
        "horizon", [0.0, 0.5, 60.0, 4070.0, EXACT_4096TH, 9000.0],
        ids=["zero", "around-first-wait", "first-chunk", "last-chunk", "exact-4096th", "multi-block"],
    )
    def test_horizons(self, horizon):
        exp = RecurrenceExperiment(
            RateField(CriticalLamperti(c=0.5)), GammaMean1(k=2.0), ExponentialMean1(),
            8, horizon, 2.0, 1.0, seed=43, z0=1.5,
        )
        counts = first_block_counts(exp)
        if horizon == 0.5:  # paths without events beside paths with some
            assert 0 in counts and max(counts) > 0
        if horizon == 4070.0:
            assert any(4096 - 128 < k < 4096 for k in counts)
        if horizon == EXACT_4096TH:  # a full block, then a block without events
            assert counts[0] == 4096
        self.check(exp)

    @pytest.mark.parametrize("horizon", [EXACT_8TH, 30.0, 5000.0], ids=["exact-8th", "30", "5000"])
    def test_paths_overflowing_the_first_block(self, monkeypatch, horizon):
        # an 8-event first block: paths go on in blocks of 4096; at the
        # exact 8th event time path 0 fills its first block and ends in a
        # second one without events
        monkeypatch.setattr(simulator, "_first_block", lambda h: 8)
        exp = RecurrenceExperiment(
            RateField(CriticalLamperti(c=0.5)), GammaMean1(k=2.0), ExponentialMean1(),
            6, horizon, 2.0, 1.0, seed=48, z0=0.5,
        )
        counts = first_block_counts(exp)
        assert counts[0] == 8 and (horizon == EXACT_8TH or min(counts) == 8)
        self.check(exp)

    @pytest.mark.parametrize("chunk", [1, 16])
    def test_more_paths_than_one_sub_batch(self, monkeypatch, chunk):
        # chunk 1 puts every event in column 0 of its chunk
        monkeypatch.setattr(simulator, "_BATCH", 3)
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        exp = RecurrenceExperiment(
            RateField(TABLE), ExponentialMean1(), UniformMean1(d=0.4), 10, 300.0, 4.0, 1.0,
            seed=44, z0=-0.5,
        )
        self.check(exp)

    def check_without_unit_mark_draws(self, monkeypatch, exp):
        # unit marks come from buffers filled once: the engine must not
        # ask Constant1 for a block (the scalar reference still does)
        want = [scalar_outcome(exp, i) for i in range(exp.n_paths)]

        def no_draws(law, rng, n):
            raise AssertionError("Constant1.sample_block called by the engine")

        monkeypatch.setattr(Constant1, "sample_block", no_draws)
        assert outcome_reprs(quiet_run(exp).paths) == outcome_reprs(want)

    @pytest.mark.parametrize("field", ENGINE_FIELDS, ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("horizon", [4070.0, 9000.0], ids=["last-chunk", "multi-block"])
    def test_unit_marks_across_fields(self, monkeypatch, field, horizon):
        exp = RecurrenceExperiment(
            RateField(field), Constant1(), Constant1(), 6, horizon, 6.0, 1.0, seed=49, z0=0.5
        )
        counts = first_block_counts(exp)
        assert 4096 in counts
        if horizon == 4070.0:
            assert any(4096 - 128 < k < 4096 for k in counts)
        self.check_without_unit_mark_draws(monkeypatch, exp)

    @pytest.mark.parametrize("horizon", [4070.0, 9000.0], ids=["last-chunk", "multi-block"])
    @pytest.mark.parametrize("laws", UNIT_PAIRS[1:], ids=UNIT_PAIR_IDS[1:])
    def test_one_unit_side(self, monkeypatch, laws, horizon):
        exp = RecurrenceExperiment(
            RateField(CriticalLamperti(c=0.5)), *laws, 6, horizon, 6.0, 1.0, seed=50, z0=0.5
        )
        self.check_without_unit_mark_draws(monkeypatch, exp)

    @pytest.mark.parametrize("chunk", [1, 16])
    @pytest.mark.parametrize("laws", UNIT_PAIRS, ids=UNIT_PAIR_IDS)
    def test_unit_marks_in_small_sub_batches(self, monkeypatch, laws, chunk):
        monkeypatch.setattr(simulator, "_BATCH", 3)
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        exp = RecurrenceExperiment(
            RateField(CriticalLamperti(c=0.5)), *laws, 10, 300.0, 4.0, 1.0, seed=51, z0=-0.5
        )
        self.check_without_unit_mark_draws(monkeypatch, exp)

    def test_more_paths_than_one_sub_batch_at_full_size(self):
        exp = RecurrenceExperiment(
            RateField(CriticalLamperti(c=0.5)), ExponentialMean1(), Constant1(),
            simulator._BATCH + 88, 8.0, 2.0, 1.0, seed=47, z0=0.5,
        )
        self.check(exp)

    def test_csv_bytes_with_one_and_two_workers(self):
        exp = RecurrenceExperiment(
            RateField(TABLE), GammaMean1(k=2.0), Constant1(), 10, 300.0, 4.0, 1.0, seed=45
        )
        want = [scalar_outcome(exp, i) for i in range(exp.n_paths)]
        text = experiment_csv(types.SimpleNamespace(paths=want))
        for workers in (1, 2):
            rep = quiet_run(dataclasses.replace(exp, workers=workers))
            assert experiment_csv(rep) == text

    def test_power_law_fixed_seed(self):
        # the engine evaluates numpy's power, the scalar loop libm's pow;
        # they differ by a few ulp, which flips no direction on this seed
        exp = RecurrenceExperiment(
            RateField(PowerLaw(rho=0.1, alpha=-0.5, beta=0.25)), Constant1(), Constant1(),
            12, 3000.0, 10.0, 1.0, seed=46,
        )
        self.check(exp)


class TestExperimentCsv:
    def test_header_and_round_trip(self):
        exp = RecurrenceExperiment(
            ZERO, ExponentialMean1(), Constant1(), 12, 30.0, 2.0, 0.5, seed=10
        )
        rep = quiet_run(exp)
        lines = experiment_csv(rep).strip().split("\n")
        assert lines[0] == "path,seed,reached_L,first_hit_time,returned,final_z"
        assert len(lines) == 13
        for line, o in zip(lines[1:], rep.paths):
            cols = line.split(",")
            assert int(cols[0]) == o.path
            assert int(cols[1]) == o.seed
            assert int(cols[2]) == int(o.reached_level)
            t = float(cols[3])
            assert t == o.first_hit_time or (math.isnan(t) and math.isnan(o.first_hit_time))
            assert int(cols[4]) == int(o.returned)
            assert float(cols[5]) == o.final_z


class TestOccupancy:
    def test_zero_observation_time(self):
        occ = estimate_occupancy(MR, Constant1(), Constant1(), 0.0, (-5, 5), seed=1)
        assert occ.total_time == 0.0
        assert np.all(occ.p_star == 0.0)

    def test_rejects_unsigned_drift(self):
        with pytest.raises(ValueError, match="signed"):
            estimate_occupancy(ZERO, Constant1(), Constant1(), 10.0, (-5, 5), seed=1)
        with pytest.raises(ValueError, match="signed"):
            estimate_occupancy(
                RateField(CriticalLamperti(c=1.0)), Constant1(), Constant1(),
                10.0, (-5, 5), seed=1,
            )

    def test_window_validation(self):
        with pytest.raises(ValueError):
            estimate_occupancy(MR, Constant1(), Constant1(), 10.0, (5, -5), seed=1)
        with pytest.raises(ValueError):
            estimate_occupancy(MR, Constant1(), Constant1(), -1.0, (-5, 5), seed=1)

    @pytest.mark.parametrize("total_time", [math.inf, math.nan])
    def test_rejects_non_finite_total_time(self, total_time):
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            estimate_occupancy(MR, Constant1(), Constant1(), total_time, (-5, 5), seed=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z0", [1e19, -1e19])
    def test_states_beyond_int64_fall_outside_the_window(self, z0):
        # cells are picked in float: casting z ~ 1e19 to int64 would warn
        occ = estimate_occupancy(MR, Constant1(), Constant1(), 50.0, (-5, 5), seed=1, z0=z0)
        assert occ.p_star.tolist() == [0.0] * 11

    def test_cell_accessor(self):
        occ = OccupancyEstimate(-2, 2, np.array([0.1, 0.2, 0.3, 0.2, 0.1]), 10.0)
        assert occ.cell(-2) == 0.1
        assert occ.cell(2) == 0.1
        with pytest.raises(ValueError):
            occ.cell(3)

    def test_mass_concentrates_in_a_wide_window(self):
        occ = estimate_occupancy(
            MR, ExponentialMean1(), ExponentialMean1(), 2e4, (-30, 30), seed=93
        )
        assert 0.9 <= float(occ.p_star.sum()) <= 1.0

    def test_reverting_drift_is_reflection_symmetric(self):
        # cells [n-1, n) and [-n, -n+1) mirror each other under x -> -x
        occ = estimate_occupancy(
            MR, ExponentialMean1(), ExponentialMean1(), 1e5, (-10, 10), seed=91
        )
        for n in range(-5, 6):
            assert abs(occ.cell(n) - occ.cell(-n + 1)) <= 0.02

    def test_estimates_stabilize_as_time_doubles(self):
        kw = dict(window=(-10, 10))
        a = estimate_occupancy(MR, ExponentialMean1(), ExponentialMean1(), 3e4, seed=92, **kw)
        b = estimate_occupancy(MR, ExponentialMean1(), ExponentialMean1(), 6e4, seed=92, **kw)
        assert np.mean(np.abs(a.p_star - b.p_star)) < 2.0 / math.sqrt(3e4)

    def test_deterministic(self):
        a = estimate_occupancy(MR, ExponentialMean1(), Constant1(), 500.0, (-6, 6), seed=3)
        b = estimate_occupancy(MR, ExponentialMean1(), Constant1(), 500.0, (-6, 6), seed=3)
        assert np.array_equal(a.p_star, b.p_star)


def materialized_occupancy(rf, up_law, down_law, total_time, window, seed, z0=0.0):
    """Reference: one np.add.at over the whole materialized trajectory."""
    n_min, n_max = window
    traj = simulate_walk(rf, up_law, down_law, total_time, seed, z0)
    starts = np.concatenate(([0.0], traj.times))
    zvals = np.concatenate(([z0], traj.z_after))
    ends = np.concatenate((traj.times, [total_time]))
    cells = np.floor(zvals).astype(np.int64) + 1
    acc = np.zeros(n_max - n_min + 1)
    inside = (cells >= n_min) & (cells <= n_max)
    np.add.at(acc, cells[inside] - n_min, (ends - starts)[inside])
    return traj, acc / total_time


class TestStreamedOccupancy:
    """The block-streamed estimate equals the materialized one bit for bit."""

    def check(self, total_time, window, seed, z0=0.0, laws=(ExponentialMean1(), GammaMean1(k=2.0))):
        occ = estimate_occupancy(MR, *laws, total_time, window, seed, z0)
        traj, want = materialized_occupancy(MR, *laws, total_time, window, seed, z0)
        assert occ.p_star.view(np.int64).tolist() == want.view(np.int64).tolist()
        return traj, occ

    def test_path_spanning_several_blocks(self):
        traj, _ = self.check(1.5e4, (-40, 40), seed=95, z0=0.25)
        assert traj.n_events > 3 * 4096

    def test_horizon_before_the_first_event(self):
        first_wait = np.random.default_rng(96).exponential(1.0, 4096)[0]
        traj, occ = self.check(0.5 * first_wait, (-3, 3), seed=96, z0=1.5)
        assert traj.n_events == 0
        assert occ.cell(2) == 1.0

    def test_path_leaving_the_window(self):
        traj, occ = self.check(6e3, (-2, 3), seed=97, laws=(Constant1(), Constant1()))
        assert np.any((traj.z_after < -3) | (traj.z_after >= 3))
        assert 0.0 < float(occ.p_star.sum()) < 1.0


class TestBalance:
    def test_zero_mass_zero_residual(self):
        chain = discretize_to_bd(MR, -10, 10)
        occ = OccupancyEstimate(-8, 8, np.zeros(17), 1.0)
        res = balance_residual(occ, chain)
        assert res.l1 == 0.0
        assert np.all(res.residuals == 0.0)
        assert (res.n_lo, res.n_hi) == (-7, 7)

    def test_exact_solve_balances_to_solver_precision(self):
        chain = discretize_to_bd(MR, -10, 10)
        sol = solve_balance_window(chain, -8, 8)
        assert float(sol.p_star.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sol.p_star >= 0)
        res = balance_residual(sol, chain)
        assert res.l1 < 1e-10

    def test_longer_observation_shrinks_the_residual(self):
        chain = discretize_to_bd(MR, -10, 10)
        small = estimate_occupancy(
            MR, ExponentialMean1(), ExponentialMean1(), 2e4, (-8, 8), seed=94
        )
        big = estimate_occupancy(
            MR, ExponentialMean1(), ExponentialMean1(), 2e5, (-8, 8), seed=94
        )
        r_small = balance_residual(small, chain)
        r_big = balance_residual(big, chain)
        assert r_big.l1 < r_small.l1

    def test_residual_is_linear_in_the_masses(self):
        chain = discretize_to_bd(MR, -6, 6)
        rng = np.random.default_rng(12)
        p = rng.random(9) / 9.0
        base = balance_residual(OccupancyEstimate(-4, 4, p, 1.0), chain)
        for alpha in (0.0, 0.25, 2.0):
            scaled = balance_residual(OccupancyEstimate(-4, 4, alpha * p, 1.0), chain)
            assert np.allclose(scaled.residuals, alpha * base.residuals, rtol=1e-12, atol=1e-15)

    def test_window_margins_enforced(self):
        chain = discretize_to_bd(MR, -5, 5)
        with pytest.raises(ValueError, match="margin"):
            balance_residual(OccupancyEstimate(-5, 5, np.zeros(11), 1.0), chain)
        with pytest.raises(ValueError):
            balance_residual(OccupancyEstimate(-4, -3, np.zeros(2), 1.0), chain)

    @pytest.mark.parametrize("chain,window", BALANCE_WINDOWS)
    def test_detailed_balance_matches_the_dense_solve(self, chain, window):
        p = solve_balance_window(chain, *window).p_star
        want = dense_balance_solve(chain, *window)
        # Against the 60-digit product below, the dense solve itself is off
        # by up to 2.8e-11 of the largest mass on these windows.
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=1e-10 * want.max())

    @pytest.mark.parametrize("chain,window", BALANCE_WINDOWS)
    def test_detailed_balance_matches_a_high_precision_product(self, chain, window):
        p = solve_balance_window(chain, *window).p_star
        np.testing.assert_allclose(p, decimal_balance_product(chain, *window), rtol=1e-12)

    def test_steep_window_beyond_float64_range(self):
        # lam/mu = 3 exactly, so a linear-space product (3^800) overflows.
        k = 801
        chain = BDChain(0, k - 1, lam=np.full(k, 0.75), mu=np.full(k, 0.25))
        with np.errstate(over="ignore"):
            assert np.prod(chain.lam[:-1] / chain.mu[1:]) == np.inf
        p = solve_balance_window(chain, 0, k - 1).p_star
        # Rounding in the log-space sum grows with |log p|, so the tail
        # masses far below the top carry up to ~2e-11 relative error.
        np.testing.assert_allclose(p, decimal_balance_product(chain, 0, k - 1), rtol=1e-12, atol=1e-15)

    def test_non_finite_rates_raise(self):
        chain = BDChain(0, 3, lam=[0.5, np.inf, 0.5, 0.5], mu=[0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ArithmeticError, match="finite"):
            solve_balance_window(chain, 0, 3)

    def test_solver_window_validation(self):
        chain = discretize_to_bd(MR, -5, 5)
        with pytest.raises(ValueError):
            solve_balance_window(chain, 3, 3)
        with pytest.raises(ValueError):
            solve_balance_window(chain, -6, 4)


def decimal_balance_product(chain, n_min, n_max):
    """Reference: the detailed-balance product in 60-digit decimal arithmetic."""
    lam, mu = chain.rates_at(np.arange(n_min, n_max + 1))
    with decimal.localcontext(decimal.Context(prec=60)):
        p = [decimal.Decimal(1)]
        for i in range(lam.size - 1):
            p.append(p[-1] * decimal.Decimal(lam[i]) / decimal.Decimal(mu[i + 1]))
        total = sum(p)
        return np.array([float(v / total) for v in p])


def dense_balance_solve(chain, n_min, n_max):
    """Reference: the k x k reflecting balance system, last row swapped for
    the normalization, solved densely."""
    lam, mu = chain.rates_at(np.arange(n_min, n_max + 1))
    k = lam.size
    a = np.zeros((k, k))
    a[0, 0] = -lam[0]
    a[0, 1] = mu[1]
    for i in range(1, k - 1):
        a[i, i - 1] = lam[i - 1]
        a[i, i] = -(lam[i] + mu[i])
        a[i, i + 1] = mu[i + 1]
    a[k - 1, :] = 1.0
    b = np.zeros(k)
    b[k - 1] = 1.0
    p = np.maximum(np.linalg.solve(a, b), 0.0)
    return p / p.sum()
