import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from driftlab.fields import (
    Constant1,
    CriticalLamperti,
    DriftField,
    ExponentialMean1,
    GammaMean1,
    MeanReverting,
    PowerLaw,
    RateField,
    Tabulated,
    UniformMean1,
    Zero,
)
from driftlab import simulator
from driftlab.experiments import RecurrenceExperiment, estimate_occupancy, run_recurrence_experiment
from driftlab.seeding import path_seed
from driftlab.simulator import (
    Trajectory,
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


def reference_walk(rf, up_law, down_law, horizon, seed, z0=0.0, block=256):
    """Reference for walk paths under draw contract 5 (as under 4), one
    event at a time.  The waits come from stream A, ``default_rng(seed)``,
    until one crosses the horizon.  Stream B, the same stream advanced
    2**96 words, then gives per block of ``block`` events (the last
    holding what is left) the block's uniforms, up marks and down marks.
    Each event is split by the scalar phi at its time and the state
    before it.  Returns the times, signed jumps, z_after and direction
    uniforms."""
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    b.bit_generator.advance(1 << 96)
    times, t = [], 0.0
    while horizon > 0:
        t += a.standard_exponential()
        if t > horizon:
            break
        times.append(t)
    us, ups, dns = [], [], []
    for j0 in range(0, len(times), block):
        c = min(block, len(times) - j0)
        us += b.random(c).tolist()
        ups += up_law.sample_block(b, c).tolist()
        dns += down_law.sample_block(b, c).tolist()
    phi = rf.drift.scalar_phi()
    z, jumps, zs = z0, [], []
    for tn, u, up, dn in zip(times, us, ups, dns):
        j = up if u < 0.5 + phi(z, tn) else -dn
        z += j
        jumps.append(j)
        zs.append(z)
    return np.array(times), np.array(jumps), np.array(zs), np.array(us)


def assert_same_path(traj, want):
    for got, ref in zip((traj.times, traj.jumps, traj.z_after), want):
        assert got.tobytes() == ref.tobytes()


def nth_event_time(seed, n):
    """The n-th event time of the path with this seed: the n-th partial
    sum of stream A's waits."""
    return float(np.cumsum(np.random.default_rng(seed).exponential(1.0, n))[-1])


LAWS = [Constant1(), ExponentialMean1(), GammaMean1(k=2.0), UniformMean1(d=0.4)]
RECIPE_FIELDS = [ZERO, RateField(CriticalLamperti(c=0.5))]
REF_SEED = 71
# paths that end on a block edge, their last block full: the 256th
# event, and the 4096th, which also ends a pass of _event_blocks
EXACT_256TH = nth_event_time(REF_SEED, 256)
EXACT_4096TH = nth_event_time(REF_SEED, 4096)
EXACT_8TH = nth_event_time(REF_SEED, 8)


@pytest.mark.parametrize("rf", RECIPE_FIELDS, ids=["zero", "lamperti"])
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize(
    "horizon", [0.0, 0.3, EXACT_256TH, 300.0, 3600.0, EXACT_4096TH, 9000.0, 2e4]
)
def test_walk_matches_the_per_event_reference(rf, law, horizon):
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    traj = simulate_walk(rf, up, down, horizon, seed=REF_SEED, z0=0.25)
    assert_same_path(traj, reference_walk(rf, up, down, horizon, REF_SEED, z0=0.25))
    if horizon == EXACT_256TH:
        assert traj.n_events == 256
    if horizon == EXACT_4096TH:
        assert traj.n_events == 4096


@pytest.mark.parametrize("rf", RECIPE_FIELDS, ids=["zero", "lamperti"])
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize("horizon", [EXACT_8TH, 30.0, 5000.0])
def test_paths_overflowing_the_first_block(monkeypatch, rf, law, horizon):
    # 8-event blocks, read in passes of 3: the path goes on past its first
    # block, or at the exact 8th event time fills it and ends
    monkeypatch.setattr(simulator, "_BLOCK", 8)
    monkeypatch.setattr(simulator, "_PASS", 3)
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    traj = simulate_walk(rf, up, down, horizon, seed=REF_SEED, z0=0.25)
    assert_same_path(traj, reference_walk(rf, up, down, horizon, REF_SEED, 0.25, block=8))
    assert traj.n_events == 8 if horizon == EXACT_8TH else traj.n_events > 8


@pytest.mark.parametrize(
    "horizon,n", [(0.0, 16), (1.0, 25), (143.0, 255), (144.0, 256), (1e9, 256), (math.inf, 256)]
)
def test_first_block_size(horizon, n):
    # min(256, ceil(h + 8 sqrt(h) + 16))
    assert simulator._first_block(horizon) == n


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("seed", [7, 2**64 - 1])
@pytest.mark.parametrize("horizon", [30.0, 300.0, 5000.0])
def test_compound_poisson_and_walk_paths_share_one_generator(law, seed, horizon):
    # with rate == rate_bound == 1 every proposal is accepted, and with
    # a Zero field and unit down-steps the walk's stream B holds the same
    # words: per block the uniforms, then the up law's marks
    traj = simulate_walk(ZERO, law, Constant1(), horizon, seed)
    times, marks = simulate_compound_poisson(lambda t: 1.0, 1.0, law, horizon, seed)
    assert same_bits(times, traj.times)
    up = traj.jumps > 0
    assert same_bits(marks[up], traj.jumps[up])
    # past one 256-event block, and past a first pass and a 4096-wait one
    assert traj.n_events > {30.0: 0, 300.0: 256, 5000.0: 256 + 4096}[horizon]


class MantissaParity(DriftField):
    """phi = +1/4 where the last bit of x is set, else -1/4: a direction
    in the band depends on every bit of the state, so a state summed in
    any order but the left fold shows."""

    signed = True
    x_floor = 1.0

    def phi(self, x, t):
        v = np.where(np.asarray(x, float).view(np.int64) & 1, 0.25, -0.25) + np.zeros(np.shape(t))
        return v if v.ndim else float(v)

    def scalar_phi(self):
        return lambda x, t: 0.25 if struct.unpack("<q", struct.pack("<d", x))[0] & 1 else -0.25

    def phi_bound(self, t):
        return 0.25


# every family, with the bands of the event loop at their edges: no band
# (zero), a narrow one, the full [0, 1) (alpha > 0, clipped c and kappa, a
# table above 1/2) and one that narrows with t (power law); and a test
# field that reads every bit of the state
BAND_FIELDS = {
    "zero": Zero(),
    "lamperti": CriticalLamperti(c=0.5),
    "lamperti_clipped": CriticalLamperti(c=3.0),
    "power_law": PowerLaw(rho=0.1, alpha=-0.5, beta=0.25),
    "power_law_alpha_pos": PowerLaw(rho=0.05, alpha=0.5, beta=0.5),
    "power_law_beta0": PowerLaw(rho=0.3, alpha=-1.0, beta=0.0),
    "mean_reverting": MeanReverting(kappa=0.2),
    "mean_reverting_clipped": MeanReverting(kappa=3.0),
    "tabulated": Tabulated(
        x_grid=[0.0, 5.0, 20.0, 100.0],
        t_grid=[0.0, 1000.0, 20000.0],
        values=[[0.20, 0.15, 0.10], [0.10, 0.08, 0.05], [0.04, 0.03, 0.02], [0.01, 0.01, 0.005]],
    ),
    "tabulated_above_half": Tabulated(
        x_grid=[0.0, 3.0], t_grid=[0.0, 50.0], values=[[0.7, 0.6], [0.2, 0.1]]
    ),
    "mantissa_parity": MantissaParity(),
}
BAND_SEEDS = [0, 1, 2**40 + 3, 2**64 - 1]
BAND_HORIZONS = [30.0, 5e3]
# edge starts: a signed zero, and a height where a unit step rounds
# away, so that only the left fold of the jumps gives the reference's bits
BAND_Z0S = [0.25, -0.0, 1e17]


@pytest.mark.parametrize("field", BAND_FIELDS)
@pytest.mark.parametrize("law", range(len(LAWS)))
def test_band_settled_directions_match_the_phi_on_every_event_loop(field, law):
    # the reference loop calls phi on every event; the engine only where
    # the uniform falls inside the block's band
    rf = RateField(BAND_FIELDS[field])
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    for seed in BAND_SEEDS:
        for horizon in BAND_HORIZONS:
            for z0 in BAND_Z0S:
                traj = simulate_walk(rf, up, down, horizon, seed, z0=z0)
                assert_same_path(traj, reference_walk(rf, up, down, horizon, seed, z0=z0))


def engine_paths(rf, up, down, horizon, seeds, z0):
    """Each path's (times, z_after) as the lockstep engine yields them."""
    parts = [([], []) for _ in seeds]
    for rows, t, z, counts in simulator._batch_chunks(rf, up, down, horizon, seeds, z0):
        assert counts.min() >= 1
        assert t.shape == z.shape and t.shape[1] <= simulator._CHUNK  # chunks, not windows
        for i, (p, c) in enumerate(zip(rows.tolist(), counts.tolist())):
            parts[p][0].append(t[i, :c].copy())
            parts[p][1].append(z[i, :c].copy())
    return [tuple(np.concatenate(v) if v else np.array([]) for v in part) for part in parts]


# horizon, then the sizes patched (None: the engine's): the first
# window, _CHUNK, _BATCH and _BLOCK.  "whole": every path ends in the
# first window; "cursors": paths that fill it go on, each on its own pair
# of generators; "groups-of-4" also runs four sub-batches of 8-event
# blocks walked 4 columns at a time.
ENGINE_BLOCKS = {
    "whole-25": (1.0, None, None, None, None),
    "whole-90": (30.0, None, None, None, None),
    "cursors-138": (60.0, None, None, None, 64),
    "whole-8-then-cursors": (30.0, 8, None, None, None),
    "groups-of-4": (30.0, 4, 4, 10, 8),
}


@pytest.mark.parametrize("field", BAND_FIELDS)
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize("case", ENGINE_BLOCKS)
def test_engine_blocks_match_simulate_walk(monkeypatch, field, law, case):
    horizon, first, chunk, batch, block = ENGINE_BLOCKS[case]
    for name, value in (("_first_block", first and (lambda h: first)), ("_CHUNK", chunk),
                        ("_BATCH", batch), ("_BLOCK", block)):
        if value:
            monkeypatch.setattr(simulator, name, value)
    rf = RateField(BAND_FIELDS[field])
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    seeds = [path_seed(2**40 + 3, i) for i in range(40)]
    got = engine_paths(rf, up, down, horizon, seeds, 0.25)
    for seed, (times, z_after) in zip(seeds, got):
        traj = simulate_walk(rf, up, down, horizon, seed, z0=0.25)
        assert same_bits(times, traj.times) and same_bits(z_after, traj.z_after)


@pytest.mark.parametrize("rf", RECIPE_FIELDS, ids=["zero", "lamperti"])
@pytest.mark.parametrize("law", range(len(LAWS)))
@pytest.mark.parametrize("horizon", [3600.0, EXACT_4096TH, 9000.0, 2e4])
def test_lockstep_engine_matches_the_per_event_reference(rf, law, horizon):
    # long paths in lockstep over many windows and stream-A passes, next
    # to a path of another length; at EXACT_4096TH the first one ends on
    # the last event of a pass
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    seeds = [REF_SEED, 5]
    got = engine_paths(rf, up, down, horizon, seeds, 0.25)
    for seed, (times, z_after) in zip(seeds, got):
        want_t, _, want_z, _ = reference_walk(rf, up, down, horizon, seed, z0=0.25)
        assert same_bits(times, want_t) and same_bits(z_after, want_z)
    assert len(got[0][0]) == 4096 if horizon == EXACT_4096TH else len(got[0][0]) > 3000


@pytest.mark.parametrize("kappa", [0.2, 3.0])
@pytest.mark.parametrize("law", range(len(LAWS)))
def test_band_settled_occupancy_matches_the_phi_on_every_event_loop(kappa, law):
    rf = RateField(MeanReverting(kappa=kappa))
    up, down = LAWS[law], LAWS[(law + 1) % len(LAWS)]
    n_min, n_max = -12, 12
    for seed in BAND_SEEDS:
        for horizon in BAND_HORIZONS:
            for z0 in BAND_Z0S:
                occ = estimate_occupancy(rf, up, down, horizon, (n_min, n_max), seed, z0=z0)
                times, _jumps, zs, _us = reference_walk(rf, up, down, horizon, seed, z0=z0)
                starts = np.concatenate(([0.0], times))
                ends = np.concatenate((times, [horizon]))
                cells = np.floor(np.concatenate(([z0], zs))).astype(np.int64) + 1
                acc = np.zeros(n_max - n_min + 1)
                inside = (cells >= n_min) & (cells <= n_max)
                np.add.at(acc, cells[inside] - n_min, (ends - starts)[inside])
                assert same_bits(occ.p_star, acc / horizon)


def counting(field_type, **params):
    """``field_type(**params)`` with a ``scalar_phi`` closure that counts
    its calls in the returned list's one entry."""
    calls = [0]

    class Counting(field_type):
        def scalar_phi(self):
            f = super().scalar_phi()

            def counted(x, t):
                calls[0] += 1
                return f(x, t)

            return counted

    return Counting(**params), calls


def band_uniforms(drift, horizon, seed):
    """Unit-mark events whose direction uniform lies in its pass's band
    [0.5 - m, 0.5 + m), m = ``drift.phi_bound`` at the pass's start."""
    times, _jumps, _zs, us = reference_walk(RateField(drift), Constant1(), Constant1(), horizon, seed)
    n, count = simulator._PASS * simulator._BLOCK, 0
    for j0 in range(0, us.size, n):
        m = drift.phi_bound(times[j0 - 1] if j0 else 0.0)
        u = us[j0 : j0 + n]
        count += int(np.count_nonzero((u >= 0.5 - m) & (u < 0.5 + m)))
    return count


def test_balance_path_calls_phi_on_few_events():
    # kappa = 0.2 bounds |phi| by 0.05, so only uniforms in [0.45, 0.55)
    # need phi: about 10% of the events, each exactly once
    drift, calls = counting(MeanReverting, kappa=0.2)
    args = (Constant1(), Constant1(), 2e4, (-50, 50), 31)
    occ = estimate_occupancy(RateField(drift), *args)
    plain = estimate_occupancy(RateField(MeanReverting(kappa=0.2)), *args)
    events = simulate_walk(RateField(MeanReverting(kappa=0.2)), Constant1(), Constant1(), 2e4, 31).n_events
    assert same_bits(occ.p_star, plain.p_star)
    assert 0 < calls[0] == band_uniforms(MeanReverting(kappa=0.2), 2e4, 31) <= 0.15 * events
    # phi_bound = 0 leaves no band, so a zero field never calls phi
    zero, zero_calls = counting(Zero)
    traj = simulate_walk(RateField(zero), Constant1(), Constant1(), 2e4, 31)
    assert_same_path(traj, reference_walk(ZERO, Constant1(), Constant1(), 2e4, 31))
    assert zero_calls[0] == 0


@pytest.mark.parametrize("z0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["simulate_walk", "estimate_occupancy", "experiment", "wald"])
def test_non_finite_z0_rejected(entry, z0):
    # a NaN or infinite start used to give an all-NaN or all-inf result
    rf = RateField(MeanReverting(kappa=0.2))
    calls = {
        "simulate_walk": lambda: simulate_walk(rf, Constant1(), Constant1(), 10.0, 3, z0=z0),
        "estimate_occupancy": lambda: estimate_occupancy(
            rf, Constant1(), Constant1(), 10.0, (-5, 5), 3, z0=z0
        ),
        "experiment": lambda: RecurrenceExperiment(
            rf, Constant1(), Constant1(), n_paths=4, horizon=10.0, level=4.0, band=1.0,
            seed=3, z0=z0,
        ),
        "wald": lambda: wald_second_moment_check(
            rf, Constant1(), Constant1(), sigma=1.0, n_paths=100, seed=3, z0=z0
        ),
    }
    with pytest.raises(ValueError, match="z0 must be finite"):
        calls[entry]()


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


def test_the_stored_rule_is_numpys_16_point_gauss_legendre_bit_for_bit():
    # the compensators read simulator._GL; it is stored so that no run
    # imports numpy.polynomial, and must stay leggauss(16)'s floats
    bits = [(x.hex(), w.hex()) for x, w in simulator._GL]
    assert bits == [(x.hex(), w.hex()) for x, w in GL]


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


def scalar_path(rate, rate_bound, law, horizon, seed, block=256):
    """Reference for draw contract 5, one proposal at a time.  The waits
    come from stream A, ``default_rng(seed)``, each times 1 / rate_bound,
    until one crosses the horizon.  Stream B, the same stream advanced
    2**96 words, then gives per block of ``block`` proposals (the last
    holding what is left) the block's uniforms, then its marks.
    Proposal i at time t is accepted iff u_i * rate_bound <= rate(t),
    with mark i."""
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    b.bit_generator.advance(1 << 96)
    scale = 1.0 / rate_bound
    proposals, t = [], 0.0
    while True:
        t += a.standard_exponential() * scale
        if t > horizon:
            break
        proposals.append(t)
    times, marks = [], []
    for j0 in range(0, len(proposals), block):
        c = min(block, len(proposals) - j0)
        us = b.random(c).tolist()
        ms = law.sample_block(b, c).tolist()
        for tn, u, m in zip(proposals[j0 : j0 + c], us, ms):
            if u * rate_bound <= rate(tn):
                times.append(tn)
                marks.append(m)
    return np.array(times), np.array(marks)


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


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("tau", [7.5, MARTINGALE_HORIZON])
@pytest.mark.parametrize("first,chunk", [(2, None), (None, 4), (2, 4)],
                         ids=["first-block-2", "chunk-4", "both"])
def test_martingale_check_groups_and_paths_drawn_again(monkeypatch, law, tau, first, chunk):
    # a 2-wait first window is filled by most paths, which are then drawn
    # again from their start, each on its own pair of generators; _CHUNK
    # 4 caps a span at 512 * 4 // 6 = 341 of the 400 paths
    if first:
        monkeypatch.setattr(simulator, "_first_block", lambda h: first)
    if chunk:
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
    spans, again = [], []
    blocks = simulator._blocks

    def counted(laws, horizon, scale, paths, n, cols, rngs):
        (again if n == simulator._BLOCK else spans).append(paths.size)
        return blocks(laws, horizon, scale, paths, n, cols, rngs)

    monkeypatch.setattr(simulator, "_blocks", counted)
    args = (0.5, law, tau, MARTINGALE_HORIZON, 400, 2**40 + 9)
    chk, seen = run_martingale_check(monkeypatch, *args)
    assert_matches_scalar_loop(chk, seen, *args)
    assert spans == ([341, 59] if chunk else [400])
    assert (sum(again) > 300) == (first is not None)


def test_martingale_check_memory_does_not_grow_with_rate_times_horizon():
    # rate x horizon = 4096, so first blocks hold 4096 proposals and a
    # sub-batch is 512 * 128 // 4096 = 16 paths: 1.5 MB of rows and the
    # compensator of about 16 x 2048 events.  Uncapped 100-path rows and
    # their compensator take about 40 MB, as the former scalar loop did.
    tracemalloc.start()
    try:
        chk = martingale_check(1.0, ExponentialMean1(), 2048.0, 4096.0, 100, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.n_paths == 100
    assert peak <= 12e6


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
        rep = run_recurrence_experiment(exp)
        assert [c.dtype for c in (rep.seeds, rep.reached, rep.first_hit_time, rep.returned,
                                  rep.final_z)] == [np.uint64, bool, np.float64, bool, np.float64]
        want_hit, want_returned, want_final = np.full(515, np.nan), np.zeros(515, bool), []
        for i in range(515):
            traj = simulate_walk(rf, up, down, 50.0, path_seed(seed, i), z0)
            want_final.append(traj.final_z)
            absz = np.abs(traj.z_after)
            hit = np.flatnonzero(absz >= 3.0)
            if hit.size:
                want_hit[i] = traj.times[hit[0]]
                want_returned[i] = np.any(absz[hit[0] + 1 :] <= 1.0)
        assert rep.seeds.tolist() == [path_seed(seed, i) for i in range(515)]
        assert same_bits(rep.final_z, want_final)
        # NaN where a path never reached, so the reached column is pinned too
        assert same_bits(rep.first_hit_time, want_hit)
        assert np.array_equal(rep.reached, ~np.isnan(want_hit))
        assert np.array_equal(rep.returned, want_returned)


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


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("rate,bound", VARIABLE_RATES, ids=["decaying", "rising"])
def test_compound_poisson_blocks_after_the_first_match_the_scalar_loop(monkeypatch, law, rate,
                                                                       bound):
    # 4-proposal blocks, read in passes of 2 after the first: every path
    # goes on past its first block, some past its second pass
    monkeypatch.setattr(simulator, "_BLOCK", 4)
    monkeypatch.setattr(simulator, "_PASS", 2)
    proposals = []
    for seed in range(5):
        got = simulate_compound_poisson(rate, bound, law, 20.0, seed)
        want = scalar_path(rate, bound, law, 20.0, seed, block=4)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        waits = np.random.default_rng(seed).standard_exponential(64) * (1.0 / bound)
        proposals.append(int(np.searchsorted(np.cumsum(waits), 20.0, side="right")))
    assert min(proposals) > 4 and max(proposals) > 4 + 2 * 4


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

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
    def test_blocks_match_the_row_by_row_renderer(self, n):
        traj = synthetic_trajectory(n, seed=n)
        assert trajectory_csv(traj) == row_by_row_csv(traj)

    def test_peak_memory_stays_near_the_output_size(self):
        # rows are rendered a block at a time, so the text dominates the
        # peak; whole-path row lists would take over 5x the text
        traj = synthetic_trajectory(100_000, seed=5)
        tracemalloc.start()
        try:
            text = trajectory_csv(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)


def synthetic_trajectory(n, seed):
    """n events of a walk-like path, with -0.0, a subnormal and large
    values among them."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.standard_exponential(n))
    jumps = np.where(rng.random(n) < 0.5, 1.0, -1.0) * rng.standard_gamma(2.0, n) / 2.0
    jumps[: min(n, 3)] = [-0.0, 5e-324, 1e16][: min(n, 3)]
    return Trajectory(seed=seed, horizon=float(n), z0=0.0, times=times, jumps=jumps,
                      z_after=np.cumsum(jumps))


def row_by_row_csv(traj):
    """Reference: one f-string per row over whole-path lists."""
    lines = ["tau,signed_jump,z_after"]
    times, jumps, zs = traj.times.tolist(), traj.jumps.tolist(), traj.z_after.tolist()
    for i in range(len(times)):
        lines.append(f"{times[i]!r},{jumps[i]!r},{zs[i]!r}")
    return "\n".join(lines) + "\n"
