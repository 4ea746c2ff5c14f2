import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.fields import (
    PHI_MAX,
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

IN_SCOPE_FIELDS = [
    Zero(),
    CriticalLamperti(c=0.5),
    CriticalLamperti(c=3.0),
    PowerLaw(rho=0.5, alpha=0.5, beta=0.75),
    PowerLaw(rho=1.0, alpha=0.3, beta=0.2),
    Tabulated(
        x_grid=[0.0, 10.0, 100.0],
        t_grid=[0.0, 50.0, 1e4],
        values=[[0.4, 0.2, 0.1], [0.3, 0.15, 0.05], [0.2, 0.1, 0.0]],
    ),
]


class TestEvalPhi:
    def test_zero_field(self):
        assert Zero().phi(5.0, 3.0) == 0.0

    def test_critical_lamperti_value(self):
        # c/(4x) with x above the floor; no t dependence at all
        assert CriticalLamperti(c=1.0).phi(10.0, 7.0) == 0.025
        assert CriticalLamperti(c=1.0).phi(10.0, 1e9) == 0.025

    def test_power_law_value(self):
        f = PowerLaw(rho=0.5, alpha=0.5, beta=0.75)
        assert f.phi(4.0, 16.0) == pytest.approx(0.125, rel=1e-12)

    def test_negative_x_uses_magnitude(self):
        f = CriticalLamperti(c=1.0)
        assert f.phi(-10.0, 0.0) == f.phi(10.0, 0.0)

    def test_x_floor_regularizes_origin(self):
        f = CriticalLamperti(c=1.0, x_floor=2.0)
        assert f.phi(0.0, 0.0) == f.phi(2.0, 0.0)
        assert f.phi(1.0, 0.0) == f.phi(2.0, 0.0)

    def test_clip_ceiling(self):
        # c/(4x) = 2 at x=1, far above the admissible band
        assert CriticalLamperti(c=8.0).phi(1.0, 0.0) == PHI_MAX

    def test_power_law_at_t_zero_hits_ceiling(self):
        f = PowerLaw(rho=0.1, alpha=0.0, beta=0.5)
        assert f.phi(3.0, 0.0) == PHI_MAX
        # and so does 0 * inf, where one power underflows and the other is
        # infinite (t^-beta at t = 0, or an overflowing |x|^alpha)
        assert PowerLaw(rho=0.1, alpha=-2.0, beta=0.5).phi(1e200, 0.0) == PHI_MAX
        assert PowerLaw(rho=0.5, alpha=2.0, beta=2.0).phi(1e200, 1e200) == PHI_MAX

    def test_vectorized_matches_scalar(self):
        f = PowerLaw(rho=0.4, alpha=0.25, beta=0.6)
        xs = np.array([-7.0, 0.3, 2.0, 50.0])
        ts = np.array([0.0, 1.0, 9.0, 1e6])
        vec = f.phi(xs, ts)
        scalar = f.scalar_phi()
        for i in range(4):
            assert bits(vec[i]) == bits(scalar(xs[i], ts[i]))


class TestEvalRates:
    def test_symmetric_case(self):
        assert RateField(Zero()).rates(0.0, 0.0) == (0.5, 0.5)

    def test_clipped_boundary(self):
        lam, mu = RateField(CriticalLamperti(c=2.0)).rates(1.0, 0.0)
        assert lam == 1.0
        assert mu == 0.0

    def test_plain_value(self):
        lam, mu = RateField(CriticalLamperti(c=1.0)).rates(10.0, 5.0)
        assert lam == pytest.approx(0.525, rel=1e-15)
        assert mu == pytest.approx(0.475, rel=1e-15)
        assert lam + mu == 1.0

    @pytest.mark.parametrize("field", IN_SCOPE_FIELDS + [MeanReverting(kappa=0.3)])
    def test_sum_is_one_exactly_on_grid(self, field):
        rf = RateField(field)
        xs, ts = np.meshgrid(np.linspace(-100, 100, 100), np.linspace(0, 1e4, 100))
        lam, mu = rf.rates(xs, ts)
        assert np.all(lam + mu == 1.0)
        assert np.all((lam >= 0) & (lam <= 1))
        assert np.all((mu >= 0) & (mu <= 1))



@pytest.mark.parametrize("field", IN_SCOPE_FIELDS)
def test_in_scope_fields_are_bounded_and_t_decreasing(field):
    xs = np.linspace(-100.0, 100.0, 100)
    ts = np.linspace(0.0, 1e4, 100)
    vals = np.asarray(field.phi(xs[:, None], ts[None, :]))
    assert vals.shape == (100, 100)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 0.5)
    # monotone non-increasing along the t axis
    assert np.all(np.diff(vals, axis=1) <= 1e-15)


def test_mean_reverting_is_signed_and_odd():
    f = MeanReverting(kappa=0.2)
    assert f.signed
    xs = np.array([0.25, 1.0, 3.0, 40.0])
    plus = np.asarray(f.phi(xs, 0.0))
    minus = np.asarray(f.phi(-xs, 0.0))
    assert np.all(plus < 0)  # pull down on the positive side
    assert np.allclose(plus, -minus, rtol=0, atol=0)
    assert f.phi(0.0, 0.0) == 0.0
    assert np.max(np.abs(plus)) <= 0.05 + 1e-15  # kappa/4 cap


class TestTabulated:
    def make(self):
        return Tabulated(
            x_grid=[0.0, 2.0, 4.0],
            t_grid=[0.0, 10.0],
            values=[[0.4, 0.2], [0.3, 0.1], [0.2, 0.0]],
        )

    def test_interior_bilinear_value(self):
        f = self.make()
        # midpoint of the (x in [2,4], t in [0,10]) patch by hand
        want = (0.3 + 0.1 + 0.2 + 0.0) / 4.0
        assert f.phi(3.0, 5.0) == pytest.approx(want, rel=1e-14)

    def test_clamps_beyond_grid(self):
        f = self.make()
        assert f.phi(100.0, 50.0) == pytest.approx(0.0, abs=1e-15)
        assert f.phi(4.0, 1e6) == f.phi(4.0, 10.0)

    def test_equality_compares_content(self):
        assert self.make() == self.make()
        other = Tabulated(
            x_grid=[0.0, 2.0, 4.0],
            t_grid=[0.0, 10.0],
            values=[[0.4, 0.2], [0.3, 0.1], [0.2, 0.001]],
        )
        assert self.make() != other

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Tabulated(x_grid=[0.0, 1.0], t_grid=[0.0, 1.0], values=[[0.1, -0.1], [0.1, 0.1]])

    def test_rejects_increase_along_t(self):
        with pytest.raises(ValueError):
            Tabulated(x_grid=[0.0, 1.0], t_grid=[0.0, 1.0], values=[[0.1, 0.2], [0.1, 0.1]])

    @pytest.mark.parametrize("key", ["x_grid", "t_grid", "values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, key, bad):
        # NaN passes every ordering check, so finiteness is its own check
        table = dict(x_grid=[0.0, 1.0], t_grid=[0.0, 1.0], values=[[0.1, 0.1], [0.1, 0.1]])
        table[key] = np.array(table[key], float)
        table[key].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            Tabulated(**table)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Tabulated(x_grid=[0.0, 1.0], t_grid=[0.0, 1.0, 2.0], values=[[0.1, 0.1], [0.1, 0.1]])


class TestConstructionGuards:
    def test_critical_lamperti_c_nonnegative(self):
        with pytest.raises(ValueError):
            CriticalLamperti(c=-0.1)

    def test_power_law_rho_positive(self):
        with pytest.raises(ValueError):
            PowerLaw(rho=0.0, alpha=0.5, beta=0.75)

    def test_power_law_beta_nonnegative(self):
        with pytest.raises(ValueError):
            PowerLaw(rho=1.0, alpha=0.5, beta=-0.25)

    @pytest.mark.parametrize("make", [Zero, lambda **kw: CriticalLamperti(c=1.0, **kw)])
    def test_x_floor_positive(self, make):
        with pytest.raises(ValueError):
            make(x_floor=0.0)

    def test_gamma_shape_positive(self):
        with pytest.raises(ValueError):
            GammaMean1(k=0.0)

    def test_uniform_halfwidth_bounded(self):
        with pytest.raises(ValueError):
            UniformMean1(d=1.0)
        UniformMean1(d=0.0)  # degenerate endpoint is allowed

    def test_mean_reverting_kappa_nonnegative(self):
        with pytest.raises(ValueError):
            MeanReverting(kappa=-1.0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: CriticalLamperti(c=math.nan), "c must be nonnegative"),
            (lambda: PowerLaw(rho=math.nan, alpha=-0.5, beta=0.25), "rho must be positive"),
            (lambda: PowerLaw(rho=0.1, alpha=math.nan, beta=0.25), "alpha must not be NaN"),
            (lambda: PowerLaw(rho=0.1, alpha=-0.5, beta=math.nan), "beta must be nonnegative"),
            (lambda: MeanReverting(kappa=math.nan), "kappa must be nonnegative"),
            (lambda: GammaMean1(k=math.nan), "shape k must be positive"),
            (lambda: Zero(x_floor=math.nan), "x_floor must be positive"),
            (lambda: CriticalLamperti(c=1.0, x_floor=math.nan), "x_floor must be positive"),
            (lambda: PowerLaw(rho=0.1, alpha=-0.5, beta=0.25, x_floor=math.nan),
             "x_floor must be positive"),
            (lambda: MeanReverting(kappa=0.2, x_floor=math.nan), "x_floor must be positive"),
            (lambda: Tabulated(x_grid=[0.0, 1.0], t_grid=[0.0, 1.0], values=[[0.1, 0.1]] * 2,
                               x_floor=math.nan), "x_floor must be positive"),
        ],
        ids=["c", "rho", "alpha", "beta", "kappa", "k", "zero-x_floor", "lamperti-x_floor",
             "power-x_floor", "reverting-x_floor", "tabulated-x_floor"],
    )
    def test_a_nan_parameter_is_rejected(self, make, message):
        # each check is written so that NaN fails it: a NaN c walked down
        # every step, and a NaN x_floor split phi from scalar_phi
        with pytest.raises(ValueError, match=message):
            make()


class TestJumpLaws:
    def test_constant_law_is_degenerate(self):
        rng = np.random.default_rng(0)
        assert Constant1().sample_block(rng, 1)[0] == 1.0
        assert np.all(Constant1().sample_block(rng, 100) == 1.0)

    def test_uniform_support(self):
        rng = np.random.default_rng(1)
        draws = UniformMean1(d=0.5).sample_block(rng, 1000)
        assert np.all(draws > 0.5)
        assert np.all(draws < 1.5)

    def test_gamma_moments_frozen_run(self):
        rng = np.random.default_rng(20240817)
        draws = GammaMean1(k=4.0).sample_block(rng, 10**5)
        assert abs(draws.mean() - 1.0) <= 0.02
        assert abs(draws.var(ddof=1) - 0.25) <= 0.02

    def test_analytic_variances(self):
        assert Constant1().variance == 0.0
        assert ExponentialMean1().variance == 1.0
        assert GammaMean1(k=4.0).variance == 0.25
        assert UniformMean1(d=0.6).variance == pytest.approx(0.12)

    @pytest.mark.parametrize(
        "law,var_m2",
        [
            # var of the sample variance ~ (mu4 - sigma^4)/n, from the laws'
            # known central moments:
            #   exponential: mu4 = 9            gamma(k):   mu4 = 3*s^4 + 6*s^4/k
            #   uniform(d):  mu4 = d^4/5        constant:   everything 0
            (ExponentialMean1(), 9.0 - 1.0),
            (GammaMean1(k=2.0), (3 * 0.25 + 6 * 0.25 / 2) - 0.25**2),
            (UniformMean1(d=0.9), 0.9**4 / 5 - (0.9**2 / 3) ** 2),
            (Constant1(), 0.0),
        ],
    )
    def test_moments_within_three_se(self, law, var_m2):
        n = 10**5
        rng = np.random.default_rng(99)
        draws = law.sample_block(rng, n)
        se_mean = math.sqrt(law.variance / n)
        se_var = math.sqrt(var_m2 / n)
        assert np.all(draws > 0)
        assert abs(draws.mean() - 1.0) <= 3 * se_mean + 1e-12
        assert abs(draws.var(ddof=1) - law.variance) <= 3 * se_var + 1e-12

    @pytest.mark.parametrize(
        "law,old",
        [
            (GammaMean1(k=0.3), lambda rng, n: rng.gamma(0.3, 1.0 / 0.3, n)),
            (GammaMean1(k=2.0), lambda rng, n: rng.gamma(2.0, 1.0 / 2.0, n)),
            # for k = 3, x * (1 / k) and x / k differ on a third of draws
            (GammaMean1(k=3.0), lambda rng, n: rng.gamma(3.0, 1.0 / 3.0, n)),
            (ExponentialMean1(), lambda rng, n: rng.exponential(1.0, n)),
            (UniformMean1(d=0.4), lambda rng, n: rng.uniform(0.6, 1.4, n)),
            (Constant1(), lambda rng, n: np.ones(n)),
        ],
        ids=["gamma0.3", "gamma2", "gamma3", "exponential", "uniform", "constant"],
    )
    def test_kernels_match_the_generic_numpy_calls(self, law, old):
        # blocks, blocks drawn into a row of a buffer, rows drawn one by
        # one and finished by one masked call, and the generator's next
        # draw all match the calls the draw recipe was written with
        for n in (1, 7, 4096):
            a, b, c, d = (np.random.default_rng(n) for _ in range(4))
            want = old(b, n).tobytes()
            assert law.sample_block(a, n).tobytes() == want
            rows = np.full((3, n), np.nan)
            row = rows[1]
            assert law.sample_block(c, n, out=row) is row
            assert row.tobytes() == want and np.isnan(rows[[0, 2]]).all()
            # a ragged window: row 0 takes the first n - n // 2 marks and
            # row 1 the rest; the padding past each count and row 2 keep
            # a value that any scaling would move, and no entry is
            # finished twice
            window = np.full((3, n), -1.0)
            counts = np.array([n - n // 2, n // 2, 0])
            for i, k in enumerate(counts[:2]):
                law._draw(d, window[i, :k])
            law._finish(window, where=np.arange(n) < counts[:, None])
            got = np.concatenate((window[0, : counts[0]], window[1, : counts[1]]))
            assert got.tobytes() == want
            assert (window[np.arange(n) >= counts[:, None]] == -1.0).all()
            assert a.random() == b.random() == c.random() == d.random()

    def test_constant_sample_draws_nothing(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert Constant1().sample_block(a, 5).tolist() == [1.0] * 5
        assert a.random() == b.random()


@given(
    c=st.floats(0.0, 50.0),
    x=st.floats(-1e6, 1e6, allow_nan=False),
    t=st.floats(0.0, 1e12),
)
def test_lamperti_phi_always_admissible(c, x, t):
    v = CriticalLamperti(c=c).phi(x, t)
    assert 0.0 <= v <= 0.5


@given(
    rho=st.floats(1e-3, 10.0),
    alpha=st.floats(-2.0, 2.0),
    beta=st.floats(0.0, 3.0),
    x=st.floats(-1e4, 1e4, allow_nan=False),
    t=st.floats(0.0, 1e9),
)
def test_power_law_rates_always_valid(rho, alpha, beta, x, t):
    rf = RateField(PowerLaw(rho=rho, alpha=alpha, beta=beta))
    lam, mu = rf.rates(x, t)
    assert lam + mu == 1.0
    assert 0.0 <= mu <= 0.5 <= lam <= 1.0


# Every scalar fast path must reproduce the vectorized phi bit for bit:
# the event loops use one and the chain discretization the other.
# Queries stay within |x| <= 1e6, where c / (4|x|) and (c/4) / |x| round
# alike (the two orders part only on overflow or subnormal results).
DECAYING_TABLE = Tabulated(
    x_grid=[0.0, 5.0, 20.0, 100.0],
    t_grid=[0.0, 1000.0, 20000.0],
    values=[[0.20, 0.15, 0.10], [0.10, 0.08, 0.05], [0.04, 0.03, 0.02], [0.01, 0.01, 0.005]],
)
# Starts above x_floor and above t = 0, and clips to PHI_MAX near the origin.
OFFSET_TABLE = Tabulated(
    x_grid=[1.5, 3.0, 40.0],
    t_grid=[5.0, 60.0, 900.0],
    values=[[0.6, 0.3, 0.2], [0.2, 0.1, 0.05], [0.05, 0.0, 0.0]],
    x_floor=0.5,
)
# A list, not a set: 0.0 == -0.0, so a set would keep only one zero.
# Past DBL_MAX/4 (about 4.49e307), 4 |x| overflows.
EDGE_X = [
    s * v
    for s in (1.0, -1.0)
    for v in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 20.0, 40.0, 100.0, 1e6, 4.5e307, 1e308,
              sys.float_info.max)
]
# Past about 1e154, t^-2 underflows to 0.
EDGE_T = [0.0, 2.5, 5.0, 60.0, 900.0, 1000.0, 1800.0, 20000.0, 4e4, 1e9, 1e200]

EXACT_SCALAR_FIELDS = [
    Zero(),
    CriticalLamperti(c=0.0),
    CriticalLamperti(c=0.5),
    CriticalLamperti(c=3.0, x_floor=2.0),
    MeanReverting(kappa=0.3),
    MeanReverting(kappa=5.0, x_floor=0.5),
    MeanReverting(kappa=0.3, x_floor=1e-300),  # |x| / x_floor overflows from |x| ~ 1.8e8
    DECAYING_TABLE,
    OFFSET_TABLE,
    PowerLaw(rho=0.1, alpha=-0.5, beta=0.25),
    PowerLaw(rho=0.3, alpha=0.5, beta=0.0),
    # one power underflows to 0 where the other is infinite: at t = 0, and
    # where |x|^2 overflows while t^-2 underflows
    PowerLaw(rho=0.1, alpha=-2.0, beta=0.5),
    PowerLaw(rho=0.5, alpha=2.0, beta=2.0),
]

@pytest.mark.parametrize("field", EXACT_SCALAR_FIELDS)
@given(
    seed=st.integers(0, 2**32 - 1),
    xs=st.lists(st.floats(-1e6, 1e6) | st.sampled_from(EDGE_X), min_size=1, max_size=20),
    ts=st.lists(st.floats(0.0, 1e9) | st.sampled_from(EDGE_T), min_size=1, max_size=20),
)
def test_scalar_phi_matches_phi_bit_for_bit(field, seed, xs, ts):
    x, t = query_points(seed, xs, ts)
    f = field.scalar_phi()
    scalar = np.array([f(a, b) for a, b in zip(x.tolist(), t.tolist())])
    vector = np.asarray(field.phi(x, t), float)
    assert np.array_equal(scalar.view(np.int64), vector.view(np.int64))


def query_points(seed, xs, ts):
    """The drawn (x, t) grid, the whole edge grid (so both zeros of x
    appear in every example) and 500 log-uniform points from the seed,
    so a family that differs on a few percent of points fails every
    example."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], 500)
    x = np.concatenate((
        np.repeat(xs, len(ts)), np.repeat(EDGE_X, len(EDGE_T)), sign * 10.0 ** rng.uniform(-2, 4, 500)
    ))
    t = np.concatenate((np.tile(ts, len(xs)), np.tile(EDGE_T, len(EDGE_X)), 10.0 ** rng.uniform(-2, 6, 500)))
    return x, t


def reference_phi(field, x, t):
    """``phi`` as first written: every family broadcast its value against
    t and copied it before the clip."""
    x = np.asarray(x, float)
    t = np.asarray(t, float)
    lo = -PHI_MAX if field.signed else 0.0
    ax = np.maximum(np.abs(x), field.x_floor)
    if isinstance(field, Zero):
        v = np.zeros(np.broadcast(x, t).shape)
        return v if v.ndim else float(v)
    if isinstance(field, CriticalLamperti):
        # (c / 4) / ax, not the first c / (4 ax), which overflows past DBL_MAX/4
        v = np.broadcast_arrays((field.c / 4.0) / ax, t)[0]
    elif isinstance(field, PowerLaw):
        if field.beta == 0.0:
            tf = np.broadcast_arrays(np.ones(()), t)[0]
        else:
            with np.errstate(over="ignore"):
                tf = np.where(t > 0.0, t, 1.0) ** (-field.beta)
            tf = np.where(t > 0.0, tf, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            v = field.rho * ax**field.alpha * tf
        # 0 * inf, one power underflowed against an infinite factor: the
        # ceiling, as at t = 0, where the first formulation gave NaN
        v = np.where(np.isnan(v), np.inf, v)
    elif isinstance(field, MeanReverting):
        with np.errstate(over="ignore"):  # a tiny x_floor: the quotient may be inf
            m = np.minimum(0.5, np.abs(x) / field.x_floor)
        v = np.broadcast_arrays(-0.5 * field.kappa * np.sign(x) * m, t)[0]
    else:
        qx, qt = np.broadcast_arrays(ax, t)
        qx = np.clip(qx, field.x_grid[0], field.x_grid[-1])
        qt = np.clip(qt, field.t_grid[0], field.t_grid[-1])
        ix = np.clip(np.searchsorted(field.x_grid, qx, side="right") - 1, 0, field.x_grid.size - 2)
        it = np.clip(np.searchsorted(field.t_grid, qt, side="right") - 1, 0, field.t_grid.size - 2)
        x0, x1 = field.x_grid[ix], field.x_grid[ix + 1]
        t0, t1 = field.t_grid[it], field.t_grid[it + 1]
        wx = (qx - x0) / (x1 - x0)
        wt = (qt - t0) / (t1 - t0)
        v = (
            field.values[ix, it] * (1 - wx) * (1 - wt)
            + field.values[ix + 1, it] * wx * (1 - wt)
            + field.values[ix, it + 1] * (1 - wx) * wt
            + field.values[ix + 1, it + 1] * wx * wt
        )
    v = np.clip(np.array(v), lo, PHI_MAX)
    return v if v.ndim else float(v)


def bits(v):
    return np.asarray(v, float).view(np.int64).tolist()


@pytest.mark.parametrize("field", EXACT_SCALAR_FIELDS, ids=lambda f: type(f).__name__)
@given(
    seed=st.integers(0, 2**32 - 1),
    xs=st.lists(st.floats(-1e6, 1e6) | st.sampled_from(EDGE_X), min_size=1, max_size=20),
    ts=st.lists(st.floats(0.0, 1e9) | st.sampled_from(EDGE_T), min_size=1, max_size=20),
)
def test_phi_matches_the_reference_formulation_bit_for_bit(field, seed, xs, ts):
    x, t = query_points(seed, xs, ts)
    assert bits(field.phi(x, t)) == bits(reference_phi(field, x, t))


@pytest.mark.parametrize("field", EXACT_SCALAR_FIELDS, ids=lambda f: type(f).__name__)
def test_phi_shape_contract(field):
    xs = np.array(EDGE_X)
    ts = np.resize(EDGE_T, xs.size)
    for x, t in [(-0.0, 60.0), (3.0, 0.0), (1.5, 1e9)]:
        v = field.phi(x, t)
        assert type(v) is float
        assert bits(v) == bits(reference_phi(field, x, t))
    for x, t in [(xs, 60.0), (xs, 0.0), (2.0, ts), (-0.0, ts), (xs, ts)]:
        v = field.phi(x, t)
        assert type(v) is np.ndarray and v.shape == (xs.size,) and v.dtype == float
        assert v.flags.writeable
        assert not np.shares_memory(v, x) and not np.shares_memory(v, t)
        assert bits(v) == bits(reference_phi(field, x, t))
    # rows of x against columns of t
    v = field.phi(xs[:, None], np.array(EDGE_T)[None, :])
    assert v.shape == (xs.size, len(EDGE_T))
    assert bits(v) == bits(reference_phi(field, xs[:, None], np.array(EDGE_T)[None, :]))


# Fields for the event loop's band: every family, with the bound's edge
# cases (alpha > 0, beta = 0, a small x_floor, clipped kappa and c, and a
# table above 1/2).
BOUND_FIELDS = [
    Zero(),
    CriticalLamperti(c=0.5),
    CriticalLamperti(c=3.0),
    CriticalLamperti(c=0.3, x_floor=0.25),
    PowerLaw(rho=0.1, alpha=-0.5, beta=0.25),
    PowerLaw(rho=2.0, alpha=-2.0, beta=1.5, x_floor=0.5),
    PowerLaw(rho=0.3, alpha=-1.0, beta=0.0),
    PowerLaw(rho=0.5, alpha=0.5, beta=0.75),
    PowerLaw(rho=0.3, alpha=0.5, beta=0.0),
    MeanReverting(kappa=0.2),
    MeanReverting(kappa=1.0, x_floor=3.0),
    MeanReverting(kappa=3.0),
    DECAYING_TABLE,
    OFFSET_TABLE,
    Tabulated(x_grid=[0.0, 3.0], t_grid=[0.0, 50.0], values=[[0.7, 0.6], [0.2, 0.1]]),
    PowerLaw(rho=0.1, alpha=-2.0, beta=0.5),
    PowerLaw(rho=0.5, alpha=2.0, beta=2.0),
]
BOUND_T = [0.0, 1e-300, 1e-3, 0.5, 1.0, 7.5, 60.0, 1e3, 2e4, 1e8]


def bound_x(x_floor):
    """x at and around the floor on both sides, 0 with both signs, and far out."""
    fl = x_floor
    return [0.0, -0.0, fl, -fl, 0.3 * fl, -0.7 * fl, 0.999 * fl, 1.001 * fl, 2.5, -17.0,
            1e3, -1e6, 1e12, -1e12]


@pytest.mark.parametrize("field", BOUND_FIELDS, ids=lambda f: type(f).__name__)
def test_phi_bound_holds_for_every_x_and_later_time(field):
    xs = np.array(bound_x(field.x_floor))
    sphi = field.scalar_phi()
    for t in BOUND_T:
        m = field.phi_bound(t)
        assert 0.0 <= m <= PHI_MAX
        ss = np.array([t, np.nextafter(t, np.inf), t * (1 + 1e-12), 2.0 * t + 1e-9, t + 1.0, 1e3 * t + 5.0, 1e12])
        v = field.phi(xs[:, None], ss[None, :])
        assert np.all(np.abs(v) <= m)
        assert all(abs(sphi(x, s)) <= m for x in xs.tolist() for s in ss.tolist())


def test_phi_bound_values():
    assert Zero().phi_bound(0.0) == 0.0
    assert CriticalLamperti(c=0.5).phi_bound(0.0) == pytest.approx(0.125, rel=1e-8)
    assert CriticalLamperti(c=0.3, x_floor=0.25).phi_bound(5.0) == pytest.approx(0.3, rel=1e-8)
    assert MeanReverting(kappa=0.2).phi_bound(3.0) == pytest.approx(0.05, rel=1e-8)
    pl = PowerLaw(rho=0.1, alpha=-0.5, beta=0.25, x_floor=4.0)
    assert pl.phi_bound(16.0) == pytest.approx(0.1 * 0.5 * 0.5, rel=1e-8)
    assert PowerLaw(rho=0.3, alpha=-1.0, beta=0.0).phi_bound(0.0) == pytest.approx(0.3, rel=1e-8)
    assert DECAYING_TABLE.phi_bound(0.0) == pytest.approx(float(DECAYING_TABLE.values.max()), rel=1e-8)
    # the clip ceiling wherever the formula has no smaller bound
    for field, t in [
        (CriticalLamperti(c=3.0), 1.0),
        (PowerLaw(rho=0.5, alpha=0.5, beta=0.75), 1e8),  # alpha > 0
        (PowerLaw(rho=0.1, alpha=-0.5, beta=0.25), 0.0),  # beta > 0 at t = 0
        (PowerLaw(rho=0.1, alpha=-0.5, beta=2.0), 1e-300),  # t**-beta overflows
        (MeanReverting(kappa=3.0), 0.0),
        (Tabulated(x_grid=[0.0, 3.0], t_grid=[0.0, 50.0], values=[[0.7, 0.6], [0.2, 0.1]]), 1e3),
    ]:
        assert field.phi_bound(t) == PHI_MAX

    class Bare(DriftField):
        pass

    assert Bare().phi_bound(1.0) == PHI_MAX
