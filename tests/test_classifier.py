import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln

from driftlab.classifier import (
    BDChain,
    Classification,
    Verdict,
    _series_checkpoints,
    bd_series_criterion,
    classify_bd_bilateral,
    classify_mv_critical,
    classify_theorem1,
    discretize_to_bd,
    ratio_family_chain,
    ratio_test,
)
from driftlab.fields import CriticalLamperti, MeanReverting, PowerLaw, RateField, Tabulated, Zero


def cl_rates(c, x_floor=1.0):
    return RateField(CriticalLamperti(c=c, x_floor=x_floor))


class TestTheorem1:
    def test_zero_field_is_recurrent_at_zero(self):
        res = classify_theorem1(Zero())
        assert res.verdict is Verdict.RECURRENT
        assert res.c_estimate == 0.0
        assert res.method == "theorem1"
        assert res.window == (2.0, 1e4)

    def test_subcritical_lamperti(self):
        res = classify_theorem1(CriticalLamperti(c=0.5))
        assert res.verdict is Verdict.RECURRENT
        assert res.c_estimate == pytest.approx(0.5, rel=1e-12)

    def test_supercritical_lamperti(self):
        res = classify_theorem1(CriticalLamperti(c=3.0))
        assert res.verdict is Verdict.TRANSIENT
        assert res.c_estimate == pytest.approx(3.0, rel=1e-12)

    def test_power_law_on_parabolic_scale(self):
        # 4x * rho * x^alpha / x^(2 beta) is the constant 4 rho = 2 here
        res = classify_theorem1(PowerLaw(rho=0.5, alpha=0.5, beta=0.75))
        assert res.verdict is Verdict.TRANSIENT
        assert res.c_estimate == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize(
        "c,verdict",
        [
            (0.94, Verdict.RECURRENT),
            (0.96, Verdict.INCONCLUSIVE),
            (1.04, Verdict.INCONCLUSIVE),
            (1.06, Verdict.TRANSIENT),
        ],
    )
    def test_margin_around_the_critical_constant(self, c, verdict):
        assert classify_theorem1(CriticalLamperti(c=c)).verdict is verdict

    def test_tail_window_is_upper_geometric_half(self):
        res = classify_theorem1(CriticalLamperti(c=0.5), x0=4.0, x_max=1e4)
        lo, hi = res.evidence["tail_window"]
        assert lo == pytest.approx(math.sqrt(4.0 * 1e4))
        assert hi == 1e4

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_theorem1(MeanReverting(kappa=0.1))
        with pytest.raises(ValueError):
            classify_theorem1(Zero(), x0=0.0)
        with pytest.raises(ValueError):
            classify_theorem1(Zero(), x0=10.0, x_max=10.0)
        with pytest.raises(ValueError, match="at least 100"):
            classify_theorem1(Zero(), grid=99)

    def test_record_round_trips_through_json(self):
        res = classify_theorem1(CriticalLamperti(c=3.0))
        rec = res.to_record()
        assert set(rec) == {"verdict", "c_estimate", "window", "method"}
        assert rec["verdict"] == "Transient"
        assert json.loads(json.dumps(rec)) == rec


class TestMvCritical:
    @pytest.mark.parametrize(
        "rho,beta,verdict",
        [
            (0.1, 0.75, Verdict.RECURRENT),
            (0.5, 0.25, Verdict.TRANSIENT),
            (0.25, 0.75, Verdict.INCONCLUSIVE),
        ],
    )
    def test_closed_form_threshold(self, rho, beta, verdict):
        res = classify_mv_critical(rho, beta)
        assert res.verdict is verdict
        assert res.c_estimate == pytest.approx(4.0 * rho)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_mv_critical(0.0, 0.75)
        for beta in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError):
                classify_mv_critical(0.1, beta)

    def test_matches_grid_scan_away_from_threshold(self):
        # closed form and the tail scan must agree whenever 4 rho is
        # outside [0.9, 1.1]
        rhos = [r for r in np.geomspace(0.05, 1.0, 20) if not 0.9 <= 4 * r <= 1.1]
        assert len(rhos) >= 18
        for rho in rhos:
            for beta in (0.25, 0.75):
                res = classify_mv_critical(rho, beta)
                assert res.evidence["delegated_verdict"] == res.verdict.value


class TestBDChain:
    def test_site_indexing(self):
        ch = BDChain(2, 5, np.full(4, 0.6), np.full(4, 0.4))
        assert list(ch.sites) == [2, 3, 4, 5]
        assert ch.index(4) == 2
        with pytest.raises(ValueError):
            ch.index(6)

    def test_rejects_nonpositive_rates_and_bad_shapes(self):
        with pytest.raises(ValueError):
            BDChain(1, 3, np.array([0.5, 0.0, 0.5]), np.full(3, 0.5))
        with pytest.raises(ValueError):
            BDChain(1, 3, np.full(3, 0.5), np.array([0.5, -0.1, 0.5]))
        with pytest.raises(ValueError):
            BDChain(1, 3, np.full(2, 0.5), np.full(3, 0.5))
        with pytest.raises(ValueError):
            BDChain(3, 1, np.full(3, 0.5), np.full(3, 0.5))

    def test_rates_at_requires_extension_beyond_window(self):
        ch = BDChain(1, 3, np.full(3, 0.6), np.full(3, 0.4))
        lam, mu = ch.rates_at(np.array([1, 3]))
        assert np.all(lam == 0.6)
        with pytest.raises(ValueError, match="extension"):
            ch.rates_at(np.array([4]))


class TestDiscretize:
    def test_flat_field_gives_constant_rates(self):
        # phi is pinned at 0.1 across the whole window
        ch = discretize_to_bd(cl_rates(4e5, x_floor=1e6), 2, 50)
        assert np.all(ch.lam == ch.lam[0])
        assert ch.lam[0] == pytest.approx(0.6, abs=1e-15)
        assert ch.mu[0] == pytest.approx(0.4, abs=1e-15)
        assert np.all(ch.lam + ch.mu == 1.0)

    def test_zero_field_gives_half_half(self):
        ch = discretize_to_bd(RateField(Zero()), 2, 40)
        assert np.all(ch.lam == 0.5)
        assert np.all(ch.mu == 0.5)

    def test_midpoint_rule_single_point(self):
        # cell [4, 5] evaluated at 4.5: phi = 1/18
        ch = discretize_to_bd(cl_rates(1.0), 2, 10, quadrature_points=1)
        i = ch.index(5)
        assert ch.lam[i] == pytest.approx(0.5 + 1.0 / 18.0, rel=1e-12)
        assert ch.mu[i] == pytest.approx(0.5 - 1.0 / 18.0, rel=1e-12)

    def test_quadrature_refinement_is_tame(self):
        c1 = discretize_to_bd(cl_rates(1.0), 98, 100, quadrature_points=1)
        c64 = discretize_to_bd(cl_rates(1.0), 98, 100, quadrature_points=64)
        i = c1.index(100)
        assert abs(c1.lam[i] - c64.lam[i]) <= 1e-4
        assert abs(c1.mu[i] - c64.mu[i]) <= 1e-4

    def test_extension_matches_wider_window(self):
        ch = discretize_to_bd(cl_rates(0.5), 2, 100)
        wide = discretize_to_bd(cl_rates(0.5), 149, 151)
        lam, mu = ch.rates_at(np.array([150]))
        assert lam[0] == wide.lam[wide.index(150)]
        assert mu[0] == wide.mu[wide.index(150)]

    def test_saturated_cell_is_rejected(self):
        # strong drift pins phi to the boundary over all of [1, 2], so
        # the averaged down-rate there is exactly zero
        with pytest.raises(ValueError, match="non-positive at cell n=2"):
            discretize_to_bd(cl_rates(3.0), 2, 10, quadrature_points=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            discretize_to_bd(cl_rates(1.0), 5, 5)
        with pytest.raises(ValueError):
            discretize_to_bd(cl_rates(1.0), 2, 10, quadrature_points=0)


def parabolic_time(xs):
    return np.maximum(xs * xs, 1.0)


def one_shot_cell_rates(rf, ns, quadrature_points, time=parabolic_time):
    """Reference: the whole (sites x quadrature) grid in one evaluation,
    each node x read at ``time(x)``."""
    offsets = (np.arange(quadrature_points) + 0.5) / quadrature_points
    xs = (np.asarray(ns, float)[:, None] - 1.0) + offsets[None, :]
    lam_x, mu_x = rf.rates(xs, time(xs))
    return np.asarray(lam_x).mean(axis=1), np.asarray(mu_x).mean(axis=1)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


CELL_FIELDS = [
    CriticalLamperti(c=2.0),
    PowerLaw(rho=0.1, alpha=-0.5, beta=0.25),
    Tabulated(x_grid=[0.0, 5.0, 100.0], t_grid=[0.0, 1e9], values=[[0.3, 0.2], [0.1, 0.05], [0.02, 0.01]]),
]


@pytest.mark.parametrize("field", CELL_FIELDS, ids=lambda f: type(f).__name__)
@pytest.mark.parametrize("sites", [1, 1023, 1024, 1025, 4095, 4096, 4097, 2**17])
@pytest.mark.parametrize("q", [1, 3, 8])
def test_row_blocked_cell_rates_match_the_one_shot_grid(field, sites, q):
    rf = RateField(field)
    n_max = 2 + max(sites, 2) - 1  # a window holds at least two sites
    ch = discretize_to_bd(rf, 2, n_max, quadrature_points=q)
    lam, mu = one_shot_cell_rates(rf, ch.sites, q)
    assert same_bits(ch.lam, lam) and same_bits(ch.mu, mu)
    ns = np.arange(n_max + 1, n_max + 1 + sites)
    lam, mu = one_shot_cell_rates(rf, ns, q)
    got_lam, got_mu = ch.extend(ns)
    assert same_bits(got_lam, lam) and same_bits(got_mu, mu)


TIME_FREE_FIELDS = [
    Zero(),
    CriticalLamperti(c=1.0),
    MeanReverting(kappa=0.3),
    PowerLaw(rho=0.1, alpha=-0.5, beta=0.0),
]


@pytest.mark.parametrize("field", TIME_FREE_FIELDS, ids=lambda f: type(f).__name__)
def test_time_free_fields_give_the_fixed_time_chain(field):
    # parabolic time moves no chain of a field that ignores t: window and
    # extension equal one grid read at the fixed time 1e8, bit for bit,
    # on both sides of the origin and across a block boundary
    rf = RateField(field)
    ch = discretize_to_bd(rf, -40, 5000)
    lam, mu = one_shot_cell_rates(rf, ch.sites, 8, time=lambda xs: 1e8)
    assert same_bits(ch.lam, lam) and same_bits(ch.mu, mu)
    ns = np.arange(5001, 9200)
    lam, mu = one_shot_cell_rates(rf, ns, 8, time=lambda xs: 1e8)
    got_lam, got_mu = ch.extend(ns)
    assert same_bits(got_lam, lam) and same_bits(got_mu, mu)


@pytest.mark.parametrize("beta", [0.25, 0.75])
@pytest.mark.parametrize("rho", [0.05, 0.1, 0.2, 0.3125, 0.5, 1.0])
def test_parabolic_chain_agrees_with_the_mv_closed_form(rho, beta):
    # phi = rho x^(2 beta - 1) / t^beta read at t = x^2 is rho / x, so both
    # chain criteria must give the closed form's verdict (4 rho against 1)
    # in every window: n_max 1e4, n_max 1e6, and 1e4 with the series tail
    # run to 1e6 (the ratio test reads the window only)
    want = classify_mv_critical(rho, beta).verdict
    rf = RateField(PowerLaw(rho=rho, alpha=2.0 * beta - 1.0, beta=beta))
    short = discretize_to_bd(rf, 10, 10**4)
    long = discretize_to_bd(rf, 10, 10**6)
    windows = [(short, 0), (long, 0), (short, 10**6 - 10**4)]
    got = [
        (ratio_test(ch, 10).verdict, bd_series_criterion(ch, 10, tail_extension=ext).verdict)
        for ch, ext in windows
    ]
    assert got == [(want, want)] * 3


def test_series_tail_memory_is_bounded():
    # the tail's 2**17-site blocks evaluate their quadrature grid 4096
    # rows at a time; a whole block's 2**17 x 8 grid would peak near 50 MB
    ch = discretize_to_bd(cl_rates(2.0), 2, 10000)
    tracemalloc.start()
    try:
        res = bd_series_criterion(ch, 2, tail_extension=990000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verdict is Verdict.TRANSIENT
    assert peak <= 24e6


def test_series_tail_is_read_in_pieces_of_2_14_sites():
    # a 2**17-site tail block is evaluated 2**14 sites at a time in two
    # reused buffers; the whole block's temporaries took about 8 MB
    ch = discretize_to_bd(cl_rates(2.0), 2, 10000)
    tracemalloc.start()
    try:
        res = bd_series_criterion(ch, 2, tail_extension=990000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verdict is Verdict.TRANSIENT
    assert peak <= 4e6


def whole_block_series(chain, n0, tail_extension):
    """Reference: the series' sum, last term and last six checkpoints with
    each 2**17-site block evaluated whole, one cumsum per block."""
    block = 1 << 17
    total = chain.n_max + tail_extension - n0 + 1
    lengths = np.array(_series_checkpoints(total))
    log_carry = s_total = 0.0
    ckpts = []
    for done in range(0, total, block):
        ns = np.arange(n0 + done, n0 + min(done + block, total))
        lam, mu = chain.rates_at(ns)
        with np.errstate(divide="ignore"):
            logs = log_carry + np.cumsum(np.log(mu) - np.log(lam))
        log_carry = float(logs[-1])
        with np.errstate(under="ignore", over="ignore"):
            terms = np.exp(logs)
        csum = s_total + np.cumsum(terms)
        s_total = float(csum[-1])
        js = lengths - done - 1
        ckpts += [(int(ns[j]), float(csum[j]), float(terms[j])) for j in js[(js >= 0) & (js < ns.size)]]
        if terms[-1] > 1e8 or s_total > 1e15:
            break
    return s_total, float(terms[-1]), ckpts[-6:]


def _mu_vanishes_beyond(n_cut):
    def rates(ns):
        ns = np.asarray(ns, float)
        return np.full(ns.shape, 0.7), np.where(ns > n_cut, 0.0, 0.3)

    return rates


@pytest.mark.parametrize(
    "chain,tail",
    [
        (ratio_family_chain(2.0, 2, 5000), 2**17 * 2 + 2**14 + 7),  # ends inside a piece
        (ratio_family_chain(0.5, 2, 1000), 300_000),
        (ratio_family_chain(1.0, 2, 2**14 + 1), 2**17),
        (discretize_to_bd(cl_rates(2.0), 2, 10000), 990_000),
        (BDChain(2, 99, np.full(98, 0.7), np.full(98, 0.3), _mu_vanishes_beyond(40_000)), 200_000),
    ],
    ids=["ratio-2", "ratio-0.5", "ratio-1", "critical-lamperti", "mu-vanishes"],
)
def test_series_pieces_match_whole_blocks_bit_for_bit(chain, tail):
    ev = bd_series_criterion(chain, 2, tail_extension=tail).evidence
    assert (ev["sum"], ev["last_term"], ev["checkpoints"]) == whole_block_series(chain, 2, tail)


class TestRatioFamily:
    def test_rates_realize_the_nominal_ratio(self):
        ch = ratio_family_chain(2.0, 2, 50)
        ns = ch.sites.astype(float)
        assert ch.lam / ch.mu == pytest.approx(1.0 + 2.0 / ns, rel=1e-14)
        assert ch.lam + ch.mu == pytest.approx(np.ones_like(ns), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            ratio_family_chain(1.0, 0, 10)
        with pytest.raises(ValueError):
            ratio_family_chain(1.0, 5, 4)


class TestRatioTest:
    def test_balanced_chain_recurrent(self):
        ch = BDChain(2, 500, np.full(499, 0.5), np.full(499, 0.5))
        res = ratio_test(ch, 2)
        assert res.verdict is Verdict.RECURRENT
        assert res.c_estimate == 0.0

    def test_excess_two_transient(self):
        res = ratio_test(ratio_family_chain(2.0, 2, 1000), 2)
        assert res.verdict is Verdict.TRANSIENT
        assert res.c_estimate == pytest.approx(2.0, rel=1e-9)
        assert res.method == "bd-ratio"

    def test_excess_half_recurrent(self):
        res = ratio_test(ratio_family_chain(0.5, 2, 1000), 2)
        assert res.verdict is Verdict.RECURRENT
        assert res.c_estimate == pytest.approx(0.5, rel=1e-9)

    def test_boundary_excess_one_is_recurrent(self):
        res = ratio_test(ratio_family_chain(1.0, 2, 500), 2)
        assert res.verdict is Verdict.RECURRENT
        assert res.c_estimate == pytest.approx(1.0, abs=1e-12)

    def test_margin_gap_is_inconclusive(self):
        res = ratio_test(ratio_family_chain(1.02, 2, 500), 2)
        assert res.verdict is Verdict.INCONCLUSIVE

    def test_inward_tail_is_out_of_scope(self):
        lam = np.full(20, 0.5)
        mu = np.full(20, 0.5)
        lam[7] = 0.45
        mu[7] = 0.55
        ch = BDChain(1, 20, lam, mu)
        with pytest.raises(ValueError, match=r"violated setting.*first at n=8"):
            ratio_test(ch, 1)
        # below n0 the violation is outside the examined tail
        assert ratio_test(ch, 9).verdict is Verdict.RECURRENT

    def test_n0_validation(self):
        ch = ratio_family_chain(1.0, 2, 10)
        with pytest.raises(ValueError):
            ratio_test(ch, 0)
        with pytest.raises(ValueError):
            ratio_test(ch, 11)


class TestSeriesCriterion:
    def test_balanced_chain_sums_site_count_exactly(self):
        # every product is exactly 1, so S is the number of sites
        ch = BDChain(3, 4000, np.full(3998, 0.5), np.full(3998, 0.5))
        res = bd_series_criterion(ch, 3)
        assert res.verdict is Verdict.RECURRENT
        assert res.evidence["sum"] == 3998.0
        assert res.evidence["rule"] == "decay-exponent"
        assert res.c_estimate == 0.0

    def test_telescoping_family_matches_closed_form(self):
        # mu/lambda = n/(n+2) telescopes: S(N) = 6 * (1/3 - 1/(N+2))
        res = bd_series_criterion(
            ratio_family_chain(2.0, 2, 10_000), 2, tail_extension=990_000
        )
        assert res.verdict is Verdict.TRANSIENT
        assert res.evidence["rule"] == "decay-exponent"
        n_end = 1_000_000
        assert res.evidence["sum"] == pytest.approx(6 * (1 / 3 - 1 / (n_end + 2)), rel=1e-9)
        assert res.c_estimate == pytest.approx(2.0, abs=1e-3)
        assert res.window == (2.0, float(n_end))

    def test_slow_decay_matches_gamma_ratio_form(self):
        # mu/lambda = n/(n + 1/2): partial products are
        # Gamma(2.5) * Gamma(n+1) / Gamma(n+1.5)
        res = bd_series_criterion(ratio_family_chain(0.5, 2, 20_000), 2)
        ns = np.arange(2, 20_001)
        oracle = np.exp(gammaln(2.5) + gammaln(ns + 1) - gammaln(ns + 1.5)).sum()
        assert res.verdict is Verdict.RECURRENT
        assert res.evidence["rule"] == "decay-exponent"
        assert res.evidence["sum"] == pytest.approx(oracle, rel=1e-6)
        assert res.c_estimate == pytest.approx(0.5, abs=0.01)

    def test_harmonic_tail_trips_the_increment_floor(self):
        # terms ~ 2/n: the decay exponent hugs 1 but every doubling
        # still adds 2*log(2) to the running sum
        res = bd_series_criterion(
            ratio_family_chain(1.0, 2, 10_000), 2, tail_extension=990_000
        )
        assert res.verdict is Verdict.RECURRENT
        assert res.evidence["rule"] == "increment-floor"
        for inc in res.evidence["increments"]:
            assert inc == pytest.approx(2 * math.log(2), abs=1e-4)

    def test_fast_decay_converges_literally(self):
        res = bd_series_criterion(ratio_family_chain(8.0, 2, 2000), 2)
        assert res.verdict is Verdict.TRANSIENT
        assert res.evidence["rule"] == "literal-convergence"
        assert res.evidence["last_term"] < 1e-12
        assert res.c_estimate == pytest.approx(8.0, abs=0.5)

    def test_divergent_extension_blows_up(self):
        # outward-dominant on the stored window, but the analytic tail
        # flips inward and the products explode
        def rates(ns):
            ns = np.asarray(ns)
            lam = np.where(ns <= 100, 0.6, 0.4)
            return lam, 1.0 - lam

        ns = np.arange(2, 101)
        lam, mu = rates(ns)
        ch = BDChain(2, 100, lam, mu, extend=rates)
        res = bd_series_criterion(ch, 2, tail_extension=900)
        assert res.verdict is Verdict.RECURRENT
        assert res.evidence["rule"] == "divergent-blowup"

    def test_validation(self):
        ch = ratio_family_chain(1.0, 2, 100)
        bare = BDChain(2, 100, ch.lam, ch.mu)
        with pytest.raises(ValueError):
            bd_series_criterion(ch, 0)
        with pytest.raises(ValueError):
            bd_series_criterion(ch, 101)
        with pytest.raises(ValueError):
            bd_series_criterion(ch, 2, tail_extension=-1)
        with pytest.raises(ValueError, match="extension"):
            bd_series_criterion(bare, 2, tail_extension=10)
        lam = np.full(99, 0.5)
        mu = np.full(99, 0.5)
        lam[50] = 0.4
        mu[50] = 0.6
        with pytest.raises(ValueError, match="violated setting"):
            bd_series_criterion(BDChain(2, 100, lam, mu), 2)


class TestDiscretizedPipeline:
    def test_subcritical_drift_stays_recurrent(self):
        ch = discretize_to_bd(cl_rates(0.5), 2, 2000)
        res = ratio_test(ch, 2)
        assert res.verdict is Verdict.RECURRENT
        # peak excess sits at the innermost site, where the cell average
        # of 1/x over [1, 2] is largest
        assert res.evidence["n_at_max"] == 2
        assert res.c_estimate == pytest.approx(0.8377253866578189, abs=1e-12)

    def test_supercritical_drift_stays_transient(self):
        res = ratio_test(discretize_to_bd(cl_rates(3.0), 3, 2000), 3)
        assert res.verdict is Verdict.TRANSIENT
        assert res.c_estimate == pytest.approx(3.0, abs=0.05)

    @pytest.mark.parametrize("c", [0.25, 0.5, 2.0, 3.0])
    def test_verdicts_agree_across_quadrature_and_methods(self, c):
        expected = classify_theorem1(CriticalLamperti(c=c)).verdict
        for q in (1, 8, 64):
            ch = discretize_to_bd(cl_rates(c), 3, 1500, quadrature_points=q)
            assert ratio_test(ch, 3).verdict is expected
            series = bd_series_criterion(ch, 3, tail_extension=100_000 - 1500)
            assert series.verdict is expected

    @pytest.mark.parametrize(
        "c_weak,c_strong", [(3.0, 4.0), (1.2, 2.0), (1.06, 1.5)]
    )
    def test_stronger_outward_drift_cannot_flip_to_recurrent(self, c_weak, c_strong):
        weak = classify_theorem1(CriticalLamperti(c=c_weak))
        strong = classify_theorem1(CriticalLamperti(c=c_strong))
        assert weak.verdict is Verdict.TRANSIENT
        assert strong.verdict is not Verdict.RECURRENT


class TestBilateral:
    def test_symmetric_subcritical_field_recurrent(self):
        ch = discretize_to_bd(cl_rates(0.5), -300, 300)
        res = classify_bd_bilateral(ch, 2, "ratio")
        assert res.verdict is Verdict.RECURRENT
        assert res.method == "bd-bilateral-ratio"
        assert res.c_estimate == pytest.approx(0.8377253866578189, abs=1e-12)
        # the mirrored tail pulls inward everywhere, so it never enters
        # the outward-dominant criterion at all
        assert res.evidence["left"]["evidence"]["rule"] == "inward-dominant-tail"
        assert res.evidence["right"]["verdict"] == "Recurrent"

    def test_series_flavor_on_symmetric_field(self):
        ch = discretize_to_bd(cl_rates(0.5), -300, 300)
        res = classify_bd_bilateral(ch, 2, "series", tail_extension=50_000)
        assert res.verdict is Verdict.RECURRENT
        assert res.method == "bd-bilateral-series"

    def test_outward_both_sides_transient(self):
        ns = np.arange(-200, 201)
        r = 1.0 + 2.0 / np.maximum(np.abs(ns), 1)
        lam = np.where(ns >= 0, r / (1.0 + r), 1.0 / (1.0 + r))
        mu = 1.0 - lam
        ch = BDChain(-200, 200, lam, mu)
        res = classify_bd_bilateral(ch, 2, "ratio")
        assert res.verdict is Verdict.TRANSIENT
        assert res.c_estimate == pytest.approx(2.0, abs=0.01)
        assert res.evidence["left"]["verdict"] == "Transient"
        assert res.evidence["right"]["verdict"] == "Transient"

    def test_one_escaping_tail_suffices(self):
        ns = np.arange(-200, 201)
        r = 1.0 + 2.0 / np.maximum(np.abs(ns), 1)
        # outward-dominant to the right, inward to the left
        lam = np.where(ns >= 0, r / (1.0 + r), r / (1.0 + r))
        mu = 1.0 - lam
        ch = BDChain(-200, 200, lam, mu)
        res = classify_bd_bilateral(ch, 2, "ratio")
        assert res.verdict is Verdict.TRANSIENT
        assert res.evidence["left"]["evidence"]["rule"] == "inward-dominant-tail"

    def test_validation(self):
        ch = discretize_to_bd(cl_rates(0.5), -10, 10)
        with pytest.raises(ValueError):
            classify_bd_bilateral(ch, 2, "bogus")
        with pytest.raises(ValueError):
            classify_bd_bilateral(ch, 0, "ratio")
        one_sided = discretize_to_bd(cl_rates(0.5), 1, 50)
        with pytest.raises(ValueError):
            classify_bd_bilateral(one_sided, 2, "ratio")


@given(st.floats(min_value=0.0, max_value=0.98))
def test_small_excess_always_recurrent(c):
    res = ratio_test(ratio_family_chain(c, 2, 300), 2)
    assert res.verdict is Verdict.RECURRENT


@given(st.floats(min_value=1.06, max_value=6.0))
def test_large_excess_always_transient(c):
    res = ratio_test(ratio_family_chain(c, 2, 300), 2)
    assert res.verdict is Verdict.TRANSIENT
    assert res.c_estimate >= 1.05
