"""Recurrence/transience classification.

Two routes to a verdict:

1. ``classify_theorem1``: scan the criterion statistic s(x) =
   4x * phi(x, x^2) on a geometric grid.  If s stays below 1 on the far
   tail the walk is recurrent; if it stays above 1 it is transient.  The
   comparison carries a fixed decision margin of 0.05, and anything
   straddling [1 - margin, 1 + margin] is Inconclusive rather than a
   guess.  On the critical line of the power-law family (alpha =
   2*beta - 1, which ``_on_critical_line`` recognises) the statistic is
   the constant 4*rho, and ``classify_mv_critical`` decides it exactly.

2. Birth-death reductions: a ``BDChain`` is its rate function, which
   gives the up/down rates at any integer site, with the rates on its
   window [n_min, n_max] computed once.  ``discretize_to_bd`` builds
   one from the rates at the parabolic time t = max(x^2, 1) by
   cell-averaging, after which
   ``ratio_test`` (compare lambda*/mu* against 1 + 1/n) and
   ``bd_series_criterion`` (convergence of the escape series
   sum_n prod_k mu*_k/lambda*_k, whose tail may run past the window)
   classify the chain directly.
   ``classify_bd_bilateral`` combines both tails: escape through either
   side makes the walk transient.

All verdicts come back as a ``Classification`` carrying the estimated
boundary constant, the window used, and the raw evidence.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .fields import DEFAULT_X_FLOOR, DriftField, PowerLaw, RateField

__all__ = [
    "DECISION_MARGIN",
    "Verdict",
    "Classification",
    "BDChain",
    "classify_theorem1",
    "classify_mv_critical",
    "discretize_to_bd",
    "ratio_family_chain",
    "ratio_test",
    "bd_series_criterion",
    "classify_bd_bilateral",
]

DECISION_MARGIN = 0.05

# The largest x_max whose square is finite: the scan reads phi at t = x^2.
_X_MAX_LIMIT = math.sqrt(sys.float_info.max)

# How far alpha may sit from 2*beta - 1 on the critical line: 2*0.6 - 1 is
# 0.19999999999999996, and alpha 0.2 must count.
_CRITICAL_TOL = 1e-12

# Series-criterion constants: the literal convergence thresholds, the
# decay-exponent margins around 1, and the divergence floor per doubling.
_TERM_TOL = 1e-12
_DELTA_S_TOL = 1e-9
_P_TRANSIENT = 1.0 + DECISION_MARGIN
_P_RECURRENT = 1.0 - DECISION_MARGIN
_INCREMENT_FLOOR = 0.1
_BLOWUP_TERM = 1e8
_BLOWUP_SUM = 1e15

# Sites per block of discretize_to_bd's quadrature grid.  At 8 nodes a
# block's temporaries are 64 kB each.  At 4096 sites (256 kB each) malloc
# handed them back to the OS after every block: the 1e6-site series tail
# took 35,000 page faults and 0.20 s, against 3,800 and 0.16 s here.
_CELL_ROWS = 1024


class Verdict(str, enum.Enum):
    RECURRENT = "Recurrent"
    TRANSIENT = "Transient"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Classification:
    """Verdict plus the estimated boundary constant and how it was obtained."""

    verdict: Verdict
    c_estimate: float
    method: str
    window: tuple[float, float]
    evidence: dict = dc_field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "c_estimate": self.c_estimate,
            "window": list(self.window),
            "method": self.method,
        }


def classify_theorem1(
    field: DriftField,
    x0: float = 2.0,
    x_max: float = 1e4,
    grid: int = 512,
) -> Classification:
    """Classify a nonnegative drift field from its parabolic-scale tail.

    Evaluates s(x) = 4x * phi(x, x^2) on a geometric grid over
    [x0, x_max] and decides from the upper geometric half of the grid
    (the tail window): sup below 1 - margin means Recurrent, inf above
    1 + margin means Transient, anything else Inconclusive.
    """
    if field.signed:
        raise ValueError("signed drift fields have no tail classification here")
    if not x0 > 0:  # written so that NaN fails too
        raise ValueError("x0 must be positive")
    if x_max <= x0:
        raise ValueError("x_max must exceed x0")
    if not x_max <= _X_MAX_LIMIT:  # written so that NaN fails too
        raise ValueError(f"x_max must be at most {_X_MAX_LIMIT!r} (x_max**2 must be finite)")
    if grid < 100:
        raise ValueError("grid must have at least 100 points")

    xs = np.geomspace(x0, x_max, grid)
    s = 4.0 * xs * np.asarray(field.phi(xs, xs * xs))

    tail_lo = math.sqrt(x0 * x_max)
    tail = xs >= tail_lo
    s_tail = s[tail]
    x_tail = xs[tail]
    i_sup = int(np.argmax(s_tail))
    i_inf = int(np.argmin(s_tail))
    sup_s = float(s_tail[i_sup])
    inf_s = float(s_tail[i_inf])

    if sup_s <= 1.0 - DECISION_MARGIN:
        verdict, c_est = Verdict.RECURRENT, sup_s
    elif inf_s >= 1.0 + DECISION_MARGIN:
        verdict, c_est = Verdict.TRANSIENT, inf_s
    else:
        verdict, c_est = Verdict.INCONCLUSIVE, sup_s

    evidence = {
        "tail_window": (float(tail_lo), float(x_max)),
        "sup": sup_s,
        "inf": inf_s,
        "x_at_sup": float(x_tail[i_sup]),
        "x_at_inf": float(x_tail[i_inf]),
        "margin": DECISION_MARGIN,
        "grid": grid,
    }
    return Classification(verdict, c_est, "theorem1", (x0, x_max), evidence)


def classify_mv_critical(
    rho: float,
    beta: float,
    x0: float = 2.0,
    x_max: float = 1e4,
    grid: int = 512,
    *,
    x_floor: float = DEFAULT_X_FLOOR,
) -> Classification:
    """Classify the critical-window power-law family by its closed form.

    For phi = rho * |x|^(2*beta - 1) / t^beta with beta in
    (0, 1/2) u (1/2, 1), substituting t = x^2 collapses the statistic to
    the constant 4*rho, so the verdict is exact: Recurrent when
    4*rho < 1, Transient when 4*rho > 1.  The grid scan on the
    equivalent field, ``PowerLaw(rho, 2*beta - 1, beta, x_floor)``, runs
    as well and lands in the evidence for cross-checking.
    """
    if not rho > 0:  # written so that NaN fails too
        raise ValueError("rho must be positive")
    if not _critical_beta(beta):
        raise ValueError("beta must lie in (0, 1/2) or (1/2, 1)")

    alpha = 2.0 * beta - 1.0
    delegated = classify_theorem1(
        PowerLaw(rho=rho, alpha=alpha, beta=beta, x_floor=x_floor), x0, x_max, grid
    )

    c = 4.0 * rho
    if c < 1.0:
        verdict = Verdict.RECURRENT
    elif c > 1.0:
        verdict = Verdict.TRANSIENT
    else:
        verdict = Verdict.INCONCLUSIVE

    evidence = {
        "rho": rho,
        "alpha": alpha,
        "beta": beta,
        "delegated_verdict": delegated.verdict.value,
        "delegated_c_estimate": delegated.c_estimate,
    }
    return Classification(verdict, c, "mv-critical", (x0, x_max), evidence)


def _critical_beta(beta: float) -> bool:
    return 0.0 < beta < 1.0 and beta != 0.5


def _on_critical_line(field: DriftField) -> bool:
    """Whether ``classify_mv_critical`` decides ``field``: a ``PowerLaw``
    with beta in its domain and alpha within ``_CRITICAL_TOL`` of 2*beta - 1."""
    return (isinstance(field, PowerLaw) and _critical_beta(field.beta)
            and abs(field.alpha - (2.0 * field.beta - 1.0)) <= _CRITICAL_TOL)


RatePair = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class BDChain:
    """Bilateral nearest-neighbour chain given by its rate function.

    ``rates(ns)`` returns the up/down rates ``(lam, mu)`` at any integer
    sites ``ns``, inside the window [n_min, n_max] or beyond it (the
    series criterion's tail reads beyond).  ``lam[i]``/``mu[i]`` are the
    window's rates at site n = n_min + i, computed once; they must be
    positive.
    """

    n_min: int
    n_max: int
    rates: Callable[[np.ndarray], RatePair]
    lam: np.ndarray = dc_field(init=False)
    mu: np.ndarray = dc_field(init=False)

    def __post_init__(self) -> None:
        if self.n_min > self.n_max:
            raise ValueError("n_min must not exceed n_max")
        ns = self.sites
        lam, mu = (np.asarray(r, float) for r in self.rates(ns))
        if lam.shape != ns.shape or mu.shape != ns.shape:
            raise ValueError("rates must return one entry per site")
        bad = np.flatnonzero(~(lam > 0.0) | ~(mu > 0.0))  # NaN fails too
        if bad.size:
            # e.g. a cell sitting entirely on the clip boundary averages mu* to 0
            raise ValueError(f"rate non-positive at cell n={int(ns[bad[0]])}; "
                             "shrink the window away from it")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def index(self, n: int) -> int:
        if not self.n_min <= n <= self.n_max:
            raise ValueError(f"site {n} outside window [{self.n_min}, {self.n_max}]")
        return n - self.n_min


def discretize_to_bd(
    rf: RateField,
    n_min: int,
    n_max: int,
    quadrature_points: int = 8,
) -> BDChain:
    """Average the rates at parabolic time over unit cells [n-1, n].

    Site n carries lambda*_n = cell average of the up-rate over [n-1, n]
    (composite midpoint rule with ``quadrature_points`` subcells) and
    likewise mu*_n.  Each quadrature node x is read at t = max(x^2, 1),
    the time by which a diffusive walk typically reaches height x, as in
    the time-inhomogeneous birth-death criterion; the clamp keeps
    families that diverge at t = 0 finite near the origin.  Fields that
    do not depend on t give the same chain at any time.  The chain's
    rate function is this cell average, so it gives the same averages at
    sites outside [n_min, n_max]; the chain raises when a cell of the
    window averages a rate to 0 or below.
    """
    if n_min >= n_max:
        raise ValueError("n_min must be strictly below n_max")
    if quadrature_points < 1:
        raise ValueError("quadrature_points must be at least 1")

    offsets = (np.arange(quadrature_points) + 0.5) / quadrature_points

    def cell_rates(ns: np.ndarray) -> RatePair:
        # the (sites x quadrature) grid is evaluated _CELL_ROWS sites at a
        # time; each row's mean is the same reduction whatever the block
        ns = np.asarray(ns, float)
        lam, mu = np.empty(ns.size), np.empty(ns.size)
        for lo in range(0, ns.size, _CELL_ROWS):
            hi = lo + _CELL_ROWS
            xs = (ns[lo:hi, None] - 1.0) + offsets[None, :]
            lam_x, mu_x = rf.rates(xs, np.maximum(xs * xs, 1.0))
            np.asarray(lam_x).mean(axis=1, out=lam[lo:hi])
            np.asarray(mu_x).mean(axis=1, out=mu[lo:hi])
        return lam, mu

    return BDChain(n_min, n_max, cell_rates)


def ratio_family_chain(c: float, n_min: int, n_max: int) -> BDChain:
    """Synthetic chain with lambda_n/mu_n = 1 + c/n exactly and unit
    total rate; the canonical test family for the chain criteria."""
    if n_min < 1:
        raise ValueError("ratio family is defined for n >= 1")
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")

    def rates(ns: np.ndarray) -> RatePair:
        r = 1.0 + c / np.asarray(ns, float)
        mu = 1.0 / (1.0 + r)
        return r * mu, mu

    return BDChain(n_min, n_max, rates)


def _outward_tail(chain: BDChain, n0: int) -> RatePair:
    """The window's rates on [n0, n_max], which both chain criteria need
    outward-dominant: lambda*_n >= mu*_n from n0 >= 1 on."""
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    if not chain.n_min <= n0 <= chain.n_max:
        raise ValueError("n0 must lie inside the chain window")
    lam, mu = chain.lam[n0 - chain.n_min:], chain.mu[n0 - chain.n_min:]
    bad = np.flatnonzero(lam < mu)
    if bad.size:
        n_bad = n0 + int(bad[0])
        raise ValueError(
            f"violated setting: lambda*_n < mu*_n in the tail (first at n={n_bad})"
        )
    return lam, mu


def ratio_test(chain: BDChain, n0: int) -> Classification:
    """Classify a chain by comparing lambda*/mu* with 1 + 1/n.

    Recurrent when the ratio stays at or below 1 + 1/n for every site
    from n0 to the window end; Transient when the excess n*(ratio - 1)
    stays above 1 by the decision margin everywhere; Inconclusive
    otherwise.

    The test only covers outward-dominant tails: it requires
    lambda*_n >= mu*_n on [n0, n_max] and raises when that is violated.
    """
    lam, mu = _outward_tail(chain, n0)
    ns = np.arange(n0, chain.n_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        ratios = lam / mu
    excess = ns * (ratios - 1.0)
    ex_min = float(np.min(excess))
    ex_max = float(np.max(excess))

    if ex_max <= 1.0 + 1e-12:
        verdict, c_est = Verdict.RECURRENT, ex_max
    elif ex_min >= 1.0 + DECISION_MARGIN:
        verdict, c_est = Verdict.TRANSIENT, ex_min
    else:
        verdict, c_est = Verdict.INCONCLUSIVE, ex_min

    evidence = {
        "n0": n0,
        "excess_min": ex_min,
        "excess_max": ex_max,
        "n_at_min": int(ns[int(np.argmin(excess))]),
        "n_at_max": int(ns[int(np.argmax(excess))]),
        "margin": DECISION_MARGIN,
    }
    return Classification(verdict, c_est, "bd-ratio", (float(n0), float(chain.n_max)), evidence)


def _series_checkpoints(total: int) -> list[int]:
    """Doubling ladder of term counts: 64, 128, ... capped at total."""
    pts: list[int] = []
    length = 64
    while length < total:
        pts.append(length)
        length *= 2
    if pts and total < pts[-1] * 1.3:
        pts[-1] = total
    else:
        pts.append(total)
    return pts


def bd_series_criterion(chain: BDChain, n0: int, tail_extension: int = 0) -> Classification:
    """Classify a chain by the escape series S = sum_n prod_k mu*_k/lambda*_k.

    The chain is transient exactly when S converges.  Products are
    accumulated in log space over [n0, n_max + tail_extension], the tail
    read from the chain's rate function.  Convergence is read off a
    doubling ladder of checkpoints three ways:

    * literal: the running term falls below 1e-12 and the last doubling
      moved S by less than 1e-9 (Transient);
    * decay exponent: terms behave like n^-p with p estimated from
      checkpoint term ratios; p >= 1.05 across the trailing checkpoints
      is Transient, p <= 0.95 Recurrent (c_estimate is that exponent,
      which equals c for ratio families 1 + c/n);
    * increments: every trailing doubling still adds at least 0.1 to S
      (Recurrent, logarithmic growth or worse).

    Anything else is Inconclusive.  Like ratio_test this assumes an
    outward-dominant tail (lambda*_n >= mu*_n on the stored window) and
    raises when that is violated.
    """
    _outward_tail(chain, n0)
    if tail_extension < 0:
        raise ValueError("tail_extension must be nonnegative")

    n_end = chain.n_max + tail_extension
    total = n_end - n0 + 1
    ckpt_lengths = _series_checkpoints(total)

    # The terms are read in blocks of 2**17 sites: a block's logs are
    # log_carry + cumsum(log mu - log lam) and its partial sums s_total +
    # cumsum(terms), with both carries taken from the block before.  A
    # block is evaluated in pieces of at most 2**14 sites in two reused
    # buffers.  Each piece's first term gets the previous piece's last
    # within-block partial sum added, and numpy's 1-d cumsum is a
    # sequential left fold, so the pieces give the whole block's sums bit
    # for bit.
    block, piece = 1 << 17, 1 << 14
    logs_buf, sums_buf = np.empty((2, min(piece, total)))
    log_carry = 0.0
    s_total = 0.0
    ckpts: list[tuple[int, float, float]] = []  # (site n, S, term)
    next_i = 0
    blew_up = False
    last_term = 0.0

    done = 0
    while done < total and not blew_up:
        m = min(block, total - done)
        # the block's partial sums so far; -0.0 is the additive identity,
        # x + -0.0 being x for every x, -0.0 included
        part_log = part_sum = -0.0
        for lo in range(done, done + m, piece):
            k = min(piece, done + m - lo)
            lam, mu = chain.rates(np.arange(n0 + lo, n0 + lo + k))
            logs, csum = logs_buf[:k], sums_buf[:k]
            # mu* can be exactly 0 where phi sits on the clip boundary; the
            # log then carries -inf and every later term is a clean 0.
            with np.errstate(divide="ignore"):
                np.log(mu, out=logs)
                np.subtract(logs, np.log(lam, out=csum), out=logs)
                logs[0] += part_log
                np.cumsum(logs, out=logs)
            part_log = float(logs[-1])
            logs += log_carry
            with np.errstate(under="ignore", over="ignore"):
                terms = np.exp(logs, out=logs)
            csum[:] = terms
            # a term that overflowed to inf makes the sums inf: a blow-up
            with np.errstate(over="ignore"):
                csum[0] += part_sum
                np.cumsum(csum, out=csum)
                part_sum = float(csum[-1])
                csum += s_total
            while next_i < len(ckpt_lengths) and ckpt_lengths[next_i] <= lo + k:
                j = ckpt_lengths[next_i] - lo - 1
                ckpts.append((n0 + lo + j, float(csum[j]), float(terms[j])))
                next_i += 1
            last_term = float(terms[-1])
        log_carry = log_carry + part_log
        s_total = float(csum[-1])
        if last_term > _BLOWUP_TERM or s_total > _BLOWUP_SUM:
            blew_up = True
        done += m

    # Decay exponents and normalized increments between checkpoints.
    p_hats: list[float] = []
    incs: list[float] = []
    for (na, sa, ta), (nb, sb, tb) in zip(ckpts, ckpts[1:]):
        span = math.log2(nb / na)
        if tb > 0.0 and ta > 0.0:
            # a ratio that underflows to 0 (the later term overflowed to
            # inf, or grew past the float range) is read in logs
            r = ta / tb
            p_hats.append((math.log2(r) if r > 0.0 else math.log2(ta) - math.log2(tb)) / span)
        else:
            p_hats.append(math.inf)
        incs.append((sb - sa) / span)

    k = min(4, len(p_hats))
    tail_p = p_hats[-k:] if k else []
    tail_inc = incs[-k:] if k else []
    finite_p = [p for p in tail_p if math.isfinite(p)]
    p_mean = (
        float(np.mean(finite_p)) if finite_p else (math.inf if tail_p else math.nan)
    )

    delta_s_last = incs[-1] if incs else math.nan
    rule = "inconclusive"
    if blew_up:
        c_blow = min(p_mean, 0.0) if math.isfinite(p_mean) else 0.0
        verdict, c_est, rule = Verdict.RECURRENT, c_blow, "divergent-blowup"
    elif last_term < _TERM_TOL and incs and delta_s_last < _DELTA_S_TOL:
        verdict, c_est, rule = Verdict.TRANSIENT, p_mean, "literal-convergence"
    elif tail_p and min(tail_p) >= _P_TRANSIENT:
        verdict, c_est, rule = Verdict.TRANSIENT, p_mean, "decay-exponent"
    elif tail_p and max(tail_p) <= _P_RECURRENT:
        verdict, c_est, rule = Verdict.RECURRENT, p_mean, "decay-exponent"
    elif tail_inc and min(tail_inc) >= _INCREMENT_FLOOR:
        verdict, c_est, rule = Verdict.RECURRENT, p_mean, "increment-floor"
    else:
        verdict, c_est = Verdict.INCONCLUSIVE, p_mean

    evidence = {
        "n0": n0,
        "n_end": n_end,
        "sum": s_total,
        "last_term": last_term,
        "rule": rule,
        "p_hats": tail_p,
        "increments": tail_inc,
        "checkpoints": [(n, s, t) for n, s, t in ckpts[-6:]],
    }
    return Classification(verdict, c_est, "bd-series", (float(n0), float(n_end)), evidence)


def _mirror_chain(chain: BDChain, n0: int) -> BDChain:
    """Left tail viewed from the origin: site m plays -m with the up/down
    roles exchanged, so outward motion is again 'up'."""
    return BDChain(n0, -chain.n_min, lambda ms: chain.rates(-np.asarray(ms))[::-1])


def classify_bd_bilateral(
    chain: BDChain,
    n0: int,
    criterion: str = "ratio",
    tail_extension: int = 0,
) -> Classification:
    """Combine both tails of a bilateral chain: the walk is transient as
    soon as either tail lets it escape, and recurrent only when both
    tails pull it back.

    A tail whose rates point inward everywhere (lambda* <= mu* with at
    least one strict site) is below the criteria's setting, but the
    ratio never exceeds 1 there, so the recurrent branch holds without
    running the criterion; such tails are classified directly.
    """
    if criterion not in ("ratio", "series"):
        raise ValueError("criterion must be 'ratio' or 'series'")
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    if chain.n_min > -n0 or chain.n_max < n0:
        raise ValueError("chain window must span both [-n0, n0] tails")

    def run(sub: BDChain) -> Classification:
        i0 = sub.index(n0)
        lam, mu = sub.lam[i0:], sub.mu[i0:]
        if np.all(lam <= mu) and np.any(lam < mu):
            ns = np.arange(n0, sub.n_max + 1, dtype=float)
            ex_max = float(np.max(ns * (lam / mu - 1.0)))
            evidence = {"n0": n0, "rule": "inward-dominant-tail", "excess_max": ex_max}
            return Classification(
                Verdict.RECURRENT,
                ex_max,
                f"bd-{criterion}",
                (float(n0), float(sub.n_max)),
                evidence,
            )
        if criterion == "ratio":
            return ratio_test(sub, n0)
        return bd_series_criterion(sub, n0, tail_extension)

    right = run(chain)
    left = run(_mirror_chain(chain, n0))

    verdicts = (right.verdict, left.verdict)
    if Verdict.TRANSIENT in verdicts:
        verdict = Verdict.TRANSIENT
        sides = [c for c in (right, left) if c.verdict == Verdict.TRANSIENT]
        c_est = min(c.c_estimate for c in sides)
    elif Verdict.INCONCLUSIVE in verdicts:
        verdict = Verdict.INCONCLUSIVE
        sides = [c for c in (right, left) if c.verdict == Verdict.INCONCLUSIVE]
        c_est = sides[0].c_estimate
    else:
        verdict = Verdict.RECURRENT
        c_est = max(right.c_estimate, left.c_estimate)

    evidence = {
        "criterion": criterion,
        "right": {**right.to_record(), "evidence": right.evidence},
        "left": {**left.to_record(), "evidence": left.evidence},
    }
    return Classification(
        verdict,
        c_est,
        f"bd-bilateral-{criterion}",
        (float(chain.n_min), float(chain.n_max)),
        evidence,
    )
