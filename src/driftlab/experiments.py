"""Path-ensemble experiments: recurrence proxies and occupancy checks.

The recurrence proxy is band-return: a path counts as "returned" when,
after first reaching |Z| >= level, it re-enters the band [-band, band].
Fractions come with Wilson 95% intervals.  Occupancy estimates bin one
long ergodic path into unit cells and are checked against the
discretized chain through the stationary balance relation

    P*_{n+1} mu*_{n+1} + P*_{n-1} lambda*_{n-1} = P*_n (lambda*_n + mu*_n)

evaluated on interior cells of the estimate window (edge cells would
reference mass outside the window).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .classifier import BDChain
from .fields import JumpLaw, RateField
from .seeding import check_seed, path_seeds
from .simulator import _batch_chunks, _csv, _event_blocks

__all__ = [
    "RecurrenceExperiment",
    "ExperimentReport",
    "OccupancyEstimate",
    "BalanceResidual",
    "wilson_interval",
    "run_recurrence_experiment",
    "experiment_csv",
    "estimate_occupancy",
    "balance_residual",
    "solve_balance_window",
]

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial fraction; (nan, nan) when empty."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (math.nan, math.nan)
    ph = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (ph + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / trials + z2 / (4.0 * trials * trials)) / denom
    # at the boundaries center and half agree analytically; rounding
    # must not push the bound past the point estimate
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class RecurrenceExperiment:
    """Configuration of one band-return ensemble."""

    rate_field: RateField
    up_law: JumpLaw
    down_law: JumpLaw
    n_paths: int
    horizon: float
    level: float
    band: float
    seed: int
    z0: float = 0.0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0.0 <= self.horizon < math.inf:
            raise ValueError("horizon must be nonnegative and finite")
        if not math.isfinite(self.z0):
            raise ValueError("z0 must be finite")
        if not self.level > self.band > 0:
            raise ValueError("need level > band > 0")
        if self.workers < 0:
            raise ValueError("workers must be nonnegative (0 = auto)")
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Ensemble summary plus the per-path outcomes behind it, as columns
    with one entry per path in index order: each path's seed, whether it
    reached the level, when it first did (NaN if never), whether it then
    returned to the band, and its last position."""

    n_paths: int
    reached_fraction: float
    returned_fraction: float
    returned_ci: tuple[float, float]
    mean_final_position: float
    proxy: str
    seeds: np.ndarray  # uint64
    reached: np.ndarray  # bool
    first_hit_time: np.ndarray  # float64
    returned: np.ndarray  # bool
    final_z: np.ndarray  # float64

    def to_record(self) -> dict:
        def none_if_nan(v: float):
            return None if isinstance(v, float) and math.isnan(v) else v

        return {
            "n_paths": self.n_paths,
            "reached_fraction": self.reached_fraction,
            "returned_fraction": none_if_nan(self.returned_fraction),
            "returned_ci": [none_if_nan(self.returned_ci[0]), none_if_nan(self.returned_ci[1])],
            "mean_final_position": self.mean_final_position,
            "proxy": self.proxy,
        }


def _run_path_range(
    exp: RecurrenceExperiment, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes of paths start..stop-1 as (reached, first_hit_time,
    returned, final_z) columns, reduced chunk by chunk from the lockstep
    engine: first event with |z| >= level (its time, NaN if none), any
    |z| <= band strictly after it, and the last z (z0 when there are no
    events)."""
    seeds = path_seeds(exp.seed, start, stop).tolist()
    n = len(seeds)
    reached = np.zeros(n, dtype=bool)
    returned = np.zeros(n, dtype=bool)
    t_hit = np.full(n, math.nan)
    final_z = np.full(n, exp.z0, dtype=float)
    chunks = _batch_chunks(
        exp.rate_field, exp.up_law, exp.down_law, exp.horizon, seeds, exp.z0
    )
    for rows, times, z_after, counts in chunks:
        at = np.arange(rows.size)
        cols = np.arange(z_after.shape[1])
        valid = cols < counts[:, None]
        absz = np.abs(z_after)
        hit = valid & (absz >= exp.level)
        first = np.argmax(hit, axis=1)
        new = hit[at, first] & ~reached[rows]
        # a return counts strictly after the first hit: every column of a
        # path that reached in an earlier chunk, the later columns of one
        # that reaches in this chunk
        after = np.where(reached[rows], -1, np.where(new, first, cols.size))
        back = valid & (absz <= exp.band) & (cols > after[:, None])
        returned[rows] |= back.any(axis=1)
        t_hit[rows[new]] = times[new, first[new]]
        reached[rows] |= new
        final_z[rows] = z_after[at, counts - 1]
    return reached, t_hit, returned, final_z


def run_recurrence_experiment(exp: RecurrenceExperiment) -> ExperimentReport:
    """Run the ensemble and summarize it.

    Paths are seeded per index, generated independently, and reduced in
    index order, so the report does not depend on the worker count.  At
    most ``os.cpu_count()`` worker processes run, however many are asked
    for (0 asks for that many).
    """
    if exp.horizon < 4.0 * exp.level * exp.level:
        warnings.warn(
            "horizon is shorter than 4 * level^2; diffusive return times "
            "will be cut off and returned_fraction biased low",
            UserWarning,
            stacklevel=2,
        )

    cpus = os.cpu_count() or 1
    workers = min(exp.workers, cpus) if exp.workers > 0 else cpus
    if workers == 1 or exp.n_paths < 4:
        reached, t_hit, returned, final_z = _run_path_range(exp, 0, exp.n_paths)
    else:
        # one contiguous span, hence one engine batch, per worker
        chunk = math.ceil(exp.n_paths / workers)
        spans = [
            (s, min(s + chunk, exp.n_paths)) for s in range(0, exp.n_paths, chunk)
        ]
        # imported here so that serial runs never load multiprocessing; the
        # executor forks all max_workers processes at the first submit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            parts = pool.map(_run_path_range, *zip(*((exp, a, b) for a, b in spans)))
            reached, t_hit, returned, final_z = map(np.concatenate, zip(*parts))

    n = exp.n_paths
    n_reached = np.count_nonzero(reached)
    n_returned = np.count_nonzero(returned)
    reached_fraction = n_reached / n
    returned_fraction = n_returned / n_reached if n_reached else math.nan
    ci = wilson_interval(n_returned, n_reached)
    mean_final = float(np.mean(final_z))
    if reached_fraction < 0.5:
        warnings.warn(
            f"only {reached_fraction:.1%} of paths reached level {exp.level:g}; "
            "the returned_fraction estimate rests on a thin subsample",
            UserWarning,
            stacklevel=2,
        )

    return ExperimentReport(
        n_paths=n,
        reached_fraction=reached_fraction,
        returned_fraction=returned_fraction,
        returned_ci=ci,
        mean_final_position=mean_final,
        proxy="band-return",
        seeds=path_seeds(exp.seed, 0, n),
        reached=reached,
        first_hit_time=t_hit,
        returned=returned,
        final_z=final_z,
    )


def experiment_csv(report: ExperimentReport) -> str:
    """One row per path: path,seed,reached_L,first_hit_time,returned,final_z."""
    return "".join(_experiment_csv(report))


def _experiment_csv(report: ExperimentReport) -> Iterator[str]:
    """``experiment_csv``'s text, piece by piece."""
    return _csv(
        "path,seed,reached_L,first_hit_time,returned,final_z\n",
        lambda i, s, r, t, b, z: f"{i},{s},{int(r)},{t!r},{int(b)},{z!r}\n",
        [(np.arange(report.n_paths), report.seeds, report.reached, report.first_hit_time,
          report.returned, report.final_z)],
    )


@dataclass(frozen=True, eq=False)
class OccupancyEstimate:
    """Fraction of time spent in each unit cell [n-1, n) of a window.

    ``p_star[i]`` is the occupancy of cell n = n_min + i.  Masses sum to
    at most 1 (time spent outside the window is simply not counted).
    """

    n_min: int
    n_max: int
    p_star: np.ndarray
    total_time: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_star", np.asarray(self.p_star, float))
        if self.n_min > self.n_max:
            raise ValueError("n_min must not exceed n_max")
        if self.p_star.shape != (self.n_max - self.n_min + 1,):
            raise ValueError("p_star must have one entry per cell")

    def cell(self, n: int) -> float:
        if not self.n_min <= n <= self.n_max:
            raise ValueError(f"cell {n} outside window [{self.n_min}, {self.n_max}]")
        return float(self.p_star[n - self.n_min])


def estimate_occupancy(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    total_time: float,
    window: tuple[int, int],
    seed: int,
    z0: float = 0.0,
) -> OccupancyEstimate:
    """Time-average occupancy of unit cells along one long path.

    Only signed (mean-reverting) drifts are accepted: the in-scope
    vanishing-drift families have no stationary occupancy to estimate.
    A zero observation time returns the all-zero estimate.
    """
    n_min, n_max = int(window[0]), int(window[1])
    if n_min > n_max:
        raise ValueError("window must satisfy n_min <= n_max")
    if not 0.0 <= total_time < math.inf:
        raise ValueError("total_time must be nonnegative and finite")
    if not math.isfinite(z0):
        raise ValueError("z0 must be finite")
    if not rf.drift.signed:
        raise ValueError("occupancy estimation needs a signed mean-reverting drift")
    check_seed(seed)

    size = n_max - n_min + 1
    if total_time == 0:
        return OccupancyEstimate(n_min, n_max, np.zeros(size), 0.0)

    # Each holding interval adds its length to the cell it sits in, in
    # event order and block by block, so the whole path is never held.
    acc = np.zeros(size)
    t, z = 0.0, z0
    for times, _jumps, z_after in _event_blocks(rf, up_law, down_law, total_time, seed, z0):
        starts = np.concatenate(((t,), times[:-1]))
        zvals = np.concatenate(((z,), z_after[:-1]))
        # cells are picked in float, so a state beyond +-2**63 is never cast
        cells = np.floor(zvals) + 1.0
        inside = (cells >= n_min) & (cells <= n_max)
        np.add.at(acc, cells[inside].astype(np.int64) - n_min, (times - starts)[inside])
        t, z = float(times[-1]), float(z_after[-1])
    last = math.floor(z) + 1
    if n_min <= last <= n_max:
        acc[last - n_min] += total_time - t
    return OccupancyEstimate(n_min, n_max, acc / total_time, float(total_time))


@dataclass(frozen=True, eq=False)
class BalanceResidual:
    """Stationary-balance residuals on the interior cells of a window."""

    n_lo: int
    n_hi: int
    residuals: np.ndarray
    l1: float


def balance_residual(occ: OccupancyEstimate, chain: BDChain) -> BalanceResidual:
    """Residual of the balance relation fed with estimated occupancies.

    The chain window must cover the occupancy window with one cell of
    margin on each side.  Residuals are evaluated for
    n in [n_min + 1, n_max - 1], where every referenced mass and rate is
    available inside the windows.
    """
    if chain.n_min > occ.n_min - 1 or chain.n_max < occ.n_max + 1:
        raise ValueError(
            "chain window must cover the occupancy window with one cell of margin"
        )
    if occ.n_max - occ.n_min < 2:
        raise ValueError("occupancy window too narrow: no interior cells")

    ns = np.arange(occ.n_min + 1, occ.n_max)
    p = occ.p_star
    c = ns - chain.n_min  # the margin keeps c - 1 and c + 1 inside the chain
    lam, mu = chain.lam, chain.mu

    i = ns - occ.n_min
    res = p[i + 1] * mu[c + 1] + p[i - 1] * lam[c - 1] - p[i] * (lam[c] + mu[c])
    return BalanceResidual(
        n_lo=int(ns[0]), n_hi=int(ns[-1]), residuals=res, l1=float(np.sum(np.abs(res)))
    )


def solve_balance_window(chain: BDChain, n_min: int, n_max: int) -> OccupancyEstimate:
    """Exact stationary masses on [n_min, n_max] with reflecting closure.

    A birth-death chain reflected at both window ends is reversible, so
    its stationary masses satisfy detailed balance across every edge,
    ``p[n+1] * mu[n+1] = p[n] * lam[n]``.  The masses are that product
    taken in log space (shifted by its maximum, so long or steep windows
    neither overflow nor underflow to all zeros), exponentiated and
    normalized to total mass 1: O(k) for k cells, with no linear solve.
    Interior residuals of the returned masses vanish to rounding, which
    makes this the reference input for ``balance_residual``.
    """
    if n_min >= n_max:
        raise ValueError("window must contain at least two cells")
    if chain.n_min > n_min or chain.n_max < n_max:
        raise ValueError("chain window must cover the requested window")

    window = slice(n_min - chain.n_min, n_max - chain.n_min + 1)
    lam, mu = chain.lam[window], chain.mu[window]
    log_p = np.concatenate(((0.0,), np.cumsum(np.log(lam[:-1]) - np.log(mu[1:]))))
    if not np.all(np.isfinite(log_p)):
        raise ArithmeticError("stationary masses are not finite")
    p = np.exp(log_p - log_p.max())
    p = p / p.sum()
    return OccupancyEstimate(n_min, n_max, p, math.inf)
