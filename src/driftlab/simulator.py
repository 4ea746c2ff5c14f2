"""Event-driven simulation of the walk and its compensators.

The walk Z is a difference of two jump processes: up-jumps arrive at
rate lambda(Z, t) = 1/2 + phi(Z, t) and down-jumps at rate
mu(Z, t) = 1/2 - phi(Z, t), each carrying an i.i.d. positive mean-1
mark.  Because the two rates sum to 1 identically, thinning against a
rate-2 proposal clock accepts with probability exactly 1/2, which
collapses to a single unit-rate total-event clock: draw exponential(1)
waits, then split each event up/down with probability lambda vs mu at
the event time.  No proposal is ever rejected, so the simulation is
exact and consumes a fixed number of draws per event.

Draw recipe per block of 4096 events, in order: inter-event waits,
direction uniforms, up-marks, down-marks.  The recipe is part of the
determinism contract: a (seed, config) pair reproduces trajectories
byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .fields import JumpLaw, RateField, Zero
from .seeding import path_seed

__all__ = [
    "Trajectory",
    "CompensatorReport",
    "WaldCheck",
    "simulate_walk",
    "simulate_compound_poisson",
    "compensator_literal",
    "compensator_ensemble",
    "compensator_report",
    "wald_second_moment_check",
    "trajectory_csv",
]

_BLOCK = 4096

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL = list(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One realized path: event times, signed jumps, post-jump positions."""

    seed: int
    horizon: float
    z0: float
    times: np.ndarray
    jumps: np.ndarray
    z_after: np.ndarray

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    @property
    def final_z(self) -> float:
        return float(self.z_after[-1]) if self.times.size else self.z0

    def up_component(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and marks of the up-jumps (a compound process on its own)."""
        m = self.jumps > 0
        return self.times[m], self.jumps[m]

    def down_component(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and (positive) marks of the down-jumps."""
        m = self.jumps < 0
        return self.times[m], -self.jumps[m]


def simulate_walk(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    seed: int,
    z0: float = 0.0,
) -> Trajectory:
    """Simulate one path on (0, horizon] starting from z0 at time 0."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    blocks = list(_event_blocks(rf, up_law, down_law, horizon, seed, z0))
    if blocks:
        times, jumps, z_after = (np.concatenate(part) for part in zip(*blocks))
    else:
        times, jumps, z_after = np.array([]), np.array([]), np.array([])
    return Trajectory(
        seed=seed,
        horizon=horizon,
        z0=z0,
        times=times,
        jumps=jumps,
        z_after=z_after,
    )


def _event_blocks(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    seed: int,
    z0: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The path's events as (times, signed jumps, z_after) arrays, one
    non-empty tuple per draw block of at most ``_BLOCK`` events."""
    if horizon <= 0.0:
        return
    rng = np.random.default_rng(seed)
    phi = None if isinstance(rf.drift, Zero) else rf.drift.scalar_phi()
    t = 0.0
    z = z0
    while True:
        dts = rng.exponential(1.0, _BLOCK)
        us = rng.random(_BLOCK)
        ups = up_law.sample_block(rng, _BLOCK)
        dns = down_law.sample_block(rng, _BLOCK)
        if phi is None:
            # phi == 0: the direction split never looks at the state, so
            # the block vectorizes.  Seeding each cumsum with the carry
            # keeps every partial sum the exact left-fold of the scalar
            # loop below, bit for bit.
            tb = np.cumsum(np.concatenate(((t,), dts)))[1:]
            k = int(np.searchsorted(tb, horizon, side="right"))
            sj = np.where(us[:k] < 0.5, ups[:k], -dns[:k])
            zb = np.cumsum(np.concatenate(((z,), sj)))[1:]
            tb = tb[:k]
        else:
            times: list[float] = []
            jumps: list[float] = []
            zs: list[float] = []
            t_app, j_app, z_app = times.append, jumps.append, zs.append
            for dt, u, up, dn in zip(dts.tolist(), us.tolist(), ups.tolist(), dns.tolist()):
                tn = t + dt
                if tn > horizon:
                    break
                t = tn
                j = up if u < 0.5 + phi(z, tn) else -dn
                z += j
                t_app(tn)
                j_app(j)
                z_app(z)
            tb, sj, zb = np.array(times), np.array(jumps), np.array(zs)
            k = tb.size
        if k:
            t = float(tb[-1])
            z = float(zb[-1])
            yield tb, sj, zb
        if k < _BLOCK:
            return


def simulate_compound_poisson(
    rate: Callable[[float], float],
    rate_bound: float,
    law: JumpLaw,
    horizon: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One compound-Poisson path by thinning a rate-bound proposal clock.

    ``rate`` is the deterministic intensity, ``rate_bound`` a finite
    upper bound for it on [0, horizon].  Returns event times and marks.
    """
    if rate_bound <= 0:
        raise ValueError("rate_bound must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    rng = np.random.default_rng(seed)
    scale = 1.0 / rate_bound
    t = 0.0
    times: list[float] = []
    marks: list[float] = []
    while True:
        t += rng.exponential(scale)
        if t > horizon:
            break
        r = rate(t)
        if r < -1e-15 or r > rate_bound * (1.0 + 1e-12):
            raise ValueError(f"rate(t)={r} falls outside [0, rate_bound] at t={t}")
        if rng.random() * rate_bound <= r:
            times.append(t)
            marks.append(law.sample(rng))
    return np.array(times), np.array(marks)


def _integrate_rate(rate: Callable[[float], float], a: float, b: float) -> float:
    # Composite 16-point Gauss-Legendre; panels of length <= 4 keep the
    # rule at fp accuracy for the smooth intensities this module sees.
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
        for xn, w in _GL:
            s += w * rate(mid + half * xn)
        total += half * s
    return total


def _check_event_stream(times: np.ndarray, marks: np.ndarray) -> None:
    if times.shape != marks.shape or times.ndim != 1:
        raise ValueError("times and marks must be 1-d arrays of equal length")
    if times.size:
        if times[0] <= 0 or np.any(np.diff(times) <= 0):
            raise ValueError("event times must be positive and strictly increasing")
        if np.any(marks <= 0):
            raise ValueError("marks must be positive")


def _compensator_parts(
    times: np.ndarray,
    marks: np.ndarray,
    rate: Callable[[float], float],
    tau: float,
) -> tuple[float, float, float, str]:
    """(completed sum, tail integral, next mark, tail mode) at tau."""
    n_done = int(np.searchsorted(times, tau, side="right"))
    total = 0.0
    prev = 0.0
    for i in range(n_done):
        ti = float(times[i])
        total += float(marks[i]) * _integrate_rate(rate, prev, ti)
        prev = ti
    if prev < tau:
        tail = _integrate_rate(rate, prev, tau)
        if n_done < times.size:
            return total, tail, float(marks[n_done]), "next-mark"
        return total, tail, 1.0, "mean-mark"
    return total, 0.0, 1.0, "complete"


def compensator_literal(
    times: Sequence[float],
    marks: Sequence[float],
    rate: Callable[[float], float],
    tau: float,
) -> float:
    """Compensator at tau, pricing the open interval with the mark that
    actually arrives next (falls back to the mean, 1, when the stream
    records no event after tau)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    times = np.asarray(times, float)
    marks = np.asarray(marks, float)
    _check_event_stream(times, marks)
    done, tail, mark, _mode = _compensator_parts(times, marks, rate, tau)
    return done + mark * tail


def compensator_ensemble(
    times: Sequence[float],
    marks: Sequence[float],
    rate: Callable[[float], float],
    tau: float,
) -> float:
    """Compensator at tau with the open interval priced at the mean mark."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    times = np.asarray(times, float)
    marks = np.asarray(marks, float)
    _check_event_stream(times, marks)
    done, tail, _mark, _mode = _compensator_parts(times, marks, rate, tau)
    return done + 1.0 * tail


def ensemble_mean_compensator(
    rate: Callable[[float], float], tau: float, tol: float = 1e-9
) -> float:
    """integral of rate over [0, tau] to ``tol``; the path-free mean
    compensator (marks have mean 1)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return 0.0
    from scipy.integrate import quad

    val, _err = quad(rate, 0.0, tau, epsabs=tol, epsrel=tol, limit=200)
    return float(val)


@dataclass(frozen=True)
class CompensatorReport:
    """Raw jump sum vs both compensator readings at a fixed tau."""

    tau: float
    raw_value: float
    literal_value: float
    ensemble_value: float
    residual_literal: float
    residual_ensemble: float
    literal_tail_mode: str

    def to_record(self) -> dict:
        return {
            "tau": self.tau,
            "raw_value": self.raw_value,
            "literal_value": self.literal_value,
            "ensemble_value": self.ensemble_value,
            "residual_literal": self.residual_literal,
            "residual_ensemble": self.residual_ensemble,
            "literal_tail_mode": self.literal_tail_mode,
        }


def compensator_report(
    times: Sequence[float],
    marks: Sequence[float],
    rate: Callable[[float], float],
    tau: float,
) -> CompensatorReport:
    """Evaluate both compensator modes and their residuals in one pass."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    times = np.asarray(times, float)
    marks = np.asarray(marks, float)
    _check_event_stream(times, marks)
    done, tail, mark, mode = _compensator_parts(times, marks, rate, tau)
    n_done = int(np.searchsorted(times, tau, side="right"))
    raw = float(np.sum(marks[:n_done]))
    literal = done + mark * tail
    ensemble = done + tail
    return CompensatorReport(
        tau=tau,
        raw_value=raw,
        literal_value=literal,
        ensemble_value=ensemble,
        residual_literal=raw - literal,
        residual_ensemble=raw - ensemble,
        literal_tail_mode=mode,
    )


@dataclass(frozen=True)
class WaldCheck:
    """Empirical second moment of increments vs its linear-in-time bound."""

    sigma: float
    n_paths: int
    empirical_second_moment: float
    bound: float
    passed: bool

    def to_record(self) -> dict:
        return {
            "sigma": self.sigma,
            "n_paths": self.n_paths,
            "empirical_second_moment": self.empirical_second_moment,
            "bound": self.bound,
            "passed": self.passed,
        }


def wald_second_moment_check(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    sigma: float,
    n_paths: int,
    seed: int,
    z0: float = 0.0,
) -> WaldCheck:
    """Check E[(Z(sigma) - Z(0))^2] <= sigma * (2 + Var(up) + Var(down)).

    The bound holds for any admissible drift because both jump rates are
    bounded by 1 and marks have mean 1.  ``passed`` allows 5% sampling
    slack on top of the bound.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    bound = sigma * (2.0 + up_law.variance + down_law.variance)
    acc = 0.0
    for p in range(n_paths):
        traj = simulate_walk(rf, up_law, down_law, sigma, path_seed(seed, p), z0)
        dz = traj.final_z - z0
        acc += dz * dz
    emp = acc / n_paths
    return WaldCheck(
        sigma=sigma,
        n_paths=n_paths,
        empirical_second_moment=emp,
        bound=bound,
        passed=emp <= bound * 1.05,
    )


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV text, one event per row.

    Columns: tau (event time), signed_jump, z_after.  Values are written
    with repr so a round-trip through the text recovers the exact floats.
    """
    lines = ["tau,signed_jump,z_after"]
    times = traj.times.tolist()
    jumps = traj.jumps.tolist()
    zs = traj.z_after.tolist()
    for i in range(len(times)):
        lines.append(f"{times[i]!r},{jumps[i]!r},{zs[i]!r}")
    return "\n".join(lines) + "\n"
