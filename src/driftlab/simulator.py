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
byte-for-byte.  The block whose waits cross the horizon (k < 4096
events) is the path's last, and nothing is drawn after it, so it is
drawn lazily: its k uniforms (the other 4096 - k are skipped with
``advance``, one 64-bit word each), its full up-mark block (a law may
use a variable number of words per mark, which positions the down
marks) and its k down marks.  The values used are the full recipe's.

Two engines read the recipe.  ``_event_blocks`` runs one path with the
scalar ``scalar_phi`` closure; single-path commands, occupancy and the
second-moment check use it.  ``_batch_chunks`` runs an ensemble in
lockstep, one event of every live path per step, with the vectorized
``phi`` evaluated across paths; the band-return experiment uses it, and
its worker processes each run one contiguous span of paths.  Each path
keeps its own generator, which at every block start positions four
cursor generators at the block's waits, uniforms, up marks and down
marks (through ``bit_generator.state``); the cursors then draw the
block 128 events at a time into buffers reused across chunks, so the
engine holds O(paths x 128) draws, never a (paths, 4096) block, and
paths run in sub-batches of at most 512.  Its paths equal
``_event_blocks``' bit for bit wherever ``phi`` and ``scalar_phi``
agree, which they do for every family except ``PowerLaw`` (numpy's
``power`` and libm's ``pow`` differ by up to 4 ulp), where a direction
flips only if a uniform lands within those ulp of its threshold.
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
_CHUNK = 128  # events per lockstep chunk of _batch_chunks
_BATCH = 512  # paths per lockstep sub-batch of _batch_chunks

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


def _block_times(rng: np.random.Generator, t: float, horizon: float) -> np.ndarray:
    """Draw a block's ``_BLOCK`` waits and return its event times up to
    the horizon.  Seeding the cumsum with the carried time t makes every
    partial sum the exact left fold ``t + dt`` of a scalar loop."""
    tb = np.cumsum(np.concatenate(((t,), rng.exponential(1.0, _BLOCK))))[1:]
    return tb[: int(np.searchsorted(tb, horizon, side="right"))]


def _event_blocks(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    seed: int,
    z0: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The path's events as (times, signed jumps, z_after) arrays, one
    non-empty tuple per draw block of at most ``_BLOCK`` events.  The
    final block is drawn lazily, as the module docstring describes."""
    if horizon <= 0.0:
        return
    rng = np.random.default_rng(seed)
    phi = None if isinstance(rf.drift, Zero) else rf.drift.scalar_phi()
    t = 0.0
    z = z0
    while True:
        tb = _block_times(rng, t, horizon)
        k = tb.size
        if k == 0:
            return
        us = rng.random(k)
        if k < _BLOCK:
            # every uniform is one 64-bit word, so skip the unused ones
            rng.bit_generator.advance(_BLOCK - k)
        ups = up_law.sample_block(rng, _BLOCK)[:k]
        dns = down_law.sample_block(rng, k)
        if phi is None:
            # phi == 0: the direction split never looks at the state, so
            # the block vectorizes; the carried cumsum is the left fold.
            sj = np.where(us < 0.5, ups, -dns)
            zb = np.cumsum(np.concatenate(((z,), sj)))[1:]
        else:
            jumps: list[float] = []
            zs: list[float] = []
            j_app, z_app = jumps.append, zs.append
            for tn, u, up, dn in zip(tb.tolist(), us.tolist(), ups.tolist(), dns.tolist()):
                j = up if u < 0.5 + phi(z, tn) else -dn
                z += j
                j_app(j)
                z_app(z)
            sj, zb = np.array(jumps), np.array(zs)
        t = float(tb[-1])
        z = float(zb[-1])
        yield tb, sj, zb
        if k < _BLOCK:
            return


def _batch_chunks(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    seeds: Sequence[int],
    z0: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The paths of ``_event_blocks`` for each of ``seeds``, advanced in
    lockstep, one event of every live path per step.

    Yields ``(rows, times, z_after, counts)`` per chunk of at most
    ``_CHUNK`` events: row i of the ``times`` and ``z_after`` views holds
    the next ``counts[i]`` events of path ``seeds[rows[i]]``; columns past
    a row's count are padding.  The views are overwritten by the next
    chunk, so a consumer reduces them before asking for it.

    Each path keeps its generator, which only positions four cursor
    generators at every block start (waits, direction uniforms, up marks,
    down marks), and the cursors then draw the block chunk by chunk, so
    memory grows with ``_BATCH * _CHUNK``, not with the block.  The field
    is evaluated across paths with the vectorized ``phi``.
    """
    if horizon <= 0.0:
        return
    drift = None if isinstance(rf.drift, Zero) else rf.drift
    width = min(_BATCH, len(seeds))
    # A new PCG64 costs ~20 us, so the cursors are made once and reused.
    pool = [[np.random.Generator(np.random.PCG64(0)) for _ in range(4)] for _ in range(width)]
    # waits (then times), uniforms, up marks, down marks (negated), z_after
    tt, uu, aa, dd, zz = np.zeros((5, width, _CHUNK))
    for lo in range(0, len(seeds), _BATCH):
        rngs = [np.random.default_rng(s) for s in seeds[lo : lo + _BATCH]]
        live = np.arange(len(rngs))
        t_carry = np.zeros(len(rngs))
        z_carry = np.full(len(rngs), z0, dtype=float)
        while live.size:
            k = np.array([_position(rngs[p], pool[p], t_carry[p], horizon, up_law, down_law)
                          for p in live.tolist()])
            for j0 in range(0, int(k.max()), _CHUNK):
                counts = np.minimum(k - j0, _CHUNK)
                on = counts > 0
                rows, counts = live[on], counts[on]
                nr, steps = rows.size, int(counts.max())
                t, u, a, d, z = (b[:nr, :steps] for b in (tt, uu, aa, dd, zz))
                for i, (p, n) in enumerate(zip(rows.tolist(), counts.tolist())):
                    cw, cu, ca, cd = pool[p]
                    t[i, :n] = cw.exponential(1.0, n)
                    u[i, :n] = cu.random(n)
                    a[i, :n] = up_law.sample_block(ca, n)
                    d[i, :n] = down_law.sample_block(cd, n)
                    if n < steps:
                        # zero waits and jumps keep the ignored lanes finite
                        t[i, n:] = u[i, n:] = a[i, n:] = d[i, n:] = 0.0
                np.negative(d, out=d)
                t[:, 0] += t_carry[rows]
                np.cumsum(t, axis=1, out=t)
                if drift is None:
                    np.copyto(z, np.where(u < 0.5, a, d))
                    z[:, 0] += z_carry[rows]
                    np.cumsum(z, axis=1, out=z)
                else:
                    zs = z_carry[rows]
                    for s in range(steps):
                        up = u[:, s] < 0.5 + drift.phi(zs, t[:, s])
                        zs = z[:, s] = zs + np.where(up, a[:, s], d[:, s])
                last = (np.arange(nr), counts - 1)
                t_carry[rows] = t[last]
                z_carry[rows] = z[last]
                yield rows + lo, t, z, counts
            # a block short of _BLOCK events is the path's last, however
            # close its last event is to the horizon
            live = live[k == _BLOCK]


def _position(
    rng: np.random.Generator,
    cursors: list[np.random.Generator],
    t: float,
    horizon: float,
    up_law: JumpLaw,
    down_law: JumpLaw,
) -> int:
    """Put the four cursors at the starts of the block's waits, uniforms,
    up marks and down marks; move ``rng`` past the block when the path
    goes on after it.  Returns the block's event count k."""
    cw, cu, ca, cd = cursors
    cw.bit_generator.state = rng.bit_generator.state
    k = _block_times(rng, t, horizon).size
    if k:
        cu.bit_generator.state = rng.bit_generator.state
        rng.bit_generator.advance(_BLOCK)  # one 64-bit word per uniform
        ca.bit_generator.state = rng.bit_generator.state
        up_law.sample_block(rng, _BLOCK)
        cd.bit_generator.state = rng.bit_generator.state
        if k == _BLOCK:
            down_law.sample_block(rng, _BLOCK)
    return k


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
