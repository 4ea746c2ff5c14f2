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

Walk draw recipe (version 2) per block of n events, in order: n
inter-event waits, n direction uniforms, n up-marks, n down-marks.  The
first block of a path holds n = ``_first_block(horizon)`` events, which
is min(4096, ceil(h + 8 sqrt(h) + 16)) for a horizon h >= 0: the event
count by h is Poisson(h), so a second block is needed only past about 8
standard deviations.  Every later block holds 4096.  For
h >= 3600 the rule gives 4096, so those paths are the version 1
recipe's (4096 events in every block) bit for bit.  The recipe is part
of the determinism contract: a (seed, config) pair reproduces
trajectories byte-for-byte.  The block whose waits cross the
horizon (k < n events) is the path's last, and nothing is drawn after
it, so it is drawn lazily: its k uniforms (the other n - k are skipped
with ``advance``, one 64-bit word each), its full up-mark block (a law
may use a variable number of words per mark, which positions the down
marks) and its k down marks.  The values used are the full recipe's.

Two engines read the recipe.  ``_event_blocks`` runs one path with the
scalar ``scalar_phi`` closure; single-path commands and occupancy use
it.  With m = ``drift.phi_bound(t)`` at the block's start time t, a
uniform u < 0.5 - m is an up-step and u >= 0.5 + m a down-step whatever
phi is, because |phi| <= m from t on and rounding is monotone
(fl(0.5 - m) <= fl(0.5 + phi) <= fl(0.5 + m)).  So one vector pass sets
every direction as if phi were 0 (u < 0.5), and a Python loop visits
only the open events, u in [0.5 - m, 0.5 + m): at each it takes the
state as the left fold z + j_p + ... + j_(i-1) of the settled stretch
since the last open event, compares u with 0.5 + phi(z, t) and writes
the decided jump back.  A field with m = 0 (``Zero``) has no open
event and never calls the closure.  One cumsum seeded with the carried
z then gives z_after, which is the same left fold, so the path is the
phi-on-every-event loop's bit for bit.

``_batch_chunks`` runs an ensemble in lockstep, one event of every live
path per step, with the vectorized ``phi`` evaluated across paths; the
band-return experiment and the second-moment check use it, and the
experiment's worker processes each run one contiguous span of paths.
Paths run in sub-batches of at most ``_BATCH`` (512).  A first block of
n <= ``_CHUNK`` (128) events, such as the 25 of a check at sigma 1, is
drawn whole, path by path, by ``_draw_rows``: one generator, set to
each path's start, draws the n waits, n uniforms, n up marks and n down
marks straight into right-sized rows, ``_CHUNK`` paths at a time, and
the event counts come from the times.  A larger block is drawn through
each path's own generator, which at the block start positions four
cursor generators at the block's waits, uniforms, up marks and down
marks (through ``bit_generator.state``); the cursors then draw the
block 128 events at a time into buffers reused across chunks, so the
engine holds O(paths x 128) draws, never a (paths, 4096) block.  The
path generators and cursors are made only when a block needs them.
``Constant1`` marks draw no generator words, so a unit-mark side's
buffer is filled once (+1 up, -1 down) and nothing is drawn for it.
The engine's paths equal ``_event_blocks``' bit for bit wherever
``phi`` and ``scalar_phi`` agree, which they do for every family except
``PowerLaw`` (numpy's ``power`` and libm's ``pow`` differ by up to 4
ulp), where a direction flips only if a uniform lands within those ulp
of its threshold.

A path seeded with s draws the stream ``np.random.default_rng(s)``
starts; path i of an ensemble under master seed m has s =
``path_seed(m, i)`` = mix64(mix64(m) ^ i).  Single-path entry points
(``simulate_walk``, ``simulate_compound_poisson``, occupancy) build that
generator.  The ensembles (``_batch_chunks`` and the martingale check)
instead set reused generators to the states ``pcg64_states`` derives
for a sub-batch of paths at a time, which costs about 3 us a path
instead of about 20 for a new generator, and draw the same bits.

Compound-Poisson draw recipe (version 3).  A path thins a proposal
clock of rate ``rate_bound``.  It draws proposals in blocks of n: n
waits, then n uniforms, then n marks, with n =
``_first_block(rate_bound * horizon)`` for the first block and
``_BLOCK`` after it.  Proposal times are the carried left fold
t + w / rate_bound, computed as a cumsum seeded with the carried t;
proposal i is accepted iff t_i <= horizon and u_i * rate_bound <=
rate(t_i), and then carries mark i.  A block whose last proposal lies
inside the horizon is followed by the next.  ``simulate_compound_poisson``
runs it for one path (``_compound_poisson``); ``martingale_check``
draws each path's first block straight into rows with ``_draw_rows``,
``_CHUNK`` paths at a time, and thins them as arrays; the rare path
whose first block ends inside the horizon with no accepted event past
tau is drawn again, whole, by ``_compound_poisson``.

The compensators have one fold, ``_compensate``, shared by
``compensator_report`` (one path) and ``martingale_check`` (many).  The
check prices its paths in sub-batches of at most ``_BATCH``, and of at
most ``_BATCH * _CHUNK`` first-block cells, so memory does not grow with
rate x horizon: the sub-batch's inter-event
intervals and tails to tau sit in flat arrays, one ``_integrals`` pass
applies the Gauss-Legendre rule to all of them panel by panel, and each
path's compensator is folded column by column (event j of every path
that has one), so nothing is padded to a (paths x events) matrix.  Per
path the arithmetic is a scalar loop's, in the same order, so the
values are bit-identical to it whenever the intensity's own arithmetic
is correctly rounded.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .fields import Constant1, JumpLaw, RateField, Zero
from .seeding import check_seed, path_seeds, pcg64_states

__all__ = [
    "Trajectory",
    "CompensatorReport",
    "WaldCheck",
    "simulate_walk",
    "simulate_compound_poisson",
    "compensator_report",
    "MartingaleCheck",
    "ResidualMean",
    "martingale_check",
    "wald_second_moment_check",
    "trajectory_csv",
]

_BLOCK = 4096  # events per draw block after a path's first
_CHUNK = 128  # events per lockstep chunk of _batch_chunks
_BATCH = 512  # paths per lockstep sub-batch of _batch_chunks

_GL = list(zip(*(v.tolist() for v in np.polynomial.legendre.leggauss(16))))


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
    blocks = list(_walk_blocks(rf, up_law, down_law, horizon, seed, z0))
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


def _walk_blocks(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    seed: int,
    z0: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``simulate_walk``'s path as ``_event_blocks``' (times, signed jumps,
    z_after) blocks, drawn as they are read; the arguments are checked
    here, before the first block is asked for."""
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be nonnegative and finite")
    if not math.isfinite(z0):
        raise ValueError("z0 must be finite")
    check_seed(seed)
    return _event_blocks(rf, up_law, down_law, horizon, np.random.default_rng(seed), z0)


def _first_block(horizon: float) -> int:
    """Events in a path's first draw block (walk recipe 2), or proposals
    in a compound-Poisson path's (recipe 3, at horizon rate_bound *
    horizon): at least 16, and ``_BLOCK`` from horizon 3600 on."""
    if horizon >= 3600.0:  # where the rule reaches _BLOCK; also inf
        return _BLOCK
    return math.ceil(horizon + 8.0 * math.sqrt(horizon) + 16.0)


def _block_times(rng: np.random.Generator, t: float, horizon: float, n: int) -> np.ndarray:
    """Draw a block's n waits and return its event times up to the
    horizon.  Seeding the cumsum with the carried time t makes every
    partial sum the exact left fold ``t + dt`` of a scalar loop."""
    tb = np.cumsum(np.concatenate(((t,), rng.standard_exponential(n))))[1:]
    return tb[: int(np.searchsorted(tb, horizon, side="right"))]


def _event_blocks(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    rng: np.random.Generator,
    z0: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The path's events as (times, signed jumps, z_after) arrays, one
    non-empty tuple per draw block, drawn from ``rng`` as positioned at
    the path's start.  The blocks' sizes and the lazy final block are
    the module docstring's recipe."""
    if horizon <= 0.0:
        return
    drift = rf.drift
    phi = drift.scalar_phi()
    t = 0.0
    z = z0
    n = _first_block(horizon)
    while True:
        tb = _block_times(rng, t, horizon, n)
        k = tb.size
        if k == 0:
            return
        us = rng.random(k)
        if k < n:
            # every uniform is one 64-bit word, so skip the unused ones
            rng.bit_generator.advance(n - k)
        ups = up_law.sample_block(rng, n)[:k]
        dns = down_law.sample_block(rng, k)
        # |phi| <= m from the block's start on, so a uniform outside
        # [0.5 - m, 0.5 + m) settles the direction without phi; only the
        # open events in between run in Python
        sj = np.where(us < 0.5, ups, -dns)
        m = drift.phi_bound(t)
        open_ = np.flatnonzero((us >= 0.5 - m) & (us < 0.5 + m))
        if open_.size:
            js = sj.tolist()
            decided: list[float] = []
            zo, p = z, 0
            for i, tn, u, up, dn in zip(
                open_.tolist(),
                tb[open_].tolist(),
                us[open_].tolist(),
                ups[open_].tolist(),
                dns[open_].tolist(),
            ):
                if p < i:
                    # the state after the settled stretch, as a left fold
                    zo = reduce(add, js[p:i], zo)
                j = up if u < 0.5 + phi(zo, tn) else -dn
                decided.append(j)
                zo += j
                p = i + 1
            sj[open_] = decided
        # seeding the cumsum with the carried z makes it the left fold
        zb = np.cumsum(np.concatenate(((z,), sj)))[1:]
        t = float(tb[-1])
        z = float(zb[-1])
        yield tb, sj, zb
        if k < n:
            return
        n = _BLOCK


def _draw_rows(
    rngs: Iterable[np.random.Generator],
    waits: np.ndarray,
    uniforms: np.ndarray,
    marks: Sequence[tuple[JumpLaw, np.ndarray]],
) -> None:
    """Draw one whole block per path straight into its rows: from the
    i-th generator, n waits into ``waits[i]``, n uniforms into
    ``uniforms[i]``, then n marks into row i of each ``(law, buffer)`` of
    ``marks`` in turn, n being the buffers' width.  A ``Constant1`` law
    draws no words, so its buffer is left as the caller filled it."""
    drawn = [(law, m) for law, m in marks if not isinstance(law, Constant1)]
    n = waits.shape[1]
    for i, rng in enumerate(rngs):
        rng.standard_exponential(out=waits[i])
        rng.random(out=uniforms[i])
        for law, m in drawn:
            law.sample_block(rng, n, out=m[i])


def _at_states(
    rng: np.random.Generator, states: Sequence[dict]
) -> Iterator[np.random.Generator]:
    """``rng`` set in turn to each of ``states``."""
    for state in states:
        rng.bit_generator.state = state
        yield rng


def _batch_chunks(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    seeds: Sequence[int],
    z0: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The paths of ``_event_blocks`` from ``default_rng(s)`` for each s
    of ``seeds``, advanced in lockstep, one event of every live path per
    step.

    Yields ``(rows, times, z_after, counts)`` per chunk of at most
    ``_CHUNK`` events: row i of the ``times`` and ``z_after`` views holds
    the next ``counts[i]`` (>= 1) events of path ``seeds[rows[i]]``;
    columns past a row's count are padding.  The views are overwritten
    by the next chunk, so a consumer reduces them before asking for it.

    Paths run in sub-batches of ``_BATCH``.  A first block of n <=
    ``_CHUNK`` events is drawn whole by one generator set to each path's
    derived starting state, into right-sized rows (n waits, n uniforms,
    n up marks, n down marks) ``_CHUNK`` paths at a time, and its event
    counts come from its times.  A path that goes on past such a block,
    or whose first block is larger, gets a pooled generator set to its
    starting state (and moved past a first block drawn whole), which at
    every block start positions four cursor generators (waits, direction
    uniforms, up marks, down marks); the cursors draw the block chunk by
    chunk into the buffers, so memory grows with ``_BATCH * _CHUNK``,
    not with the block.  The pooled generators and cursors are made the
    first time a path needs them.  A ``Constant1`` side keeps its buffer
    of unit marks and draws nothing.  The field is evaluated across
    paths with the vectorized ``phi``.
    """
    if horizon <= 0.0:
        return
    drift = None if isinstance(rf.drift, Zero) else rf.drift
    width = min(_BATCH, len(seeds))
    # A new PCG64 costs ~20 us and ~2 kB, so generators are made once and
    # positioned through their state: one draws whole first blocks, and
    # the per-path generators and their cursors are made when a path
    # first goes past its first block or that block needs cursors.
    rng = np.random.Generator(np.random.PCG64(0))
    rngs: list[np.random.Generator] = []
    pool: list[list[np.random.Generator]] = []
    unit_up, unit_dn = isinstance(up_law, Constant1), isinstance(down_law, Constant1)
    bufs: dict[tuple[int, int], np.ndarray] = {}

    def buffers(rows: int, cols: int) -> np.ndarray:
        # waits (then times), uniforms (then z_after), up marks, down
        # marks (negated); unit marks are never random, so they are
        # filled once
        if (rows, cols) not in bufs:
            b = bufs[rows, cols] = np.zeros((4, rows, cols))
            if unit_up:
                b[2].fill(1.0)
            if unit_dn:
                b[3].fill(-1.0)
        return bufs[rows, cols]

    def walk(rows, counts, t, u, a, d):
        # the rows' times are in t; place their first counts[i] events
        # in u, each column once its uniforms are read, and carry each
        # row's last
        steps = int(counts.max())
        t, z, a, d = (b[:, :steps] for b in (t, u, a, d))
        if not unit_dn:
            np.negative(d, out=d)
        if drift is None:
            up = z < 0.5
            np.copyto(z, d)
            np.copyto(z, a, where=up)
            z[:, 0] += z_carry[rows]
            np.cumsum(z, axis=1, out=z)
        else:
            zs = z_carry[rows]
            for s in range(steps):
                up = z[:, s] < 0.5 + drift.phi(zs, t[:, s])
                zs = z[:, s] = zs + np.where(up, a[:, s], d[:, s])
        last = (np.arange(rows.size), counts - 1)
        t_carry[rows] = t[last]
        z_carry[rows] = z[last]
        return rows + lo, t, z, counts

    for lo in range(0, len(seeds), _BATCH):
        states = pcg64_states(seeds[lo : lo + _BATCH])
        live = np.arange(len(states))
        t_carry = np.zeros(len(states))
        z_carry = np.full(len(states), z0, dtype=float)
        n = _first_block(horizon)  # every live path is in the same block
        whole = n <= _CHUNK
        if whole:
            # the block is one chunk: draw it whole, path by path, into
            # right-sized rows, _CHUNK paths at a time, then count its
            # events from the times
            k = np.empty(live.size, dtype=int)
            for g in range(0, live.size, _CHUNK):
                group = live[g : g + _CHUNK]
                t, u, a, d = buffers(min(width, _CHUNK), n)[:, : group.size]
                _draw_rows(_at_states(rng, states[g : g + _CHUNK]), t, u,
                           ((up_law, a), (down_law, d)))
                np.cumsum(t, axis=1, out=t)
                kg = k[g : g + _CHUNK] = np.count_nonzero(t <= horizon, axis=1)
                if kg.any():
                    # rows without events are walked too (their carries
                    # are never read again) and left out of what is yielded
                    rows, t, z, counts = walk(group, kg, t, u, a, d)
                    on = kg > 0
                    yield (rows, t, z, counts) if on.all() else (rows[on], t[on], z[on], counts[on])
            live = live[k == n]
        if live.size and not rngs:
            rngs = [np.random.Generator(np.random.PCG64(0)) for _ in range(width)]
            pool = [[np.random.Generator(np.random.PCG64(0)) for _ in range(4)]
                    for _ in range(width)]
        for p in live.tolist():
            rngs[p].bit_generator.state = states[p]
            if whole:  # move past the first block, drawn whole above
                _position(rngs[p], pool[p], 0.0, horizon, n, up_law, down_law)
        if whole:
            n = _BLOCK
        while live.size:
            k = np.array([_position(rngs[p], pool[p], t_carry[p], horizon, n, up_law, down_law)
                          for p in live.tolist()])
            for j0 in range(0, int(k.max()), _CHUNK):
                counts = np.minimum(k - j0, _CHUNK)
                on = counts > 0
                rows, counts = live[on], counts[on]
                nr, steps = rows.size, int(counts.max())
                t, u, a, d = buffers(width, _CHUNK)[:, :nr, :steps]
                for i, (p, c) in enumerate(zip(rows.tolist(), counts.tolist())):
                    cw, cu, ca, cd = pool[p]
                    cw.standard_exponential(out=t[i, :c])
                    cu.random(out=u[i, :c])
                    if not unit_up:
                        up_law.sample_block(ca, c, out=a[i, :c])
                    if not unit_dn:
                        down_law.sample_block(cd, c, out=d[i, :c])
                    if c < steps:
                        # zero waits and jumps keep the ignored lanes finite
                        t[i, c:] = u[i, c:] = 0.0
                        if not unit_up:
                            a[i, c:] = 0.0
                        if not unit_dn:
                            d[i, c:] = 0.0
                t[:, 0] += t_carry[rows]
                np.cumsum(t, axis=1, out=t)
                yield walk(rows, counts, t, u, a, d)
            # a block short of its n events is the path's last, however
            # close its last event is to the horizon
            live = live[k == n]
            n = _BLOCK


def _position(
    rng: np.random.Generator,
    cursors: list[np.random.Generator],
    t: float,
    horizon: float,
    n: int,
    up_law: JumpLaw,
    down_law: JumpLaw,
) -> int:
    """Put the four cursors at the starts of the n-event block's waits,
    uniforms, up marks and down marks; move ``rng`` past the block when
    the path goes on after it.  Returns the block's event count k."""
    cw, cu, ca, cd = cursors
    cw.bit_generator.state = rng.bit_generator.state
    k = _block_times(rng, t, horizon, n).size
    if k:
        cu.bit_generator.state = rng.bit_generator.state
        rng.bit_generator.advance(n)  # one 64-bit word per uniform
        ca.bit_generator.state = rng.bit_generator.state
        if not isinstance(up_law, Constant1):  # unit marks draw no words
            up_law.sample_block(rng, n)
        cd.bit_generator.state = rng.bit_generator.state
        if k == n and not isinstance(down_law, Constant1):
            down_law.sample_block(rng, n)
    return k


def simulate_compound_poisson(
    rate: Callable,
    rate_bound: float,
    law: JumpLaw,
    horizon: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One compound-Poisson path by thinning a rate-bound proposal clock
    (draw recipe 3, see the module docstring).

    ``rate`` is the deterministic intensity, ``rate_bound`` a finite
    upper bound for it on [0, horizon].  Returns event times and marks.
    ``rate`` is called here with float64 arrays of proposal times, as
    ``compensator_report`` calls it with arrays of times, so write it
    with elementwise numpy arithmetic; a constant may return a scalar.
    When its arithmetic is correctly rounded (+, -, *, /, sqrt) the
    values are those of a scalar rule that calls ``rate`` one float at
    a time.
    """
    if not 0.0 < rate_bound < math.inf:  # written so that NaN fails too
        raise ValueError("rate_bound must be positive and finite")
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be nonnegative and finite")
    check_seed(seed)
    return _compound_poisson(np.random.default_rng(seed), rate, rate_bound, law, horizon, horizon)


def _compound_poisson(
    rng: np.random.Generator,
    rate: Callable,
    rate_bound: float,
    law: JumpLaw,
    horizon: float,
    stop: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Recipe 3 from ``rng``'s position: the accepted event times and
    marks on (0, horizon].  Returns after the first block holding an
    accepted event past ``stop``, since nothing drawn after it is read."""
    scale = 1.0 / rate_bound
    t = 0.0
    n = _first_block(rate_bound * horizon)
    times: list[np.ndarray] = []
    marks: list[np.ndarray] = []
    while True:
        tb = rng.standard_exponential(n)
        tb *= scale
        tb[0] += t
        np.cumsum(tb, out=tb)
        u = rng.random(n)
        mb = law.sample_block(rng, n)
        on = _accepted(rate, rate_bound, tb, u, horizon)
        times.append(tb[on])
        marks.append(mb[on])
        if tb[-1] > horizon or (times[-1].size and times[-1][-1] > stop):
            return np.concatenate(times), np.concatenate(marks)
        t = float(tb[-1])
        n = _BLOCK


def _accepted(
    rate: Callable, rate_bound: float, times: np.ndarray, u: np.ndarray, horizon: float
) -> np.ndarray:
    """Recipe 3's thinning of proposals of any shape: proposal i is
    accepted iff t_i <= horizon and u_i * rate_bound <= rate(t_i).
    Raises if ``rate`` leaves [0, rate_bound] at a proposal time up to
    the horizon."""
    on = times <= horizon
    ts = times[on]
    r = np.broadcast_to(rate(ts), ts.shape)
    ok = (r >= -1e-15) & (r <= rate_bound * (1.0 + 1e-12))  # NaN fails too
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"rate(t)={float(r[i])} falls outside [0, rate_bound] at t={float(ts[i])}")
    on[on] = u[on] * rate_bound <= r
    return on


def _integrals(rate: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of ``rate`` over each [a_i, b_i], 0 where b_i <= a_i.

    Composite 16-point Gauss-Legendre with ceil((b - a) / 4) equal
    panels; panels of length <= 4 keep the rule at fp accuracy for the
    smooth intensities this module sees.  Every interval takes panel k
    in the same pass, and the passes after the first run only on the
    intervals that have that many panels.  Per interval the arithmetic
    is the scalar rule's: ``lo = a + k*h``, ``mid = lo + 0.5*h``, nodes
    ``mid + half*x`` in order, ``s += w * rate(node)`` from 0 and
    ``total += half * s`` per panel.
    """
    span = b - a
    panels = np.maximum(np.ceil(span / 4.0), 1.0)
    h = span / panels
    total = np.zeros(span.size)
    on = np.flatnonzero(span > 0.0)
    k = 0
    while on.size:
        hk = h[on]
        half = 0.5 * hk
        mid = (a[on] + k * hk) + half
        s = np.zeros(on.size)
        for xn, w in _GL:
            s += w * rate(mid + half * xn)
        total[on] += half * s
        k += 1
        on = on[panels[on] > k]
    return total


def _compensate(
    rate: Callable,
    tau: float,
    times: np.ndarray,
    marks: np.ndarray,
    counts: np.ndarray,
    next_marks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw jump sum and literal and ensemble compensators at tau, per path.

    Path p's events up to tau are ``counts[p]`` consecutive entries of
    the flat ``times`` and ``marks``; ``next_marks[p]`` prices its open
    interval (last event, tau] in the literal reading.  Each path has one
    interval per event, from the event before it (or 0), and a tail to
    tau, all integrated in one ``_integrals`` call.  The per-path sums
    are the scalar loop's: a left fold over the path's events for the
    compensator, ``np.sum`` of its marks for the raw sum.
    """
    n = counts.size
    first = np.cumsum(counts) - counts  # each path's first event in times
    tail = first + np.arange(n) + counts  # each path's last interval, to tau
    b = np.full(times.size + n, tau)
    to_event = np.ones(b.size, bool)
    to_event[tail] = False
    b[to_event] = times
    a = np.empty_like(b)  # an interval starts where the one before it ends
    a[1:] = b[:-1]
    a[tail - counts] = 0.0  # or at 0, for a path's first
    priced = _integrals(rate, a, b)
    terms = marks * priced[to_event]
    # paths in order of count: those with an event j are a suffix
    order = np.argsort(counts, kind="stable")
    start = first[order]
    k_max = int(counts[order[-1]]) if n else 0
    edges = np.searchsorted(counts[order], np.arange(k_max + 1), side="right").tolist()
    done, raw = np.zeros(n), np.zeros(n)
    for j in range(k_max):
        # event j of every path that has one, column by column
        lo = edges[j]
        done[lo:] += terms[start[lo:] + j]
    for k in range(1, k_max + 1):
        # the paths with k events as the rows of one matrix: numpy sums
        # each row as it sums the row on its own
        lo, hi = edges[k - 1], edges[k]
        if lo < hi:
            raw[lo:hi] = np.sum(marks[start[lo:hi, None] + np.arange(k)], axis=1)
    rank = np.argsort(order)  # each path's place in count order
    done, raw = done[rank], raw[rank]
    tails = priced[tail]
    return raw, done + next_marks * tails, done + tails


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
        return asdict(self)


def compensator_report(
    times: Sequence[float],
    marks: Sequence[float],
    rate: Callable,
    tau: float,
) -> CompensatorReport:
    """Evaluate both compensator modes and their residuals in one pass.

    The literal reading prices the open interval after the last event
    up to tau with the mark that actually arrives next (the mean, 1,
    when the stream records no event after tau); the ensemble reading
    prices it at the mean mark.  ``rate`` is called on float64 arrays of
    times and must act elementwise; a constant may return a scalar.  The
    values are bit-identical to a scalar rule that calls ``rate`` one
    float at a time whenever the rate's arithmetic is correctly rounded
    (+, -, *, /, sqrt); a transcendental such as ``np.exp`` may differ
    from ``math.exp`` in the last bit.
    """
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")
    times = np.asarray(times, float)
    marks = np.asarray(marks, float)
    if times.shape != marks.shape or times.ndim != 1:
        raise ValueError("times and marks must be 1-d arrays of equal length")
    ts, ms = times.tolist(), marks.tolist()
    prev = 0.0
    for ti in ts:
        # written so that NaN fails too
        if not prev < ti < math.inf:
            raise ValueError("event times must be positive and strictly increasing")
        prev = ti
    if not all(0.0 < m < math.inf for m in ms):
        raise ValueError("marks must be positive")
    k = bisect_right(ts, tau)
    nxt, mode = (ms[k], "next-mark") if k < len(ms) else (1.0, "mean-mark")
    if (ts[k - 1] if k else 0.0) == tau:
        mode = "complete"
    raw, literal, ensemble = (
        float(v[0]) for v in _compensate(rate, tau, times[:k], marks[:k], np.array([k]), np.array([nxt]))
    )
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
class ResidualMean:
    """Mean of per-path residuals, its standard error (ddof 1), and
    whether the mean lies within 3 of them (exactly 0 when se is 0)."""

    mean_residual: float
    se: float
    within_3se: bool

    @classmethod
    def of(cls, v: np.ndarray) -> "ResidualMean":
        mean = float(np.mean(v))
        se = float(np.std(v, ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
        return cls(mean, se, abs(mean) <= 3.0 * se if se > 0 else mean == 0.0)


@dataclass(frozen=True)
class MartingaleCheck:
    """Mean residual, raw jump sum minus compensator at tau, under both
    tail readings."""

    n_paths: int
    tau: float
    rate: float
    literal: ResidualMean
    ensemble: ResidualMean

    def to_record(self) -> dict:
        return asdict(self)


def martingale_check(
    rate: float,
    law: JumpLaw,
    tau: float,
    horizon: float,
    n_paths: int,
    seed: int,
) -> MartingaleCheck:
    """Check that raw minus compensator at tau has mean 0 over n_paths
    compound-Poisson paths with constant intensity ``rate`` and marks
    from ``law``, observed on (0, horizon].

    Path i is ``simulate_compound_poisson(r, rate, law, horizon,
    path_seed(seed, i))`` with r the constant ``rate`` (drawn only up to
    its first event past tau), and its residuals are
    ``compensator_report``'s, bit for bit.  Paths are drawn ``_CHUNK``
    at a time into rows and priced by one ``_compensate`` call per
    sub-batch (see the module docstring).
    """
    if not 0.0 < rate < math.inf:  # written so that NaN fails too
        raise ValueError("rate must be positive and finite")
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")
    if not tau <= horizon < math.inf:
        raise ValueError("horizon must be finite and at least tau")
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    check_seed(seed)
    intensity = lambda t: rate  # noqa: E731 - constant intensity
    lit = np.empty(n_paths)
    ens = np.empty(n_paths)
    n = _first_block(rate * horizon)
    # paths priced by one _compensate call, their cells capped so that
    # memory does not grow with rate * horizon; drawn _CHUNK at a time
    width = max(1, min(_BATCH, _BATCH * _CHUNK // n))
    w, u, m = np.empty((3, min(width, _CHUNK, n_paths), n))
    if isinstance(law, Constant1):
        m.fill(1.0)
    rng = np.random.Generator(np.random.PCG64(0))
    for lo in range(0, n_paths, width):
        states = pcg64_states(path_seeds(seed, lo, min(lo + width, n_paths)))
        # the paths in the order their events go into times: order holds
        # their indices, counts and nxt their event counts to tau and
        # next marks; the paths drawn again come last
        times, marks, counts, nxt, order = [], [], [], [], []
        again: list[int] = []
        for g in range(0, len(states), _CHUNK):
            group = states[g : g + _CHUNK]
            tb, ub, mb = w[: len(group)], u[: len(group)], m[: len(group)]
            _draw_rows(_at_states(rng, group), tb, ub, ((law, mb),))
            tb *= 1.0 / rate
            np.cumsum(tb, axis=1, out=tb)
            on = _accepted(intensity, rate, tb, ub, horizon)
            before = on & (tb <= tau)
            after = on & ~before
            first = np.argmax(after, axis=1)  # each row's first accepted event past tau
            rows = np.arange(len(group))
            has_next = after[rows, first]
            # a path whose first block ends inside the horizon with no
            # accepted event past tau goes on: it is drawn again, whole
            once = (tb[:, -1] > horizon) | has_next
            before &= once[:, None]
            times.append(tb[before])
            marks.append(mb[before])
            counts.append(np.count_nonzero(before, axis=1)[once])
            nxt.append(np.where(has_next, mb[rows, first], 1.0)[once])
            order.append(g + rows[once])
            again += (g + rows[~once]).tolist()
        for i in again:
            rng.bit_generator.state = states[i]
            ts, ms = _compound_poisson(rng, intensity, rate, law, horizon, tau)
            k = int(np.searchsorted(ts, tau, side="right"))
            times.append(ts[:k])
            marks.append(ms[:k])
            counts.append([k])
            nxt.append([ms[k] if k < ms.size else 1.0])
        order.append(np.array(again, dtype=int))
        raw, literal, ensemble = _compensate(
            intensity, tau, *(np.concatenate(v) for v in (times, marks, counts, nxt))
        )
        at = lo + np.concatenate(order)
        lit[at] = raw - literal
        ens[at] = raw - ensemble
    return MartingaleCheck(
        n_paths=n_paths,
        tau=tau,
        rate=rate,
        literal=ResidualMean.of(lit),
        ensemble=ResidualMean.of(ens),
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
        return asdict(self)


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

    The paths are the lockstep engine's, and the estimate is the left
    fold of dz^2 over their final positions in path order, so it equals
    a loop over ``simulate_walk(..., path_seed(seed, i))`` bit for bit
    (up to ``PowerLaw``'s caveat in the module docstring).
    """
    if not 0.0 <= sigma < math.inf:  # written so that NaN fails too
        raise ValueError("sigma must be nonnegative and finite")
    if not math.isfinite(z0):
        raise ValueError("z0 must be finite")
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    check_seed(seed)
    bound = sigma * (2.0 + up_law.variance + down_law.variance)
    final = np.full(n_paths, z0, dtype=float)
    chunks = _batch_chunks(rf, up_law, down_law, sigma, path_seeds(seed, 0, n_paths), z0)
    for rows, _t, z, counts in chunks:
        final[rows] = z[np.arange(rows.size), counts - 1]
    dz = final - z0
    # the left fold 0 + dz_0^2 + dz_1^2 + ... in path order, as cumsum adds
    emp = float(np.cumsum(dz * dz)[-1]) / n_paths
    return WaldCheck(
        sigma=sigma,
        n_paths=n_paths,
        empirical_second_moment=emp,
        bound=bound,
        passed=emp <= bound * 1.05,
    )


def _csv(
    header: str, row: Callable[..., str], blocks: Iterable[Sequence[np.ndarray]]
) -> Iterator[str]:
    """``header``, then the lines ``row`` renders from each index of each
    block's equal-length columns.  Rows are rendered and yielded
    ``_BLOCK`` at a time from the block's plain Python values, so a
    consumer that writes each piece holds one piece's values and text at
    a time.  ``row`` is a function rather than a ``str.format``
    template, which is parsed again for every row: on a 2e5-row path
    (Python 3.11) that took about 15% more time than an f-string."""
    yield header
    for cols in blocks:
        for lo in range(0, len(cols[0]), _BLOCK):
            yield "".join(map(row, *(c[lo : lo + _BLOCK].tolist() for c in cols)))


def _trajectory_csv(blocks: Iterable[Sequence[np.ndarray]]) -> Iterator[str]:
    """``trajectory_csv``'s text, piece by piece, from (times, jumps,
    z_after) blocks such as ``_walk_blocks``'."""
    return _csv("tau,signed_jump,z_after\n", lambda t, j, z: f"{t!r},{j!r},{z!r}\n", blocks)


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV text, one event per row.

    Columns: tau (event time), signed_jump, z_after.  Values are written
    with repr so a round-trip through the text recovers the exact floats.
    """
    return "".join(_trajectory_csv([(traj.times, traj.jumps, traj.z_after)]))
