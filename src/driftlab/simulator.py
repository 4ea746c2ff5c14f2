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

Draw contract 5.  A path seeded with s reads two streams (see
``seeding``).  Stream A, ``np.random.default_rng(s)``, gives its
waits, one standard exponential per event, in order, each times the
path's wait scale: 1 for a walk, 1 / rate_bound for a compound-Poisson
path, whose events are the proposals of a rate_bound clock.  An event's
time is the carried left fold t + w * scale.  Stream B, the same PCG64
stream 2**96 words on, gives per block of ``_BLOCK`` (256) events the
block's uniforms, then the marks of each law in turn (the walk's up law,
then its down law; a compound-Poisson path's one law); a ``Constant1``
law draws nothing.  The block in which the waits cross the horizon holds
only its k < ``_BLOCK`` events and ends the path.  So an event's draws
do not depend on how an engine groups them, and ``_BLOCK`` is the only
size in the record; a (seed, config) pair reproduces its paths byte for
byte.

One generator, ``_blocks``, draws the contract for one path or for many
in lockstep, window by window, and yields (times, uniforms, marks).
Each caller applies its own rule to them.  The walk splits event i up
iff u_i < 1/2 + phi(z, t_i), z the state before it; a compound-Poisson
path accepts proposal i iff u_i * rate_bound <= rate(t_i), with mark i.

Two walk engines read the contract and agree bit for bit, because every
family's ``phi`` and ``scalar_phi`` do.  ``_event_blocks`` runs one path
(``_path_blocks``, in passes of ``_PASS`` blocks after the first) and
splits each pass with the scalar ``scalar_phi`` closure.  With m =
``drift.phi_bound(t)`` at the pass's start time t, a uniform u < 0.5 - m
is an up-step and u >= 0.5 + m a down-step whatever phi is, because
|phi| <= m from t on and rounding is monotone.  So one vector pass sets
every direction as if phi were 0, and a Python loop visits only the open
events, u in [0.5 - m, 0.5 + m), folding the settled stretch since the
last one onto the state, left to right, before it calls phi.  One cumsum
seeded with the carried z then gives z_after, the same left fold.
``_batch_chunks`` runs an ensemble on ``_lockstep``'s windows, one event
of every live path per step, with the vectorized ``phi`` evaluated
across paths (see its docstring).

``simulate_compound_poisson`` thins one path's blocks.
``martingale_check`` reads ``_lockstep``'s windows as arrays: its
intensity is constant and its own bound, so no proposal is thinned.  The
compensators have one fold, ``_compensate``, shared by
``compensator_report`` (one path) and ``martingale_check`` (many).  The
check prices its paths in spans of at most ``_BATCH``, and of about
``_BATCH * _CHUNK`` proposals in all, so memory does not grow with rate
x horizon: the span's inter-event intervals and tails to tau sit in flat
arrays, one ``_integrals`` pass applies the Gauss-Legendre rule to all of
them panel by panel, and each path's compensator is folded column by
column (event j of every path that has one), so nothing is padded to a
(paths x events) matrix.  Per path the arithmetic is a scalar loop's, in
the same order, so the values are bit-identical to it whenever the
intensity's own arithmetic is correctly rounded.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Callable, Generator, Iterable, Iterator, Sequence

import numpy as np

from .fields import Constant1, JumpLaw, RateField, Zero
from .seeding import _JUMP, check_seed, path_seeds, pcg64_states, stream_b_states

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

_BLOCK = 256  # events per stream-B block: draw contract 5
_PASS = 16  # stream-B blocks per stream-A pass of _path_blocks
_CHUNK = 128  # events per lockstep chunk of _batch_chunks
_BATCH = 512  # paths per lockstep sub-batch of _batch_chunks
_ROWS = 4096  # rows or values per rendered piece of CSV and JSON output

# 16-point Gauss-Legendre (node, weight) pairs on [-1, 1]: the floats of
# numpy.polynomial.legendre.leggauss(16), stored so that no run imports
# numpy.polynomial
_GL = [
    (-0.9894009349916499, 0.027152459411754176),
    (-0.9445750230732326, 0.062253523938647456),
    (-0.8656312023878318, 0.0951585116824926),
    (-0.755404408355003, 0.12462897125553407),
    (-0.6178762444026438, 0.1495959888165767),
    (-0.45801677765722737, 0.16915651939500265),
    (-0.2816035507792589, 0.18260341504492364),
    (-0.09501250983763744, 0.18945061045506864),
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
]


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
    return _event_blocks(rf, up_law, down_law, horizon, seed, z0)


def _first_block(horizon: float) -> int:
    """Waits in the first window of ``_lockstep``: min(_BLOCK, ceil(h +
    8 sqrt(h) + 16)) at horizon h (in proposals), since the count by h is
    Poisson(h)."""
    h = min(horizon, float(_BLOCK))  # the same minimum, and no inf to ceil
    return min(_BLOCK, math.ceil(h + 8.0 * math.sqrt(h) + 16.0))


def _blocks(
    laws: Sequence[JumpLaw],
    horizon: float,
    scale: float,
    paths: np.ndarray,
    first: int,
    cols: int | None,
    rngs: Callable[[np.ndarray, int], Iterable[np.random.Generator]],
) -> Generator[tuple[np.ndarray, np.ndarray, np.ndarray, list, np.ndarray], None, np.ndarray]:
    """Draw contract 5 for ``paths``, window by window, until each has
    crossed ``horizon``.

    A window reads ``first`` waits of each path from stream A (``cols``
    in every later window), times ``scale``, and makes them times with
    one cumsum seeded with each row's carried time.  It puts the rows in
    order of their counts k, the times up to the horizon, longest first,
    so that the paths with an event at any column are a prefix of them,
    and then reads each row's k stream-B values, block by block: the
    uniforms, then the marks of each law of ``laws``.  It yields
    ``(paths, times, uniforms, marks, counts)`` for the rows with k >= 1:
    ``marks`` holds a view per law, None for a ``Constant1`` law, and
    columns past a row's count are padding.  The views are overwritten
    by the next window, so a consumer reduces them before asking for it.
    A path whose waits fill its window goes on in the next, so every
    window but one that its caller reads alone is a whole number of
    blocks.  With ``cols`` None only the first window is read: the rows
    that fill it are neither drawn from stream B nor yielded, and the
    generator returns their paths, in order.

    ``rngs(ps, s)`` gives, in the order of ``ps``, the stream-s
    generators (0: A, 1: B) of those paths, each where its stream goes
    on; each is asked for once per window, A before B.  The buffers are
    reused from window to window, so memory grows with the paths times
    the widest window.
    """
    drawn = [(law, j) for j, law in enumerate(laws) if not isinstance(law, Constant1)]
    bufs: list = []
    carry = None  # each row's last time, from the second window on
    c = first
    while paths.size:
        n = paths.size
        if not bufs or bufs[0].shape[1] != c:
            # waits (then times) and uniforms, which trade buffers when
            # the rows are put in order, then a buffer per law that draws;
            # a window of n rows uses their first n
            bufs = [np.zeros((n, c)) for _ in range(2)]
            bufs += [None if isinstance(law, Constant1) else np.zeros((n, c)) for law in laws]
            cols_c = np.arange(c)
        t = bufs[0][:n]
        for row, rng in zip(t, rngs(paths, 0)):
            rng.standard_exponential(out=row)
        if scale != 1.0:
            t *= scale
        if carry is not None:
            t[:, 0] += carry
        t.cumsum(axis=1, out=t)
        k = (t <= horizon).sum(axis=1)
        if n > 1 and (k[1:] > k[:-1]).any():
            order = np.argsort(-k, kind="stable")  # longest first
            # a clipped take writes straight into `out`, unbuffered
            np.take(t, order, axis=0, out=bufs[1][:n], mode="clip")
            bufs[0], bufs[1] = bufs[1], bufs[0]
            paths, k = paths[order], k[order]
        rows = int(np.count_nonzero(k))
        # the rows that fill the window, a prefix of them, go on; a
        # one-window read draws and yields only the rows after them
        go = int(np.count_nonzero(k == c)) if rows and k[0] == c else 0
        lo = go if cols is None else 0
        carry = bufs[0][:go, -1].copy()
        t, u, *marks = (None if b is None else b[lo:rows] for b in bufs)
        k = k[lo:rows]
        # with no marks to draw, a row's blocks are one run of uniforms
        step = _BLOCK if drawn else c
        for i, kc, rng in zip(range(k.size), k.tolist(), rngs(paths[lo:rows], 1)):
            for j0 in range(0, kc, step):
                j1 = min(j0 + step, kc)
                rng.random(out=u[i, j0:j1])
                for law, j in drawn:
                    law._draw(rng, marks[j][i, j0:j1])
        if drawn:
            # finish only the marks just drawn: the padding past a row's
            # count was finished in an earlier window, or never drawn
            fresh = cols_c < k[:, None]
            for law, j in drawn:
                law._finish(marks[j], where=fresh)
        if k.size:
            yield paths[lo:rows], t, u, marks, k
        if cols is None:
            return paths[:go]
        paths = paths[:go]
        c = cols
    return paths


def _path_blocks(
    laws: Sequence[JumpLaw], horizon: float, scale: float, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray, list[np.ndarray]]]:
    """The blocks of the one path of seed ``seed`` as (times, uniforms,
    marks) arrays of its k events per pass, a ``Constant1`` law's marks
    as ones: a first pass of one block, then passes of ``_PASS``
    blocks.  The arrays are overwritten by the next pass.

    One generator reads both streams, set to where the one asked for goes
    on: stream B begins 2**96 words past A's start."""
    rng = np.random.default_rng(seed)
    bg = rng.bit_generator
    start, parked, reading = bg.state, None, 0

    def rngs(ps, s):
        nonlocal parked, reading
        if s != reading:
            here = bg.state
            if parked is None:  # stream B, from its start
                bg.state = start
                bg.advance(_JUMP)
            else:
                bg.state = parked
            parked, reading = here, s
        return (rng,)

    for _, t, u, marks, k in _blocks(laws, horizon, scale, np.zeros(1, np.intp), _BLOCK,
                                     _PASS * _BLOCK, rngs):
        c = int(k[0])
        yield t[0, :c], u[0, :c], [np.ones(c) if m is None else m[0, :c] for m in marks]


def _lockstep(
    seeds: Sequence[int], laws: Sequence[JumpLaw], horizon: float, scale: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, list, np.ndarray]]:
    """``_blocks``' windows for the paths of ``seeds`` at once, ``paths``
    indexing ``seeds``.

    The first window holds ``_first_block(horizon / scale)`` waits, read
    through one shared pair of generators set to each path's derived
    starting states.  A path that fills it is not drawn from stream B
    there; it starts again on its own pair, made at that point, in
    windows of ``_BLOCK`` waits, each of which reads one whole B block or
    the path's last.
    """
    if horizon <= 0.0:
        return
    states = pcg64_states(seeds)
    # A new PCG64 costs ~10 us and ~2 kB, so a path gets its own pair only
    # when it fills its first window; all are seeded from one prebuilt
    # SeedSequence (which halves that cost) that is never drawn from.
    blank = np.random.SeedSequence(0)
    shared = [np.random.Generator(np.random.PCG64(blank)) for _ in range(2)]

    def at_states(ps, s):
        sts = [states[p] for p in ps.tolist()]
        return _at_states(shared[s], stream_b_states(sts) if s else sts)

    n = _first_block(horizon / scale)
    live = yield from _blocks(laws, horizon, scale, np.arange(len(states)), n, None, at_states)
    own = {}
    for p, b_state in zip(live.tolist(), stream_b_states(states[p] for p in live.tolist())):
        own[p] = [np.random.Generator(np.random.PCG64(blank)) for _ in range(2)]
        own[p][0].bit_generator.state = states[p]
        own[p][1].bit_generator.state = b_state
    yield from _blocks(laws, horizon, scale, live, _BLOCK, _BLOCK,
                       lambda ps, s: (own[p][s] for p in ps.tolist()))


def _event_blocks(
    rf: RateField,
    up_law: JumpLaw,
    down_law: JumpLaw,
    horizon: float,
    seed: int,
    z0: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The path of seed ``seed`` as (times, signed jumps, z_after) arrays,
    one non-empty tuple per pass of ``_path_blocks``."""
    drift = rf.drift
    phi = drift.scalar_phi()
    t = 0.0
    z = z0
    for tb, us, (ups, dns) in _path_blocks((up_law, down_law), horizon, 1.0, seed):
        # |phi| <= m from the pass's start on, so a uniform outside
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
        yield tb.copy(), sj, zb


def _at_states(
    rng: np.random.Generator, states: Iterable[dict]
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
    """The paths of ``_event_blocks`` for each seed of ``seeds``, advanced
    in lockstep, one event of every live path per step.

    Yields ``(rows, times, z_after, counts)`` per chunk of at most
    ``_CHUNK`` events: row i of the ``times`` and ``z_after`` views holds
    the next ``counts[i]`` (>= 1) events of path ``seeds[rows[i]]``;
    columns past a row's count are padding.  The views are overwritten
    by the next chunk, so a consumer reduces them before asking for it.

    Paths run in sub-batches of ``_BATCH`` on ``_lockstep``'s windows,
    each walked ``_CHUNK`` columns at a time; a window's rows are in
    order of their counts, longest first, so the paths in any chunk are
    a prefix of them.  The window buffers are reused, so memory grows
    with ``_BATCH * _BLOCK``.  A ``Constant1`` side keeps no buffer and
    draws nothing: its steps are the scalars +1 (up) and -1 (down).  The
    states are placed in the uniforms' buffer, each column once its
    uniforms are read.
    """
    phi = None if isinstance(rf.drift, Zero) else rf.drift.phi
    unit_up, unit_dn = isinstance(up_law, Constant1), isinstance(down_law, Constant1)

    def walk(rows, counts, t, z, a, d):
        # the rows' times are in t; place their first counts[i] events
        # in z, each column once its uniforms are read, and carry each
        # row's last
        steps = int(counts.max())
        t, z = t[:, :steps], z[:, :steps]
        a = 1.0 if a is None else a[:, :steps]
        d = -1.0 if d is None else np.negative(d[:, :steps], out=d[:, :steps])
        if phi is None:
            up = z < 0.5
            np.copyto(z, d)
            np.copyto(z, a, where=up)
            z[:, 0] += z_carry[rows]
            np.cumsum(z, axis=1, out=z)
        else:
            zs = z_carry[rows]
            ups = repeat(a) if unit_up else a.T
            dns = repeat(d) if unit_dn else d.T
            for tc, zc, ac, dc in zip(t.T, z.T, ups, dns):
                # the column's uniforms are read before its states replace them
                zs = np.add(zs, np.where(zc < 0.5 + phi(zs, tc), ac, dc), out=zc)
        z_carry[rows] = z[np.arange(rows.size), counts - 1]
        return rows + lo, t, z, counts

    for lo in range(0, len(seeds), _BATCH):
        batch = seeds[lo : lo + _BATCH]
        z_carry = np.full(len(batch), z0, dtype=float)
        for paths, t, u, marks, k in _lockstep(batch, (up_law, down_law), horizon, 1.0):
            for c0 in range(0, int(k[0]), _CHUNK):
                counts = np.minimum(k - c0, _CHUNK)
                m = int(np.count_nonzero(counts > 0))
                yield walk(paths[:m], counts[:m],
                           *(None if b is None else b[:m, c0 : c0 + _CHUNK] for b in (t, u, *marks)))


def simulate_compound_poisson(
    rate: Callable,
    rate_bound: float,
    law: JumpLaw,
    horizon: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One compound-Poisson path by thinning a rate-bound proposal clock
    (draw contract 5, see the module docstring).

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
    times, marks = [np.empty(0)], [np.empty(0)]
    for tb, u, (mb,) in _path_blocks((law,), horizon, 1.0 / rate_bound, seed):
        on = _accepted(rate, rate_bound, tb, u)
        times.append(tb[on])
        marks.append(mb[on])
    return np.concatenate(times), np.concatenate(marks)


def _accepted(rate: Callable, rate_bound: float, times: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The thinning of proposals up to the horizon: proposal i is
    accepted iff u_i * rate_bound <= rate(t_i).  Raises if ``rate``
    leaves [0, rate_bound] at a proposal time."""
    r = np.asarray(rate(times))
    ok = (r >= -1e-15) & (r <= rate_bound * (1.0 + 1e-12))  # NaN fails too
    if not ok.all():
        r, ok = np.broadcast_arrays(r, ok, times)[:2]
        i = int(np.argmin(ok))
        raise ValueError(f"rate(t)={float(r[i])} falls outside [0, rate_bound] at t={float(times[i])}")
    return u * rate_bound <= r


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
    path_seed(seed, i))`` with r the constant ``rate``, and its residuals
    are ``compensator_report``'s, bit for bit.  The paths are read off
    ``_lockstep``'s windows, in spans of at most ``_BATCH`` paths and
    about ``_BATCH * _CHUNK`` proposals, each priced by one
    ``_compensate`` call (see the module docstring).
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
    # paths priced by one _compensate call, their proposals capped so
    # that memory does not grow with rate * horizon
    width = max(1, min(_BATCH, _BATCH * _CHUNK // max(1, math.ceil(rate * horizon))))
    for lo in range(0, n_paths, width):
        seeds = path_seeds(seed, lo, min(lo + width, n_paths))
        # each path's events up to tau, window by window, with the path
        # they belong to; its next mark is the first accepted past tau
        times, marks, owner = [np.zeros(0)], [np.zeros(0)], [np.zeros(0, np.intp)]
        nxt = np.ones(seeds.size)
        seen = np.zeros(seeds.size, bool)
        for paths, t, u, (m,), k in _lockstep(seeds, (law,), horizon, 1.0 / rate):
            # rate is its own bound, so fl(u * rate) <= rate accepts every
            # proposal: a window's events are its first k columns
            valid = np.arange(t.shape[1]) < k[:, None]
            m = np.ones(t.shape) if m is None else m
            before = valid & (t <= tau)
            after = valid & ~before
            times.append(t[before])
            marks.append(m[before])
            owner.append(np.repeat(paths, np.count_nonzero(before, axis=1)))
            rows = np.arange(paths.size)
            first = np.argmax(after, axis=1)
            new = after[rows, first] & ~seen[paths]
            nxt[paths[new]] = m[rows[new], first[new]]
            seen[paths[new]] = True
        t = u = m = None  # the last window's buffers go before the pricing
        owner = np.concatenate(owner)
        # each path's events together, in time order: windows come in
        # time order, and a stable sort keeps it
        order = np.argsort(owner, kind="stable")
        raw, literal, ensemble = _compensate(
            intensity, tau, np.concatenate(times)[order], np.concatenate(marks)[order],
            np.bincount(owner, minlength=seeds.size), nxt,
        )
        lit[lo : lo + seeds.size] = raw - literal
        ens[lo : lo + seeds.size] = raw - ensemble
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
    a loop over ``simulate_walk(..., path_seed(seed, i))`` bit for bit.
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
    ``_ROWS`` at a time from the block's plain Python values, so a
    consumer that writes each piece holds one piece's values and text at
    a time.  ``row`` is a function rather than a ``str.format``
    template, which is parsed again for every row: on a 2e5-row path
    (Python 3.11) that took about 15% more time than an f-string."""
    yield header
    for cols in blocks:
        for lo in range(0, len(cols[0]), _ROWS):
            yield "".join(map(row, *(c[lo : lo + _ROWS].tolist() for c in cols)))


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
