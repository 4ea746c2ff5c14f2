"""Drift fields, rate fields, and jump-size laws of the walk model.

The walk moves by positive up-jumps and negative down-jumps whose
instantaneous rates are tied to a single scalar drift field phi:

    lambda(x, t) = 1/2 + phi(x, t)      up-jump rate
    mu(x, t)     = 1/2 - phi(x, t)      down-jump rate

so the total event rate is identically 1 and phi carries all state and
time dependence.  In-scope fields are nonnegative, non-increasing in t,
and clipped into [0, 1/2] so mu never goes negative (on the clip
boundary mu is exactly 0); the signed mean-reverting family is a
diagnostics-only extension (clipped symmetrically) that the recurrence
classifier refuses.

Space is regularized near the origin: fields evaluate at
max(|x|, x_floor) and extend to x < 0 through |x|, which keeps the
1/x-type families bounded without changing their tails.

No time is fixed here: the event loops read a field at each event's
time, and the classifier's birth-death chain reads it where the walk
typically is, at the parabolic time t = max(x^2, 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "PHI_MAX",
    "DEFAULT_X_FLOOR",
    "DriftField",
    "Zero",
    "CriticalLamperti",
    "PowerLaw",
    "MeanReverting",
    "Tabulated",
    "RateField",
    "JumpLaw",
    "Constant1",
    "ExponentialMean1",
    "GammaMean1",
    "UniformMean1",
]

PHI_MAX = 0.5
DEFAULT_X_FLOOR = 1.0

ArrayLike = Union[float, np.ndarray]

ScalarPhi = Callable[[float, float], float]


def _reg_abs(x: np.ndarray, x_floor: float) -> np.ndarray:
    return np.maximum(np.abs(x), x_floor)


# np.clip's own ufunc: np.clip reaches it through two Python wrappers,
# which cost about 3.7 us a call against its 1.2 us at 400 lanes, for the
# same bits.  numpy < 2 keeps it under np.core.
_CLIP = (np._core if hasattr(np, "_core") else np.core).umath.clip


def _power_range(p: float) -> tuple[float, float]:
    """The open interval of y > 0 on which y**p lies within e^(+-700),
    clear of overflow and of subnormal results."""
    if p == 0.0:
        return 0.0, math.inf
    lim = 700.0 / abs(p)
    return math.exp(-lim), (math.exp(lim) if lim < 709.0 else math.inf)


def _bound(m: float) -> float:
    """A bound on |phi| with the slack for the family's own rounding,
    capped at the clip ceiling that every family's phi respects."""
    return min(PHI_MAX, m * (1.0 + 1e-9))


class DriftField:
    """Base class for drift fields.

    Subclasses provide their arithmetic as ``_formula(x, t)`` on float64
    arrays of one shape, and a scalar fast path ``scalar_phi()`` returning
    a plain-float closure for event loops that agrees with ``phi`` bit for
    bit.  ``signed`` marks families whose phi may go negative.
    """

    signed: bool = False
    x_floor: float

    def phi(self, x: ArrayLike, t: ArrayLike) -> ArrayLike:
        """phi at x and t broadcast together: a float for 0-d input, else
        a fresh float64 array, clipped into [0, 1/2] ([-1/2, 1/2] when
        ``signed``)."""
        x = np.asarray(x, float)
        t = np.asarray(t, float)
        if x.shape != t.shape:
            x, t = np.broadcast_arrays(x, t)
        v = _CLIP(self._formula(x, t), -PHI_MAX if self.signed else 0.0, PHI_MAX)
        return v if v.ndim else float(v)

    def _formula(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scalar_phi(self) -> ScalarPhi:
        raise NotImplementedError

    def phi_bound(self, t: float) -> float:
        """A float M with |phi(x, s)| <= M for every x and every s >= t,
        for ``phi`` and ``scalar_phi`` as computed, not only as written.

        Families bound their formula and add a relative slack of 1e-9
        for their own rounding (a few ulp); every bound is at most
        ``PHI_MAX``, which the clip guarantees.  The event loop uses it
        to settle a direction without calling phi: a uniform u is an
        up-step if u < 0.5 - M and a down-step if u >= 0.5 + M, because
        rounding is monotone, so |p| <= M gives fl(0.5 - M) <=
        fl(0.5 + p) <= fl(0.5 + M).
        """
        return PHI_MAX


@dataclass(frozen=True)
class Zero(DriftField):
    """The driftless field, phi identically 0."""

    x_floor: float = DEFAULT_X_FLOOR

    def __post_init__(self) -> None:
        if not self.x_floor > 0:  # written so that NaN fails too
            raise ValueError("x_floor must be positive")

    def _formula(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.zeros(x.shape)

    def scalar_phi(self) -> ScalarPhi:
        return lambda x, t: 0.0

    def phi_bound(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class CriticalLamperti(DriftField):
    """phi(x, t) = c / (4 max(|x|, x_floor)), independent of t.

    Along the parabolic scale t = x^2 this family sits exactly on the
    recurrence/transience boundary: c < 1 recurrent, c > 1 transient.
    """

    c: float
    x_floor: float = DEFAULT_X_FLOOR

    def __post_init__(self) -> None:
        if not self.c >= 0:
            raise ValueError("c must be nonnegative")
        if not self.x_floor > 0:
            raise ValueError("x_floor must be positive")

    def _formula(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        # dividing c by 4 is exact (short of subnormal c), so this is
        # c / (4 ax) without 4 ax overflowing past DBL_MAX/4: the scalar
        # closure's c4 / ax
        return (self.c / 4.0) / _reg_abs(x, self.x_floor)

    def scalar_phi(self) -> ScalarPhi:
        c4 = self.c / 4.0
        fl = self.x_floor
        hi = PHI_MAX

        def f(x: float, t: float) -> float:
            ax = x if x >= 0.0 else -x
            if ax < fl:
                ax = fl
            v = c4 / ax
            return hi if v > hi else v

        return f

    def phi_bound(self, t: float) -> float:
        return _bound(self.c / (4.0 * self.x_floor))  # the value at |x| <= x_floor


@dataclass(frozen=True)
class PowerLaw(DriftField):
    """phi(x, t) = rho * max(|x|, x_floor)^alpha * t^(-beta).

    With alpha = 2*beta - 1 this is the critical-window family: along
    t = x^2 it collapses to rho / x.  t = 0 evaluates at the clip
    ceiling (the unclipped value diverges there for beta > 0), and so
    does a point where one power is infinite and the other 0.
    """

    rho: float
    alpha: float
    beta: float
    x_floor: float = DEFAULT_X_FLOOR

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if math.isnan(self.alpha):
            raise ValueError("alpha must not be NaN")
        if not self.beta >= 0:
            raise ValueError("beta must be nonnegative")
        if not self.x_floor > 0:
            raise ValueError("x_floor must be positive")

    def _formula(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.rho * np.power(_reg_abs(x, self.x_floor), self.alpha)
            if self.beta != 0.0:
                pos = t > 0.0
                v = v * np.where(pos, np.power(np.where(pos, t, 1.0), -self.beta), np.inf)
        # 0 * inf gives NaN; it is the ceiling there (NaN only for NaN x)
        return np.where(np.isnan(v) & (x == x), np.inf, v)

    def scalar_phi(self) -> ScalarPhi:
        # numpy's power on plain floats, the loop ``_formula`` runs (libm's
        # pow, behind **, rounds differently); ``phi`` itself where a power
        # could leave the normal range and warn, or t <= 0.
        rho, alpha, beta = self.rho, self.alpha, self.beta
        fl = self.x_floor
        hi = PHI_MAX
        power = np.power
        phi = self.phi
        a_lo, a_hi = _power_range(alpha)
        t_lo, t_hi = _power_range(beta) if beta != 0.0 else (-math.inf, math.inf)

        def f(x: float, t: float) -> float:
            ax = x if x >= 0.0 else -x
            if ax < fl:
                ax = fl
            if not (a_lo < ax < a_hi and t_lo < t < t_hi):
                return phi(x, t)
            v = rho * float(power(ax, alpha))
            if beta != 0.0:
                v *= float(power(t, -beta))
            return hi if v > hi else v

        return f

    def phi_bound(self, t: float) -> float:
        # alpha > 0 grows without bound in |x|; beta > 0 diverges at t = 0
        if self.alpha > 0.0 or (self.beta > 0.0 and t <= 0.0):
            return PHI_MAX
        try:
            # the largest |x| factor is at x_floor, the largest t factor at t
            m = self.rho * self.x_floor**self.alpha * t**-self.beta
        except OverflowError:
            return PHI_MAX
        return _bound(m)


@dataclass(frozen=True)
class MeanReverting(DriftField):
    """Signed field pulling toward the origin:

        phi(x, t) = -(kappa/2) * sign(x) * min(1/2, |x| / x_floor)

    Positive x gets negative drift and vice versa, so the walk is
    ergodic for kappa > 0.  Diagnostics-only: the tail classifier
    rejects signed fields.
    """

    signed = True

    kappa: float
    x_floor: float = DEFAULT_X_FLOOR

    def __post_init__(self) -> None:
        if not self.kappa >= 0:
            raise ValueError("kappa must be nonnegative")
        if not self.x_floor > 0:
            raise ValueError("x_floor must be positive")

    def _formula(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        # |x| capped at x_floor leaves min(1/2, |x|/x_floor) as it is and
        # keeps the quotient from overflowing when x_floor is tiny
        m = np.minimum(0.5, np.minimum(np.abs(x), self.x_floor) / self.x_floor)
        return -0.5 * self.kappa * np.sign(x) * m

    def scalar_phi(self) -> ScalarPhi:
        half_k = 0.5 * self.kappa
        fl = self.x_floor
        hi = PHI_MAX

        def f(x: float, t: float) -> float:
            if x == 0.0:
                return -0.0  # phi's sign bit there: -(kappa/2) * sign(0) * 0
            ax = x if x > 0.0 else -x
            m = ax / fl
            if m > 0.5:
                m = 0.5
            v = half_k * m
            if v > hi:
                v = hi
            return -v if x > 0.0 else v

        return f

    def phi_bound(self, t: float) -> float:
        return _bound(0.25 * self.kappa)  # (kappa/2) * 1/2 once |x| >= x_floor/2


@dataclass(frozen=True, eq=False)
class Tabulated(DriftField):
    """Bilinear interpolation of phi samples on a rectangular grid.

    ``values[i, j]`` is phi at (x_grid[i], t_grid[j]).  Queries are
    taken at max(|x|, x_floor) and clamped to the grid edges, so the
    field is constant beyond the tabulated range.  Construction rejects
    tables that are negative anywhere or increasing along t.
    """

    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray
    x_floor: float = DEFAULT_X_FLOOR

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_grid", np.asarray(self.x_grid, float))
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, float))
        object.__setattr__(self, "values", np.asarray(self.values, float))
        if not self.x_floor > 0:
            raise ValueError("x_floor must be positive")
        for name in ("x_grid", "t_grid", "values"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.x_grid.ndim != 1 or self.x_grid.size < 2:
            raise ValueError("x_grid must be 1-d with at least 2 points")
        if self.t_grid.ndim != 1 or self.t_grid.size < 2:
            raise ValueError("t_grid must be 1-d with at least 2 points")
        if np.any(np.diff(self.x_grid) <= 0) or np.any(self.x_grid < 0):
            raise ValueError("x_grid must be nonnegative and strictly increasing")
        if np.any(np.diff(self.t_grid) <= 0) or np.any(self.t_grid < 0):
            raise ValueError("t_grid must be nonnegative and strictly increasing")
        if self.values.shape != (self.x_grid.size, self.t_grid.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.x_grid.size}, {self.t_grid.size})"
            )
        if np.any(self.values < 0):
            raise ValueError("tabulated phi must be nonnegative")
        if np.any(np.diff(self.values, axis=1) > 1e-12):
            raise ValueError("tabulated phi must be non-increasing along t")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tabulated):
            return NotImplemented
        return (
            self.x_floor == other.x_floor
            and np.array_equal(self.x_grid, other.x_grid)
            and np.array_equal(self.t_grid, other.t_grid)
            and np.array_equal(self.values, other.values)
        )

    def _formula(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        qx = np.clip(_reg_abs(x, self.x_floor), self.x_grid[0], self.x_grid[-1])
        qt = np.clip(t, self.t_grid[0], self.t_grid[-1])
        ix = np.clip(np.searchsorted(self.x_grid, qx, side="right") - 1, 0, self.x_grid.size - 2)
        it = np.clip(np.searchsorted(self.t_grid, qt, side="right") - 1, 0, self.t_grid.size - 2)
        x0, x1 = self.x_grid[ix], self.x_grid[ix + 1]
        t0, t1 = self.t_grid[it], self.t_grid[it + 1]
        wx = (qx - x0) / (x1 - x0)
        wt = (qt - t0) / (t1 - t0)
        return (
            self.values[ix, it] * (1 - wx) * (1 - wt)
            + self.values[ix + 1, it] * wx * (1 - wt)
            + self.values[ix, it + 1] * (1 - wx) * wt
            + self.values[ix + 1, it + 1] * wx * wt
        )

    def scalar_phi(self) -> ScalarPhi:
        # Same floor, clamps, cell lookup and left-to-right four-term sum
        # as ``phi``, in plain floats, so both agree bit for bit.
        xs = self.x_grid.tolist()
        ts = self.t_grid.tolist()
        vs = self.values.tolist()
        x_lo, x_hi, ix_max = xs[0], xs[-1], len(xs) - 2
        t_lo, t_hi, it_max = ts[0], ts[-1], len(ts) - 2
        fl = self.x_floor
        hi = PHI_MAX

        def f(x: float, t: float) -> float:
            qx = x if x >= 0.0 else -x
            if qx < fl:
                qx = fl
            qx = x_lo if qx < x_lo else (x_hi if qx > x_hi else qx)
            qt = t_lo if t < t_lo else (t_hi if t > t_hi else t)
            ix = bisect_right(xs, qx) - 1
            ix = 0 if ix < 0 else (ix_max if ix > ix_max else ix)
            it = bisect_right(ts, qt) - 1
            it = 0 if it < 0 else (it_max if it > it_max else it)
            x0 = xs[ix]
            t0 = ts[it]
            wx = (qx - x0) / (xs[ix + 1] - x0)
            wt = (qt - t0) / (ts[it + 1] - t0)
            row0 = vs[ix]
            row1 = vs[ix + 1]
            v = (
                row0[it] * (1 - wx) * (1 - wt)
                + row1[it] * wx * (1 - wt)
                + row0[it + 1] * (1 - wx) * wt
                + row1[it + 1] * wx * wt
            )
            return 0.0 if v < 0.0 else (hi if v > hi else v)

        return f

    def phi_bound(self, t: float) -> float:
        # bilinear weights lie in [0, 1], so phi is a convex combination
        return _bound(float(self.values.max()))


@dataclass(frozen=True)
class RateField:
    """Pairs a drift field with the jump-rate map
    lambda = 1/2 + phi, mu = 1 - lambda."""

    drift: DriftField

    def rates(self, x: ArrayLike, t: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        lam = 0.5 + self.drift.phi(x, t)
        return lam, 1.0 - lam


class JumpLaw:
    """Positive jump sizes with mean exactly 1 and finite variance."""

    variance: float

    def sample_block(
        self, rng: np.random.Generator, n: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """n marks, drawn into ``out`` (a float64 array of n entries) when
        it is given, which is returned; the values and the words drawn
        are the same either way: ``_draw``, then ``_finish``."""
        v = np.empty(n) if out is None else out
        self._draw(rng, v)
        self._finish(v)
        return v

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` from ``rng``, using up every random word of the
        block.  numpy checks a size passed beside ``out`` at about twice
        the cost of the draw of a short row, so laws pass ``out`` alone."""
        raise NotImplementedError

    def _finish(self, v: np.ndarray, where: np.ndarray | bool = True) -> None:
        """Turn the ``_draw`` values of ``v`` where ``where`` holds into
        marks, in place and elementwise, so that many rows drawn one by
        one can be finished by one call; each drawn entry must be
        finished exactly once.  Nothing to do by default."""


@dataclass(frozen=True)
class Constant1(JumpLaw):
    """Unit jumps; the walk lives on the integer lattice."""

    variance = 0.0

    def _draw(self, rng, out):
        out.fill(1.0)


@dataclass(frozen=True)
class ExponentialMean1(JumpLaw):
    variance = 1.0

    def _draw(self, rng, out):
        rng.standard_exponential(out=out)


@dataclass(frozen=True)
class GammaMean1(JumpLaw):
    """Gamma(k, 1/k): mean 1, variance 1/k."""

    k: float

    def __post_init__(self) -> None:
        if not self.k > 0:  # written so that NaN fails too
            raise ValueError("shape k must be positive")

    @property
    def variance(self) -> float:  # type: ignore[override]
        return 1.0 / self.k

    # numpy's gamma(k, scale) is scale * standard_gamma(k); calling the
    # standard form skips its argument checks and gives the same values.
    def _draw(self, rng, out):
        rng.standard_gamma(self.k, out=out)

    def _finish(self, v, where=True):
        np.multiply(v, 1.0 / self.k, out=v, where=where)


@dataclass(frozen=True)
class UniformMean1(JumpLaw):
    """Uniform on [1 - d, 1 + d] with 0 <= d < 1, variance d^2/3."""

    d: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.d < 1.0:
            raise ValueError("half-width d must satisfy 0 <= d < 1")

    @property
    def variance(self) -> float:  # type: ignore[override]
        return self.d * self.d / 3.0

    # numpy's uniform(lo, hi) is lo + (hi - lo) * random(), one rounding
    # per operation, so the in-place form gives the same values.
    def _draw(self, rng, out):
        rng.random(out=out)

    def _finish(self, v, where=True):
        lo = 1.0 - self.d
        np.multiply(v, (1.0 + self.d) - lo, out=v, where=where)
        np.add(v, lo, out=v, where=where)
