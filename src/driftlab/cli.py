"""Config-driven command line.

One YAML config file drives every run.  Common keys pick the drift
field, jump laws, seed, and output destination; a per-command section
holds the command's own parameters.  Commands:

* ``classify``    tail classification of the configured field (or the
                  closed-form critical-window family in mv_critical mode)
* ``simulate``    one trajectory, written as CSV or JSON
* ``bd-oracle``   discretize to a chain (or build a synthetic ratio
                  family) and run the ratio/series criteria
* ``experiment``  band-return recurrence ensemble, CSV rows or JSON report
* ``check``       diagnostics: martingale residuals, the second-moment
                  bound, or occupancy-vs-balance

Exit codes: 0 success, 1 strict-mode Inconclusive (or failed check),
2 usage/config errors, 3 I/O failures.  Every output is streamed, block
by block, into a temp file that is renamed over the target once it is
complete, and is byte-identical for identical (config, seed) pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import json
import math
import os
import stat
import sys
import tempfile
import dataclasses
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple, Optional

import numpy as np
import yaml

from . import __version__
from .classifier import (
    Verdict,
    bd_series_criterion,
    classify_bd_bilateral,
    classify_mv_critical,
    classify_theorem1,
    discretize_to_bd,
    ratio_family_chain,
    ratio_test,
)
from .experiments import (
    RecurrenceExperiment,
    _experiment_csv,
    balance_residual,
    estimate_occupancy,
    run_recurrence_experiment,
    solve_balance_window,
)
from . import fields
from .fields import DriftField, JumpLaw, RateField
from .simulator import (
    _BLOCK,
    _csv,
    _trajectory_csv,
    _walk_blocks,
    martingale_check,
    simulate_walk,
    wald_second_moment_check,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Invalid config content; the message carries the dotted key path."""


_REQUIRED = object()


class _Sect:
    """One config mapping plus its dotted path, with typed extraction."""

    def __init__(self, data: Any, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected a mapping")
        self.data = dict(data)
        self.path = path

    def _full(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def sub(self, key: str) -> "_Sect":
        return _Sect(self.data.pop(key, None), self._full(key))

    def take(
        self,
        key: str,
        kind: str,
        default: Any = _REQUIRED,
        choices: Optional[tuple] = None,
        lo: Any = None,
        allow_none: bool = False,
    ) -> Any:
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError(f"{self._full(key)}: required key missing")
            return default
        v = self.data.pop(key)
        path = self._full(key)
        if v is None:
            if allow_none:
                return None
            raise ConfigError(f"{path}: must not be null")
        if kind == "bool":
            if not isinstance(v, bool):
                raise ConfigError(f"{path}: expected a boolean, got {v!r}")
        elif kind == "int":
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{path}: expected an integer, got {v!r}")
        elif kind == "float":
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{path}: expected a number, got {v!r}")
            v = float(v)
            if not math.isfinite(v):
                raise ConfigError(f"{path}: must be finite, got {v!r}")
        elif kind == "str":
            if not isinstance(v, str):
                raise ConfigError(f"{path}: expected a string, got {v!r}")
        elif kind == "array":
            if not isinstance(v, list):
                raise ConfigError(f"{path}: expected a list")
            try:
                v = np.asarray(v, float)
            except (ValueError, TypeError) as e:  # ragged or non-numeric
                raise ConfigError(f"{path}: {e}") from e
        else:  # pragma: no cover - internal misuse
            raise AssertionError(f"unknown kind {kind}")
        if choices is not None and v not in choices:
            raise ConfigError(f"{path}: must be one of {sorted(choices)}, got {v!r}")
        if lo is not None and v < lo:
            raise ConfigError(f"{path}: must be >= {lo}")
        return v

    def done(self) -> None:
        if self.data:
            keys = ", ".join(sorted(map(str, self.data)))
            raise ConfigError(f"{self.path or 'config'}: unknown key(s): {keys}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully validated run description with every default resolved."""

    command: str
    seed: int
    strict: bool
    workers: int
    field: DriftField
    up_law: JumpLaw
    down_law: JumpLaw
    output_path: Optional[str]
    output_format: str
    params: dict
    effective: dict


# Each family's config keys are its dataclass fields: a field with no
# default is required, array fields are read as float arrays, the rest as
# numbers.
_FIELD_FAMILIES: dict[str, type] = {
    "zero": fields.Zero,
    "critical_lamperti": fields.CriticalLamperti,
    "power_law": fields.PowerLaw,
    "mean_reverting": fields.MeanReverting,
    "tabulated": fields.Tabulated,
}
_JUMP_LAWS: dict[str, type] = {
    "constant1": fields.Constant1,
    "exponential_mean1": fields.ExponentialMean1,
    "gamma_mean1": fields.GammaMean1,
    "uniform_mean1": fields.UniformMean1,
}


def _build(s: _Sect, table: dict[str, type], default: str) -> Any:
    """The ``family`` row of ``table``, built from the section's keys."""
    cls = table[s.take("family", "str", default=default, choices=tuple(table))]
    kwargs = {
        f.name: s.take(
            f.name,
            "array" if f.type in ("np.ndarray", np.ndarray) else "float",
            default=_REQUIRED if f.default is dataclasses.MISSING else f.default,
        )
        for f in dataclasses.fields(cls)
    }
    try:
        out = cls(**kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{s.path}: {e}") from e
    s.done()
    return out


def _mapping(obj: Any, table: dict[str, type]) -> dict:
    """The config section that ``_build`` turns back into ``obj``."""
    m: dict[str, Any] = {"family": next(k for k, cls in table.items() if type(obj) is cls)}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        m[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    return m


def _params_classify(s: _Sect) -> dict:
    mode = s.take("mode", "str", default="theorem1", choices=("theorem1", "mv_critical"))
    x0 = s.take("x0", "float", default=2.0)
    x_max = s.take("x_max", "float", default=1e4)
    grid = s.take("grid", "int", default=512, lo=100)
    rho = s.take("rho", "float", default=None, allow_none=True)
    beta = s.take("beta", "float", default=None, allow_none=True)
    s.done()
    if x0 <= 0:
        raise ConfigError("classify.x0: must be positive")
    if x_max <= x0:
        raise ConfigError("classify.x_max: must exceed x0")
    if mode == "mv_critical" and (rho is None or beta is None):
        raise ConfigError("classify: mode mv_critical requires rho and beta")
    p = {"mode": mode, "x0": x0, "x_max": x_max, "grid": grid}
    if rho is not None:
        p["rho"] = rho
    if beta is not None:
        p["beta"] = beta
    return p


def _params_simulate(s: _Sect) -> dict:
    horizon = s.take("horizon", "float", lo=0.0)
    z0 = s.take("z0", "float", default=0.0)
    s.done()
    return {"horizon": horizon, "z0": z0}


def _params_bd_oracle(s: _Sect) -> dict:
    source = s.take("source", "str", default="field", choices=("field", "ratio"))
    c = s.take("c", "float", default=None, allow_none=True)
    n_min = s.take("n_min", "int", default=2)
    n_max = s.take("n_max", "int", default=10000)
    n0 = s.take("n0", "int", default=None, allow_none=True)
    q = s.take("quadrature_points", "int", default=8, lo=1)
    tail = s.take("tail_extension", "int", default=0, lo=0)
    criterion = s.take("criterion", "str", default="both", choices=("ratio", "series", "both"))
    bilateral = s.take("bilateral", "bool", default=False)
    s.done()
    if n_min > n_max:
        raise ConfigError("bd-oracle.n_min: must not exceed n_max")
    if source == "ratio":
        if c is None:
            raise ConfigError("bd-oracle.c: required when source is 'ratio'")
        if n_min < 1:
            raise ConfigError("bd-oracle.n_min: ratio source needs n_min >= 1")
    if n0 is None:
        n0 = max(1, n_min)
    if not n_min <= n0 <= n_max:
        raise ConfigError("bd-oracle.n0: must lie within [n_min, n_max]")
    if bilateral and n_min > -n0:
        raise ConfigError("bd-oracle.bilateral: window must span both tails (n_min <= -n0)")
    p = {
        "source": source,
        "n_min": n_min,
        "n_max": n_max,
        "n0": n0,
        "quadrature_points": q,
        "tail_extension": tail,
        "criterion": criterion,
        "bilateral": bilateral,
    }
    if c is not None:
        p["c"] = c
    return p


def _params_experiment(s: _Sect) -> dict:
    p = {
        "n_paths": s.take("n_paths", "int", lo=1),
        "horizon": s.take("horizon", "float", lo=0.0),
        "level": s.take("level", "float"),
        "band": s.take("band", "float", default=1.0),
        "z0": s.take("z0", "float", default=0.0),
    }
    s.done()
    if not p["level"] > p["band"] > 0:
        raise ConfigError("experiment: need level > band > 0")
    return p


def _params_check(s: _Sect) -> dict:
    kind = s.take("kind", "str", choices=tuple(_CHECKS))
    if kind == "martingale":
        p = {
            "kind": kind,
            "rate": s.take("rate", "float", default=0.5),
            "tau": s.take("tau", "float", default=8.0, lo=0.0),
            "horizon": s.take("horizon", "float", default=12.0, lo=0.0),
            "n_paths": s.take("n_paths", "int", default=10000, lo=100),
        }
        if p["rate"] <= 0:
            raise ConfigError("check.rate: must be positive")
        if p["horizon"] < p["tau"]:
            raise ConfigError("check.horizon: must be at least tau")
    elif kind == "wald":
        p = {
            "kind": kind,
            "sigma": s.take("sigma", "float", default=1.0, lo=0.0),
            "n_paths": s.take("n_paths", "int", default=10000, lo=100),
            "z0": s.take("z0", "float", default=0.0),
        }
    else:
        p = {
            "kind": kind,
            "total_time": s.take("total_time", "float", default=1e5, lo=0.0),
            "window_min": s.take("window_min", "int", default=-10),
            "window_max": s.take("window_max", "int", default=10),
            "quadrature_points": s.take("quadrature_points", "int", default=8, lo=1),
            "compare_exact": s.take("compare_exact", "bool", default=True),
        }
        if p["window_max"] - p["window_min"] < 2:
            raise ConfigError("check.window_max: window needs at least 3 cells")
    s.done()
    return p


def _validate(raw: Any) -> RunConfig:
    top = _Sect(raw, "")
    command = top.take("command", "str", choices=tuple(_COMMANDS))
    seed = top.take("seed", "int", default=None, allow_none=True)
    source = ""
    if seed is None:
        env = os.environ.get("DRIFTLAB_SEED")
        if env is None:
            seed = 0
        else:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"DRIFTLAB_SEED must be an integer, got {env!r}") from None
            source = " (from DRIFTLAB_SEED)"
    if not 0 <= seed < 2**64:  # numpy takes no wider seed; path_seed would wrap it
        raise ConfigError(f"seed: must lie in [0, 2**64), got {seed}{source}")
    strict = top.take("strict", "bool", default=False)
    workers = top.take("workers", "int", default=0, lo=0)

    field = _build(top.sub("field"), _FIELD_FAMILIES, "zero")

    jsect = top.sub("jumps")
    up_law = _build(jsect.sub("up"), _JUMP_LAWS, "constant1")
    down_law = _build(jsect.sub("down"), _JUMP_LAWS, "constant1")
    jsect.done()

    osect = top.sub("output")
    out_path = osect.take("path", "str", default=None, allow_none=True)
    fmt = osect.take("format", "str", default=None, choices=("json", "csv"), allow_none=True)
    osect.done()
    spec = _COMMANDS[command]
    if fmt is None:
        fmt = spec.formats[0]
    if fmt not in spec.formats:
        raise ConfigError(f"output.format: {fmt} is not available for '{command}'")

    params = spec.params(top.sub(command))
    for other in _COMMANDS:
        top.data.pop(other, None)  # sections for other commands are ignored
    top.done()

    effective = {
        "command": command,
        "seed": seed,
        "strict": strict,
        "workers": workers,
        "field": _mapping(field, _FIELD_FAMILIES),
        "jumps": {"up": _mapping(up_law, _JUMP_LAWS), "down": _mapping(down_law, _JUMP_LAWS)},
        "output": {"path": out_path, "format": fmt},
        command: dict(params),
    }
    return RunConfig(
        command=command,
        seed=seed,
        strict=strict,
        workers=workers,
        field=field,
        up_law=up_law,
        down_law=down_law,
        output_path=out_path,
        output_format=fmt,
        params=params,
        effective=effective,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate YAML config text.

    Raises ConfigError with a dotted key path (or the YAML parser's
    line/column) on any problem.  Defaults are resolved here;
    ``RunConfig.effective`` re-serializes to an equivalent config.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    return _validate(raw)


def _sanitize(v: Any) -> Any:
    if isinstance(v, dict):
        return {str(k): _sanitize(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_sanitize(x) for x in v]
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, np.ndarray):
        if v.dtype.kind == "f" and np.isfinite(v).all():
            # no NaN or inf to map: a 1-d array is left for _record_chunks
            # to stream, and one tolist() writes the same JSON for the rest
            return v if v.ndim == 1 and v.size else v.tolist()
        return [_sanitize(x) for x in v.tolist()]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        v = float(v)
    if isinstance(v, float):
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
    return v


_SLOT = "\0array\0"  # stands in the record's skeleton for an array written apart


def _record_chunks(rc: RunConfig, result: dict) -> Iterator[str]:
    """The JSON record of ``result``, piece by piece, as
    ``json.dumps(_sanitize(record), indent=2, sort_keys=True)`` writes it.

    The skeleton is that dumps with a slot for each array ``_sanitize``
    leaves (1-d, all finite, float).  Each array is written in its slot
    ``_BLOCK`` values at a time, one ``float.__repr__`` per value, as
    json writes a float, one per line at the slot's indent plus 2."""
    record = {
        "tool": "driftlab",
        "version": __version__,
        "command": rc.command,
        "seed": rc.seed,
        "config": rc.effective,
        "result": result,
    }
    arrays: list[np.ndarray] = []

    def slot(a: Any) -> str:
        if not isinstance(a, np.ndarray):
            return json.JSONEncoder().default(a)  # raises json's TypeError
        arrays.append(a)
        return _SLOT

    clean = _sanitize(record)
    parts = json.dumps(clean, indent=2, sort_keys=True, default=slot).split(json.dumps(_SLOT))
    if len(parts) != len(arrays) + 1:  # a string of the record reads as a slot
        parts, arrays = [json.dumps(clean, indent=2, sort_keys=True, default=np.ndarray.tolist)], []
    for head, a in zip(parts, arrays):
        line = head[head.rfind("\n") + 1 :]
        outer = "\n" + line[: len(line) - len(line.lstrip(" "))]
        inner = outer + "  "
        yield head
        sep = "[" + inner
        for lo in range(0, a.size, _BLOCK):
            yield sep + ("," + inner).join(map(float.__repr__, a[lo : lo + _BLOCK].tolist()))
            sep = "," + inner
        yield outer + "]"
    yield parts[-1] + "\n"


def _record_json(rc: RunConfig, result: dict) -> str:
    """``_record_chunks``' record as one string."""
    return "".join(_record_chunks(rc, result))


def _fmt_num(v: float) -> str:
    return f"{v:.6g}"


def _fmt_c(v: float) -> str:
    return f"{v:.3f}" if math.isfinite(v) else str(v)


# A command is a generator: it yields its output's text piece by piece
# and returns its exit code and summary line.
_Output = Generator[str, None, tuple[int, str]]


def _cmd_classify(rc: RunConfig) -> _Output:
    p = rc.params
    if p["mode"] == "mv_critical":
        cls = classify_mv_critical(p["rho"], p["beta"], p["x0"], p["x_max"], p["grid"])
    else:
        cls = classify_theorem1(rc.field, p["x0"], p["x_max"], p["grid"])
    result = {**cls.to_record(), "evidence": cls.evidence}
    summary = (
        f"verdict={cls.verdict.value} c_estimate={_fmt_c(cls.c_estimate)} "
        f"method={cls.method} window=[{cls.window[0]:g},{cls.window[1]:g}]"
    )
    yield from _record_chunks(rc, result)
    return (1 if rc.strict and cls.verdict is Verdict.INCONCLUSIVE else 0), summary


def _cmd_simulate(rc: RunConfig) -> _Output:
    p = rc.params
    rf = RateField(rc.field)
    if rc.output_format == "json":
        traj = simulate_walk(rf, rc.up_law, rc.down_law, p["horizon"], rc.seed, p["z0"])
        n, final_z = traj.n_events, traj.final_z
        yield from _record_chunks(
            rc,
            {
                "n_events": n,
                "final_z": final_z,
                "times": traj.times,
                "jumps": traj.jumps,
                "z": traj.z_after,
            },
        )
    else:
        # each block's rows are written as the block is drawn, so neither
        # the path nor its text is ever held whole; with no output path
        # nothing is rendered
        n, final_z = 0, p["z0"]
        blocks = _walk_blocks(rf, rc.up_law, rc.down_law, p["horizon"], rc.seed, p["z0"])

        def tally() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
            nonlocal n, final_z
            for block in blocks:
                n += block[0].size
                final_z = float(block[2][-1])
                yield block

        if rc.output_path is None:
            for _ in tally():
                pass
        else:
            yield from _trajectory_csv(tally())
    summary = f"events={n} final_z={_fmt_num(final_z)} horizon={p['horizon']:g} seed={rc.seed}"
    return 0, summary


def _cmd_bd_oracle(rc: RunConfig) -> _Output:
    p = rc.params
    if p["source"] == "ratio":
        chain = ratio_family_chain(p["c"], p["n_min"], p["n_max"])
    else:
        chain = discretize_to_bd(
            RateField(rc.field), p["n_min"], p["n_max"], p["quadrature_points"]
        )

    wanted = ("ratio", "series") if p["criterion"] == "both" else (p["criterion"],)
    results: dict[str, Any] = {}
    for crit in wanted:
        if p["bilateral"]:
            cls = classify_bd_bilateral(chain, p["n0"], crit, p["tail_extension"])
        elif crit == "ratio":
            cls = ratio_test(chain, p["n0"])
        else:
            cls = bd_series_criterion(chain, p["n0"], p["tail_extension"])
        results[crit] = {**cls.to_record(), "evidence": cls.evidence}

    if rc.output_format == "csv":
        yield from _csv(
            "n,lambda_star,mu_star\n",
            lambda n, a, b: f"{n},{a!r},{b!r}\n",
            [(chain.sites, chain.lam, chain.mu)],
        )
    else:
        yield from _record_chunks(rc, {"chain_window": [chain.n_min, chain.n_max], **results})

    bits = [f"{k}={v['verdict']}({_fmt_c(v['c_estimate'])})" for k, v in results.items()]
    inconclusive = any(v["verdict"] == Verdict.INCONCLUSIVE.value for v in results.values())
    return (1 if rc.strict and inconclusive else 0), " ".join(bits)


def _cmd_experiment(rc: RunConfig) -> _Output:
    p = rc.params
    exp = RecurrenceExperiment(
        rate_field=RateField(rc.field),
        up_law=rc.up_law,
        down_law=rc.down_law,
        n_paths=p["n_paths"],
        horizon=p["horizon"],
        level=p["level"],
        band=p["band"],
        seed=rc.seed,
        z0=p["z0"],
        workers=rc.workers,
    )
    report = run_recurrence_experiment(exp)
    if rc.output_format == "csv":
        yield from _experiment_csv(report)
    else:
        # runtime is left out of the file so identical runs stay byte-identical
        rec = report.to_record()
        rec.pop("runtime_seconds", None)
        yield from _record_chunks(rc, rec)
    lo, hi = report.returned_ci
    summary = (
        f"paths={report.n_paths} reached={_fmt_num(report.reached_fraction)} "
        f"returned={_fmt_num(report.returned_fraction)} "
        f"ci=[{_fmt_num(lo)},{_fmt_num(hi)}] "
        f"runtime={report.runtime_seconds:.3g}s"
    )
    return 0, summary


def _cmd_check(rc: RunConfig) -> _Output:
    return _CHECKS[rc.params["kind"]](rc)


def _check_martingale(rc: RunConfig) -> _Output:
    p = rc.params
    chk = martingale_check(p["rate"], rc.up_law, p["tau"], p["horizon"], p["n_paths"], rc.seed)
    lit, ens = chk.literal, chk.ensemble
    summary = (
        f"martingale literal={_fmt_num(lit.mean_residual)}(se={_fmt_num(lit.se)},ok={lit.within_3se}) "
        f"ensemble={_fmt_num(ens.mean_residual)}(se={_fmt_num(ens.se)},ok={ens.within_3se})"
    )
    yield from _record_chunks(rc, {"kind": "martingale", **chk.to_record()})
    return (1 if rc.strict and not (lit.within_3se and ens.within_3se) else 0), summary


def _check_wald(rc: RunConfig) -> _Output:
    p = rc.params
    chk = wald_second_moment_check(
        RateField(rc.field),
        rc.up_law,
        rc.down_law,
        p["sigma"],
        p["n_paths"],
        rc.seed,
        p["z0"],
    )
    result = {"kind": "wald", **chk.to_record()}
    summary = (
        f"wald empirical={_fmt_num(chk.empirical_second_moment)} "
        f"bound={_fmt_num(chk.bound)} passed={chk.passed}"
    )
    yield from _record_chunks(rc, result)
    return (1 if rc.strict and not chk.passed else 0), summary


def _check_balance(rc: RunConfig) -> _Output:
    p = rc.params
    rf = RateField(rc.field)
    w = (p["window_min"], p["window_max"])
    occ = estimate_occupancy(rf, rc.up_law, rc.down_law, p["total_time"], w, rc.seed)
    chain = discretize_to_bd(rf, w[0] - 1, w[1] + 1, p["quadrature_points"])
    br = balance_residual(occ, chain)
    result: dict[str, Any] = {
        "kind": "balance",
        "window": [w[0], w[1]],
        "total_time": p["total_time"],
        "l1": br.l1,
        "residual_cells": [br.n_lo, br.n_hi],
        "residuals": br.residuals,
        "occupancy": occ.p_star,
        "occupied_mass": float(np.sum(occ.p_star)),
    }
    summary = f"balance l1={_fmt_num(br.l1)} cells=[{br.n_lo},{br.n_hi}]"
    code = 0
    if p["compare_exact"]:
        exact = solve_balance_window(chain, w[0], w[1])
        brx = balance_residual(exact, chain)
        result["exact_l1"] = brx.l1
        summary += f" exact_l1={brx.l1:.3g}"
        if rc.strict and not brx.l1 < 1e-10:
            code = 1
    yield from _record_chunks(rc, result)
    return code, summary


class _Command(NamedTuple):
    params: Callable[[_Sect], dict]
    run: Callable[[RunConfig], _Output]
    formats: tuple[str, ...]  # the first is the default


_COMMANDS = {
    "classify": _Command(_params_classify, _cmd_classify, ("json",)),
    "simulate": _Command(_params_simulate, _cmd_simulate, ("csv", "json")),
    "bd-oracle": _Command(_params_bd_oracle, _cmd_bd_oracle, ("json", "csv")),
    "experiment": _Command(_params_experiment, _cmd_experiment, ("csv", "json")),
    "check": _Command(_params_check, _cmd_check, ("json",)),
}

_CHECKS = {"martingale": _check_martingale, "wald": _check_wald, "balance": _check_balance}


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one at a time into a temp file beside ``path``,
    then rename it over ``path``: the target keeps its old content until
    the new one is whole, and a failure leaves no temp file behind.  The
    file takes an overwritten target's mode, else 0o666 less the umask,
    as ``open`` would make it (``mkstemp`` makes it 0o600)."""
    target = os.path.abspath(path)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # read by setting it, then put back
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".driftlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def run(rc: RunConfig) -> int:
    """Execute a validated config: stream the output (if requested) into
    its file atomically, then print the one-line summary and return the
    exit code.  A ValueError from the command, raised before or while its
    output is written, is a config error."""
    ended: list[tuple[int, str]] = []

    def chunks() -> Iterator[str]:
        ended.append((yield from _COMMANDS[rc.command].run(rc)))

    try:
        if rc.output_path is None:
            for _ in chunks():
                pass
        else:
            try:
                _atomic_write(rc.output_path, chunks())
            except OSError as e:
                print(f"driftlab: cannot write output: {rc.output_path}: {e}", file=sys.stderr)
                return 3
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{rc.command}: {e}") from e
    code, summary = ended[0]
    print(summary)
    return code


def _assign(raw: dict, dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = raw
    for k in keys[:-1]:
        nxt = node.get(k)
        if nxt is None:
            nxt = {}
            node[k] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(f"--set {dotted}: {k} is not a mapping")
        node = nxt
    node[keys[-1]] = value


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="driftlab",
        description="Simulate and classify state/time-dependent random walks "
        "from a YAML config.",
    )
    ap.add_argument("config", help="path to the YAML config file")
    ap.add_argument("--seed", type=int, help="override the seed")
    ap.add_argument("--out", help="override output.path")
    ap.add_argument("--format", choices=("json", "csv"), help="override output.format")
    ap.add_argument("--strict", action="store_true", help="exit 1 on Inconclusive verdicts")
    ap.add_argument("--workers", type=int, help="override worker count (0 = auto)")
    ap.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="sets",
        help="override any config key by dotted path (value parsed as YAML)",
    )
    ap.add_argument("--version", action="version", version=f"driftlab {__version__}")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"driftlab: cannot read config: {args.config}: {e}", file=sys.stderr)
        return 3

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        print(f"driftlab: invalid YAML in {args.config}: {e}", file=sys.stderr)
        return 2
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        print(f"driftlab: config root must be a mapping: {args.config}", file=sys.stderr)
        return 2

    try:
        for kv in args.sets:
            if "=" not in kv:
                raise ConfigError(f"--set expects KEY=VALUE, got {kv!r}")
            key, _, val = kv.partition("=")
            try:
                parsed = yaml.safe_load(val) if val != "" else None
            except yaml.YAMLError as e:
                raise ConfigError(f"--set {key}: invalid value: {e}") from e
            _assign(raw, key, parsed)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.strict:
            raw["strict"] = True
        if args.workers is not None:
            raw["workers"] = args.workers
        if args.out is not None or args.format is not None:
            out = raw.get("output")
            if out is None:
                out = {}
                raw["output"] = out
            if not isinstance(out, dict):
                raise ConfigError("output: expected a mapping")
            if args.out is not None:
                out["path"] = args.out
            if args.format is not None:
                out["format"] = args.format
        rc = _validate(raw)
        return run(rc)
    except ConfigError as e:
        print(f"driftlab: config error: {e}", file=sys.stderr)
        return 2
