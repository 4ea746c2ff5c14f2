"""Config-driven command line.

One YAML config file drives every run.  Common keys pick the drift
field, jump laws, seed, and output destination; a per-command section
holds the command's own parameters.  Commands:

* ``classify``    tail classification of the configured field; a
                  ``power_law`` field on the critical line alpha = 2*beta - 1
                  gets the critical window's closed-form verdict
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
import time
import dataclasses
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple, Optional

import numpy as np
import yaml

from . import __version__
from .classifier import (
    Verdict,
    _X_MAX_LIMIT,
    _on_critical_line,
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
    _ROWS,
    _csv,
    _event_blocks,
    _trajectory_csv,
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
            keys = ", ".join(sorted(map(repr, self.data)))
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


# Each command's section, and under ``check`` each kind's keys, as
# key -> (kind, default, bound).  A default of _REQUIRED makes the key
# required, None makes it optional and left out of params when unset, and
# a callable is computed from the keys before it.  The bound is a number's
# lower bound or a string's choices.
_PARAMS: dict[str, dict[str, tuple[str, Any, Any]]] = {
    "classify": {"x0": ("float", 2.0, None), "x_max": ("float", 1e4, None), "grid": ("int", 512, 100)},
    "simulate": {"horizon": ("float", _REQUIRED, 0.0), "z0": ("float", 0.0, None)},
    "bd-oracle": {
        "source": ("str", "field", ("field", "ratio")),
        "n_min": ("int", 2, None), "n_max": ("int", 10000, None),
        "n0": ("int", lambda p: max(1, p["n_min"]), None),
        "quadrature_points": ("int", 8, 1), "tail_extension": ("int", 0, 0),
        "criterion": ("str", "both", ("ratio", "series", "both")),
        "bilateral": ("bool", False, None), "c": ("float", None, 0.0),
    },
    "experiment": {
        "n_paths": ("int", _REQUIRED, 1), "horizon": ("float", _REQUIRED, 0.0),
        "level": ("float", _REQUIRED, None), "band": ("float", 1.0, None),
        "z0": ("float", 0.0, None),
    },
    "martingale": {
        "rate": ("float", 0.5, None), "tau": ("float", 8.0, 0.0),
        "horizon": ("float", 12.0, 0.0), "n_paths": ("int", 10000, 100),
    },
    "wald": {
        "sigma": ("float", 1.0, 0.0), "n_paths": ("int", 10000, 100), "z0": ("float", 0.0, None),
    },
    "balance": {
        "total_time": ("float", 1e5, 0.0), "window_min": ("int", -10, None),
        "window_max": ("int", 10, None), "quadrature_points": ("int", 8, 1),
    },
}

# The rules between a row's keys, in the order they are checked.
_RULES: tuple[tuple[str, Callable[[dict], bool], str], ...] = (
    ("classify", lambda p: p["x0"] <= 0, "classify.x0: must be positive"),
    ("classify", lambda p: p["x_max"] <= p["x0"], "classify.x_max: must exceed x0"),
    ("classify", lambda p: p["x_max"] > _X_MAX_LIMIT,
     f"classify.x_max: must be at most {_X_MAX_LIMIT!r} (x_max**2 must be finite)"),
    ("bd-oracle", lambda p: p["n_min"] > p["n_max"], "bd-oracle.n_min: must not exceed n_max"),
    ("bd-oracle", lambda p: p["source"] == "ratio" and "c" not in p,
     "bd-oracle.c: required when source is 'ratio'"),
    ("bd-oracle", lambda p: p["source"] == "ratio" and p["n_min"] < 1,
     "bd-oracle.n_min: ratio source needs n_min >= 1"),
    ("bd-oracle", lambda p: not p["n_min"] <= p["n0"] <= p["n_max"],
     "bd-oracle.n0: must lie within [n_min, n_max]"),
    ("bd-oracle", lambda p: p["bilateral"] and p["n_min"] > -p["n0"],
     "bd-oracle.bilateral: window must span both tails (n_min <= -n0)"),
    ("experiment", lambda p: not p["level"] > p["band"] > 0, "experiment: need level > band > 0"),
    ("martingale", lambda p: p["rate"] <= 0, "check.rate: must be positive"),
    ("martingale", lambda p: p["horizon"] < p["tau"], "check.horizon: must be at least tau"),
    ("balance", lambda p: p["window_max"] - p["window_min"] < 2,
     "check.window_max: window needs at least 3 cells"),
)


def _params(s: _Sect, row: str, p: dict) -> dict:
    """``p`` with the keys of ``_PARAMS[row]`` read from ``s`` added, once
    ``s`` has no other key and the row's rules hold."""
    for key, (kind, default, bound) in _PARAMS[row].items():
        computed = callable(default)
        choices = bound if isinstance(bound, tuple) else None
        v = s.take(key, kind, None if computed else default, choices,
                   None if choices else bound, allow_none=computed or default is None)
        if v is not None or computed:
            p[key] = default(p) if v is None else v
    s.done()
    for r, broken, message in _RULES:
        if r == row and broken(p):
            raise ConfigError(message)
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

    sect = top.sub(command)
    p = {"kind": sect.take("kind", "str", choices=tuple(_CHECKS))} if command == "check" else {}
    params = _params(sect, p.get("kind", command), p)
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


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, but a key repeated in one mapping is an error
    (``yaml.safe_load`` keeps the last one)."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        seen: list = []  # not a set: PyYAML itself rejects an unhashable key
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.YAMLError(f"duplicate key {key!r} on line {key_node.start_mark.line + 1}")
            seen.append(key)
        return super().construct_mapping(node, deep)


def parse_config(text: str, overrides: Iterable[tuple[str, Any]] = ()) -> RunConfig:
    """Parse YAML config text, set each ``(dotted key, value)`` of
    ``overrides`` in order (a later one wins), and validate the result.

    Raises ConfigError with a dotted key path (or the YAML parser's
    line/column) on any problem.  Defaults are resolved here;
    ``RunConfig.effective`` re-serializes to an equivalent config.
    """
    try:
        raw = yaml.load(text, _Loader)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    if raw is None:
        raw = {}
    for dotted, value in overrides:
        _assign(raw, dotted, value)
    return _validate(raw)


def _assign(raw: Any, dotted: str, value: Any) -> None:
    """Set ``dotted`` in ``raw``, making missing or null mappings on the way;
    an empty segment or a non-mapping on the way is a ConfigError naming ``dotted``."""
    keys = dotted.split(".")
    if "" in keys:
        raise ConfigError(f"{dotted!r}: empty segment in a dotted key")
    node = raw
    for i, k in enumerate(keys):
        if not isinstance(node, dict):
            raise ConfigError(f"{dotted}: {'.'.join(keys[:i]) or 'config'} is not a mapping")
        if i == len(keys) - 1:
            node[k] = value
        elif isinstance(node.get(k), dict):
            node[k] = dict(node[k])  # a copy: a mapping an override passed in is not changed
        elif node.get(k) is None:
            node[k] = {}
        node = node[k]


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
    ``_ROWS`` values at a time, one ``float.__repr__`` per value, as
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
        for lo in range(0, a.size, _ROWS):
            yield sep + ("," + inner).join(map(float.__repr__, a[lo : lo + _ROWS].tolist()))
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
# and returns whether it failed (an Inconclusive verdict or a failed
# check) and its summary line.
_Output = Generator[str, None, tuple[bool, str]]


def _cmd_classify(rc: RunConfig) -> _Output:
    p, f = rc.params, rc.field
    if _on_critical_line(f):
        cls = classify_mv_critical(f.rho, f.beta, x_floor=f.x_floor, **p)
    else:
        cls = classify_theorem1(f, **p)
    result = {**cls.to_record(), "evidence": cls.evidence}
    summary = (
        f"verdict={cls.verdict.value} c_estimate={_fmt_c(cls.c_estimate)} "
        f"method={cls.method} window=[{cls.window[0]:g},{cls.window[1]:g}]"
    )
    yield from _record_chunks(rc, result)
    return cls.verdict is Verdict.INCONCLUSIVE, summary


def _cmd_simulate(rc: RunConfig) -> _Output:
    p = rc.params
    rf = RateField(rc.field)
    if rc.output_format == "json":
        traj = simulate_walk(rf, rc.up_law, rc.down_law, seed=rc.seed, **p)
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
        blocks = _event_blocks(rf, rc.up_law, rc.down_law, seed=rc.seed, **p)

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
    return False, f"events={n} final_z={_fmt_num(final_z)} horizon={p['horizon']:g} seed={rc.seed}"


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
    failed = any(v["verdict"] == Verdict.INCONCLUSIVE.value for v in results.values())
    return failed, " ".join(bits)


def _cmd_experiment(rc: RunConfig) -> _Output:
    exp = RecurrenceExperiment(RateField(rc.field), rc.up_law, rc.down_law,
                               seed=rc.seed, workers=rc.workers, **rc.params)
    t0 = time.perf_counter()
    report = run_recurrence_experiment(exp)
    runtime = time.perf_counter() - t0
    if rc.output_format == "csv":
        yield from _experiment_csv(report)
    else:
        yield from _record_chunks(rc, report.to_record())
    lo, hi = report.returned_ci
    summary = (
        f"paths={report.n_paths} reached={_fmt_num(report.reached_fraction)} "
        f"returned={_fmt_num(report.returned_fraction)} "
        f"ci=[{_fmt_num(lo)},{_fmt_num(hi)}] "
        f"runtime={runtime:.3g}s"
    )
    return False, summary


def _check_martingale(rc: RunConfig, args: dict) -> _Output:
    chk = martingale_check(law=rc.up_law, seed=rc.seed, **args)
    lit, ens = chk.literal, chk.ensemble
    summary = (
        f"martingale literal={_fmt_num(lit.mean_residual)}(se={_fmt_num(lit.se)},ok={lit.within_3se}) "
        f"ensemble={_fmt_num(ens.mean_residual)}(se={_fmt_num(ens.se)},ok={ens.within_3se})"
    )
    yield from _record_chunks(rc, {"kind": "martingale", **chk.to_record()})
    return not (lit.within_3se and ens.within_3se), summary


def _check_wald(rc: RunConfig, args: dict) -> _Output:
    chk = wald_second_moment_check(RateField(rc.field), rc.up_law, rc.down_law,
                                   seed=rc.seed, **args)
    result = {"kind": "wald", **chk.to_record()}
    summary = (
        f"wald empirical={_fmt_num(chk.empirical_second_moment)} "
        f"bound={_fmt_num(chk.bound)} passed={chk.passed}"
    )
    yield from _record_chunks(rc, result)
    return not chk.passed, summary


def _check_balance(rc: RunConfig, p: dict) -> _Output:
    rf = RateField(rc.field)
    w = (p["window_min"], p["window_max"])
    occ = estimate_occupancy(rf, rc.up_law, rc.down_law, p["total_time"], w, rc.seed)
    chain = discretize_to_bd(rf, w[0] - 1, w[1] + 1, p["quadrature_points"])
    br = balance_residual(occ, chain)
    exact_l1 = balance_residual(solve_balance_window(chain, w[0], w[1]), chain).l1
    result = {
        "kind": "balance",
        "window": [w[0], w[1]],
        "total_time": p["total_time"],
        "l1": br.l1,
        "residual_cells": [br.n_lo, br.n_hi],
        "residuals": br.residuals,
        "occupancy": occ.p_star,
        "occupied_mass": float(np.sum(occ.p_star)),
        "exact_l1": exact_l1,
    }
    summary = f"balance l1={_fmt_num(br.l1)} cells=[{br.n_lo},{br.n_hi}] exact_l1={exact_l1:.3g}"
    yield from _record_chunks(rc, result)
    return not exact_l1 < 1e-10, summary


def _cmd_check(rc: RunConfig) -> _Output:
    args = dict(rc.params)
    return _CHECKS[args.pop("kind")](rc, args)


class _Command(NamedTuple):
    run: Callable[[RunConfig], _Output]
    formats: tuple[str, ...]  # the first is the default


_COMMANDS = {
    "classify": _Command(_cmd_classify, ("json",)),
    "simulate": _Command(_cmd_simulate, ("csv", "json")),
    "bd-oracle": _Command(_cmd_bd_oracle, ("json", "csv")),
    "experiment": _Command(_cmd_experiment, ("csv", "json")),
    "check": _Command(_cmd_check, ("json",)),
}

# Each check kind's runner takes the run and its row's keys, ``kind`` left out.
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
    exit code: 1 if ``strict`` is set and the command failed, else 0.  A
    ValueError from the command, raised before or while its output is
    written, is a config error."""
    ended: list[tuple[bool, str]] = []

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
    failed, summary = ended[0]
    print(summary)
    return 1 if rc.strict and failed else 0


_FLAGS = ("seed", "strict", "workers", "output.path", "output.format")  # argparse dests


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="driftlab",
        description="Simulate and classify state/time-dependent random walks "
        "from a YAML config.",
    )
    ap.add_argument("config", help="path to the YAML config file")
    # each flag is shorthand for --set of its dest, and is applied after them
    ap.add_argument("--seed", type=int, help="override the seed")
    ap.add_argument("--out", dest="output.path", metavar="OUT", help="override output.path")
    ap.add_argument("--format", dest="output.format", choices=("json", "csv"),
                    help="override output.format")
    ap.add_argument("--strict", action="store_const", const=True,
                    help="exit 1 on Inconclusive verdicts")
    ap.add_argument("--workers", type=int, help="override worker count (0 = auto)")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", dest="sets",
                    help="override any config key by dotted path (value parsed as YAML)")
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
        overrides = []
        for kv in args.sets:
            if "=" not in kv:
                raise ConfigError(f"--set expects KEY=VALUE, got {kv!r}")
            key, _, val = kv.partition("=")
            try:
                overrides.append((key, yaml.load(val, _Loader)))
            except yaml.YAMLError as e:
                raise ConfigError(f"--set {key}: invalid value: {e}") from e
        overrides += [(k, getattr(args, k)) for k in _FLAGS if getattr(args, k) is not None]
        return run(parse_config(text, overrides))
    except ConfigError as e:
        print(f"driftlab: config error: {e}", file=sys.stderr)
        return 2
