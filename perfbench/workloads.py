"""The benchmark's workloads: driftlab CLI configs plus their output checks.

Every workload is a list of commands.  A command is one YAML config that
``driftlab.cli.main`` runs with ``--seed`` and ``--out`` appended, and a
check that reads the written output and returns a list of problems (an
empty list means the output is correct).  Configs never carry the seed:
the benchmark passes it on the command line, so one set of config files
serves every seed.

``quick=True`` shrinks every size so a smoke test of all workloads takes
seconds; the checks stay the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

WHY = {
    "band_return": (
        "criterion-1 band-return ensemble, 400 paths to t=2e4: the scalar event loop and "
        "scalar_phi dominate; what the batched ensemble engine must speed up"
    ),
    "short_paths": (
        "1e4-path Wald and martingale checks at ~1 event per path: per-path set-up, seeding, "
        "4x4096 draw blocks and compensators dominate; the event loop idles"
    ),
    "single_run": (
        "one long materialized path per command plus the balance solve, chain oracle and "
        "classify: write-out and solves, no ensembles; should not move with the engine"
    ),
}

WORKLOADS = tuple(WHY)

GAMMA2 = {"up": {"family": "gamma_mean1", "k": 2.0}, "down": {"family": "gamma_mean1", "k": 2.0}}
UNIT = {"up": {"family": "constant1"}, "down": {"family": "constant1"}}

# A small time-decaying table: phi falls in |x| and is non-increasing in t.
TABLE = {
    "family": "tabulated",
    "x_grid": [0.0, 5.0, 20.0, 100.0],
    "t_grid": [0.0, 1000.0, 20000.0],
    "values": [[0.20, 0.15, 0.10], [0.10, 0.08, 0.05], [0.04, 0.03, 0.02], [0.01, 0.01, 0.005]],
}

Check = Callable[[str], list[str]]


@dataclass(frozen=True)
class Command:
    label: str  # unique within the workload; names the config and output files
    config: dict
    out_ext: str
    check: Check
    note: Optional[Callable[[str], str]] = None  # figures reported, not gated on


def _record(text: str, command: str) -> dict:
    rec = json.loads(text)
    if rec.get("tool") != "driftlab" or rec.get("command") != command:
        raise ValueError(f"not a driftlab {command} record")
    return rec["result"]


def _check_band_return(text: str) -> list[str]:
    r = _record(text, "experiment")
    out = []
    if not r["reached_fraction"] >= 0.95:
        out.append(f"reached_fraction {r['reached_fraction']} < 0.95")
    lo, hi = r["returned_ci"]
    if not lo <= r["returned_fraction"] <= hi:
        out.append(f"returned_fraction {r['returned_fraction']} outside Wilson CI [{lo}, {hi}]")
    return out


def _check_wald(text: str) -> list[str]:
    r = _record(text, "check")
    return [] if r["passed"] is True else [f"wald check failed: {r}"]


def _check_martingale(text: str) -> list[str]:
    r = _record(text, "check")
    return [
        f"martingale {mode} residual {r[mode]['mean_residual']} outside 3 se ({r[mode]['se']})"
        for mode in ("literal", "ensemble")
        if r[mode]["within_3se"] is not True
    ]


def _check_csv(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "tau,signed_jump,z_after":
        return ["bad CSV header"]
    if len(lines) < 2:
        return ["CSV has no events"]
    prev_t, z = 0.0, 0.0
    for i, line in enumerate(lines[1:], 2):
        t, j, zn = (float(v) for v in line.split(","))
        if not t > prev_t or zn != z + j:
            return [f"CSV line {i}: times must increase and z_after = z + jump"]
        prev_t, z = t, zn
    return []


def _check_sim_json(text: str) -> list[str]:
    r = _record(text, "simulate")
    n = r["n_events"]
    if not n > 0 or not len(r["times"]) == len(r["jumps"]) == len(r["z"]) == n:
        return [f"simulate record has inconsistent lengths for n_events={n}"]
    if r["z"][-1] != r["final_z"]:
        return ["final_z differs from the last z"]
    return []


def _check_balance(text: str) -> list[str]:
    r = _record(text, "check")
    return [] if r["exact_l1"] < 1e-10 else [f"balance exact_l1 {r['exact_l1']} >= 1e-10"]


def _check_bd_oracle(text: str) -> list[str]:
    r = _record(text, "bd-oracle")
    return [
        f"bd-oracle {crit} verdict {r[crit]['verdict']}, expected Transient"
        for crit in ("ratio", "series")
        if r[crit]["verdict"] != "Transient"
    ]


def _check_classify(text: str) -> list[str]:
    r = _record(text, "classify")
    return [] if r["verdict"] == "Recurrent" else [f"classify verdict {r['verdict']}"]


def _base(command: str, field: dict, jumps: dict, fmt: str) -> dict:
    return {"command": command, "workers": 1, "field": field, "jumps": jumps,
            "output": {"format": fmt}}


def commands(workload: str, quick: bool = False) -> "list[Command]":
    """The workload's commands in run order."""
    def size(full, small):
        return small if quick else full

    if workload == "band_return":
        cfg = _base("experiment", {"family": "critical_lamperti", "c": 0.5}, UNIT, "json")
        cfg["experiment"] = {"n_paths": size(400, 20), "horizon": 2e4, "level": 50.0, "band": 1.0}
        return [Command("experiment", cfg, "json", _check_band_return, _band_note)]

    if workload == "short_paths":
        wald = _base("check", {"family": "zero"}, GAMMA2, "json")
        wald["check"] = {"kind": "wald", "sigma": 1.0, "n_paths": size(10000, 500)}
        mart = _base("check", {"family": "zero"}, GAMMA2, "json")
        mart["check"] = {"kind": "martingale", "rate": 1.0, "tau": 10.0, "horizon": 14.0,
                         "n_paths": size(10000, 500)}
        return [Command("wald", wald, "json", _check_wald),
                Command("martingale", mart, "json", _check_martingale)]

    if workload == "single_run":
        power = _base("simulate", {"family": "power_law", "rho": 0.1, "alpha": -0.5, "beta": 0.25},
                      UNIT, "csv")
        power["simulate"] = {"horizon": size(2e5, 2e4)}
        table = _base("simulate", TABLE, GAMMA2, "json")
        table["simulate"] = {"horizon": size(2e4, 2e3)}
        balance = _base("check", {"family": "mean_reverting", "kappa": 0.2}, UNIT, "json")
        balance["check"] = {"kind": "balance", "total_time": size(1e6, 1e5),
                            "window_min": size(-1000, -100), "window_max": size(1000, 100)}
        oracle = _base("bd-oracle", {"family": "critical_lamperti", "c": 2.0}, UNIT, "json")
        oracle["bd-oracle"] = {"n_min": 2, "n_max": size(10000, 1000),
                               "tail_extension": size(990000, 99000), "criterion": "both"}
        classify = _base("classify", {"family": "critical_lamperti", "c": 0.5}, UNIT, "json")
        return [Command("simulate_power_law", power, "csv", _check_csv),
                Command("simulate_tabulated", table, "json", _check_sim_json),
                Command("check_balance", balance, "json", _check_balance),
                Command("bd_oracle", oracle, "json", _check_bd_oracle),
                Command("classify", classify, "json", _check_classify)]

    raise ValueError(f"unknown workload {workload!r}")


def _band_note(text: str) -> str:
    # Criterion 1 asks for returned_fraction >= 0.7; that known failure is
    # reported here and left to the acceptance test, not gated on.
    r = _record(text, "experiment")
    lo, hi = r["returned_ci"]
    return (f"returned_fraction={r['returned_fraction']:.4f} ci=[{lo:.4f}, {hi:.4f}] "
            f"reached_fraction={r['reached_fraction']:.4f} (criterion 1 floor 0.7 not gated)")
