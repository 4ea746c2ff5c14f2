"""driftlab benchmark: end-to-end CLI workloads with per-layer tracing.

    python3 perfbench/run.py --workload band_return --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --quick      # smoke test, every metric

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` directory and nothing is installed.  Each pass of a
workload is one fresh ``python3`` process that imports ``driftlab.cli``
and calls ``driftlab.cli.main([...])`` on the workload's configs in
order, single-threaded (``workers: 1``).  Passes repeat for ``--seconds``
and the figures are medians over them:

* ``setup_s``     spawn of the interpreter through ``import driftlab.cli``;
                  sampled by every pass and by import-only runs
* ``run_s``       wall time of the workload's commands
* ``cpu_s``       user + system CPU of the pass process and its children
* ``peak_rss_mb`` peak resident memory of the pass process

Every output is checked (exit code 0, a parseable record, the expected
verdicts and flags, byte-identical across the passes of one invocation);
failed commands over attempted ones is ``failed_frac``, reported and
carried by the ``attempted`` / ``failed`` fields of the result.

``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics instead (see ``tracer.py``), with ``trace.overhead_frac``
the traced over the plain median ``run_s``, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit and sample count, the
machine facts and the check results.  Work files go to
``.perfbench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import yaml

from workloads import WHY, WORKLOADS, commands

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

SETUP_SPAWNS = 5  # import-only runs per invocation, on top of one per pass
LIMIT_S = 165.0  # a workload run that is not done by then is killed and fails

# Per-layer counters the program does not report, and how the tracer derives them.
COMPUTED = {
    "simulator.simulate_walk.events": "sum of Trajectory.n_events",
    "simulator.draws_generated": "4 x 4096 values per block, n_events // 4096 + 1 blocks per path",
    "simulator.draws_used": "3 per event (wait, direction, mark) + the wait past the horizon",
    "simulator.draw_use_ratio": "draws_used / draws_generated",
    "simulator.simulate_compound_poisson.events": "length of the returned event times",
    "simulator.trajectory_csv.bytes": "length of the returned CSV text",
    "experiments.solve_balance_window.cells": "size of the returned p_star",
    "classifier.discretize_to_bd.sites": "size of the returned chain",
    "classifier.bd_series_criterion.terms": "n_end - n0 + 1 from the returned evidence",
    "cli.output_bytes": "size of each output file after its command",
}


class ChildError(RuntimeError):
    """A child process exited with an error or printed no record."""


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if ".us_per_event." in name:
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def spawn(args: list[str], stop: float) -> tuple[float, dict]:
    """Run child.py with ``args``, killing it at monotonic time ``stop``;
    return (spawn time, its JSON record)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD, SRC, *args], capture_output=True,
                          text=True, timeout=max(stop - t0, 1.0), cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t0, json.loads(lines[-1])


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


class OutputChecks:
    """Checks each output once per distinct content; passes must agree."""

    def __init__(self, cmds: list) -> None:
        self.cmds = cmds
        self.first: dict[str, tuple[str, list[str]]] = {}  # label -> (digest, problems)
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.notes: list[str] = []

    def record(self, pass_no: int, plan: list[dict], results: list[dict]) -> None:
        codes = {r["label"]: r["code"] for r in results}
        for cmd, step in zip(self.cmds, plan):
            self.attempted += 1
            probs = self._check(cmd, step, codes.get(cmd.label))
            if probs:
                self.failed += 1
                self.problems.extend(f"pass {pass_no} {cmd.label}: {p}" for p in probs)

    def _check(self, cmd, step: dict, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            with open(step["out"], "rb") as fh:
                data = fh.read()
        except OSError as e:
            return [f"no output: {e}"]
        digest = hashlib.sha256(data).hexdigest()
        if cmd.label not in self.first:
            try:
                text = data.decode("utf-8")
                probs = cmd.check(text)
                if cmd.note is not None:
                    self.notes.append(f"{cmd.label}: {cmd.note(text)}")
            except (ValueError, KeyError, TypeError, IndexError) as e:
                probs = [f"unparseable record: {e!r}"]
            self.first[cmd.label] = (digest, probs)
            return probs
        ref_digest, probs = self.first[cmd.label]
        return probs if digest == ref_digest else ["output differs from the first pass"]


def write_plan(workdir: str, name: str, seed: int, quick: bool) -> tuple[list, list[dict], str]:
    cmds = commands(name, quick)
    plan = []
    for cmd in cmds:
        cfg_path = os.path.join(workdir, f"{cmd.label}.yaml")
        out_path = os.path.join(workdir, f"{cmd.label}.{cmd.out_ext}")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cmd.config, fh, sort_keys=False)
        plan.append({"label": cmd.label, "command": cmd.config["command"], "out": out_path,
                     "argv": [cfg_path, "--seed", str(seed), "--out", out_path]})
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    return cmds, plan, plan_path


def run_workload(name: str, seed: int, seconds: int, trace: bool, quick: bool) -> dict:
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmds, plan, plan_path = write_plan(workdir, name, seed, quick)
    spans_path = os.path.join(workdir, "spans.json")

    stop = time.monotonic() + LIMIT_S
    spawn(["--setup-only"], stop)  # warm-up: byte-compiles the sources, not counted
    deadline = time.monotonic() + seconds
    setup = []
    for _ in range(SETUP_SPAWNS):
        t0, rec = spawn(["--setup-only"], stop)
        setup.append(rec["imported"] - t0)

    checks = OutputChecks(cmds)
    kinds = ("plain", "traced") if trace else ("plain",)
    passes: dict[str, list[dict]] = {k: [] for k in kinds}
    wall: dict[str, list[float]] = {k: [] for k in kinds}
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if all(passes.values()) and time.monotonic() + statistics.median(wall[kind]) > deadline:
            break
        for step in plan:
            if os.path.exists(step["out"]):
                os.remove(step["out"])
        extra = ["--trace", spans_path] if kind == "traced" else []
        t_pass = time.monotonic()
        t0, rec = spawn([plan_path, *extra], stop)
        wall[kind].append(time.monotonic() - t_pass)
        setup.append(rec["imported"] - t0)
        passes[kind].append(rec)
        checks.record(i, plan, rec["commands"])
        i += 1

    def med(kind: str, key: str) -> float:
        return statistics.median(p[key] for p in passes[kind])

    if trace:
        traced = passes["traced"]
        metrics = {k: statistics.median(p["layers"][k] for p in traced)
                   for k in traced[0]["layers"]}
        metrics["trace.run_s"] = med("traced", "run_s")
        metrics["trace.overhead_frac"] = med("traced", "run_s") / med("plain", "run_s") - 1.0
    else:
        metrics = {"setup_s": statistics.median(setup)}
        metrics.update({k: med("plain", k) for k in ("run_s", "cpu_s", "peak_rss_mb")})
    return {
        "workload": name,
        "metrics": metrics,
        "samples": {"setup_s": len(setup), **{k: len(v) for k, v in passes.items()}},
        "run_s": {k: [p["run_s"] for p in v] for k, v in passes.items()},
        "checks": checks,
    }


def report(res: dict, seed: int) -> None:
    name, checks = res["workload"], res["checks"]
    print(f"== {name}  seed={seed}  why: {WHY[name]}")
    print(f"   samples: {res['samples']}")
    for kind, values in res["run_s"].items():
        print(f"   run_s of each {kind} pass: " + " ".join(f"{v:.4f}" for v in values))
    samples = res["samples"]
    for k, v in res["metrics"].items():
        n = samples["setup_s"] if k == "setup_s" else samples.get("traced", samples["plain"])
        note = f"  (computed: {COMPUTED[k]})" if k in COMPUTED else ""
        print(f"   {k:<46} {v:>16.10g} {unit_of(k):<5} median of {n}{note}")
    frac = checks.failed / checks.attempted
    print(f"   {'failed_frac':<46} {frac:>16.10g} ratio  ({checks.failed}/{checks.attempted})")
    for note in checks.notes:
        print(f"   {note}")
    m = res["metrics"]
    if "trace.self_sum_s" in m:
        print(f"   span self times sum to {m['trace.self_sum_s']:.4f} s of traced run_s "
              f"{m['trace.run_s']:.4f} s")
    for p in checks.problems[:20]:
        print(f"   CHECK FAILED {p}")
    if not checks.problems:
        print("   checks: all outputs correct and byte-identical across passes")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrink every workload for a smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "driftlab", "__init__.py")):
        print(f"perfbench: no driftlab sources under {SRC}", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine_facts())}")
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name, trace in runs:
            res = run_workload(name, args.seed, args.seconds, trace, args.quick)
            report(res, args.seed)
            prefix = f"{name}." if args.workload == "all" else ""
            for k, v in res["metrics"].items():
                metrics[prefix + k] = {"value": v, "unit": unit_of(k)}
            attempted += res["checks"].attempted
            failed += res["checks"].failed
    except (ChildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
