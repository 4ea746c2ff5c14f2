"""In-memory span tracer installed around driftlab's public functions.

Nothing inside driftlab changes.  ``Tracer.install`` replaces each traced
function with a wrapper in every ``driftlab`` module that holds a binding
to it, because ``from .simulator import simulate_walk`` copies the name
into the importer (and a module's own calls, such as
``wald_second_moment_check`` -> ``simulate_walk``, go through its
globals).  Each call becomes one span: name, start, end, parent span and
self time, the duration minus the time its child spans cover.

The per-event field closure returned by ``DriftField.scalar_phi()`` is
called millions of times, so it is not a span of its own: its calls and
time are summed, and the time is charged to the enclosing span as child
time.  Counters that the program does not report are computed from the
values the wrapped functions return; ``run.COMPUTED`` says how.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from driftlab import classifier, cli, experiments, fields, seeding, simulator

BLOCK = 4096  # events per draw block, documented in driftlab.simulator
DRAWS_PER_BLOCK = 4 * BLOCK  # waits, direction uniforms, up marks, down marks

FAMILIES = {
    fields.Zero: "zero",
    fields.CriticalLamperti: "critical_lamperti",
    fields.PowerLaw: "power_law",
    fields.MeanReverting: "mean_reverting",
    fields.Tabulated: "tabulated",
}

COMMANDS = ("classify", "simulate", "bd-oracle", "experiment", "check")


def _walk_counts(c: dict, args: tuple, traj, dur: float) -> None:
    n = traj.n_events
    family = FAMILIES[type(args[0].drift)]
    blocks = n // BLOCK + 1 if traj.horizon > 0 else 0
    c["simulator.simulate_walk.events"] += n
    c[f"events.{family}"] += n
    c[f"s.{family}"] += dur
    c["simulator.draws_generated"] += DRAWS_PER_BLOCK * blocks
    c["simulator.draws_used"] += 3 * n + 1 if blocks else 0


def _count(key: str, of):
    def hook(c: dict, args: tuple, result, dur: float) -> None:
        c[key] += of(result)

    return hook


# (module, function, counter hook or None); hooks see the call's positional
# arguments, its result and its duration.
TRACED = (
    (seeding, "path_seed", None),
    (simulator, "simulate_walk", _walk_counts),
    (simulator, "simulate_compound_poisson",
     _count("simulator.simulate_compound_poisson.events", lambda r: len(r[0]))),
    (simulator, "compensator_report", None),
    (simulator, "wald_second_moment_check", None),
    (simulator, "trajectory_csv", _count("simulator.trajectory_csv.bytes", len)),
    (experiments, "run_recurrence_experiment", None),
    (experiments, "estimate_occupancy", None),
    (experiments, "solve_balance_window",
     _count("experiments.solve_balance_window.cells", lambda r: r.p_star.size)),
    (experiments, "balance_residual", None),
    (classifier, "discretize_to_bd",
     _count("classifier.discretize_to_bd.sites", lambda r: r.lam.size)),
    (classifier, "bd_series_criterion",
     _count("classifier.bd_series_criterion.terms",
            lambda r: r.evidence["n_end"] - r.evidence["n0"] + 1)),
    (classifier, "ratio_test", None),
    (classifier, "classify_theorem1", None),
    (cli, "main", None),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans kept in memory as (id, parent id, name, start, end, self s)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(int)
        self.phi = [0, 0.0]  # calls, seconds
        # Open spans: [child seconds, span id]; the root sentinel has id None.
        self._stack: list[list] = [[0.0, None]]
        self._next_id = 0

    def _open(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: float, t1: float) -> float:
        self._stack.pop()
        parent = self._stack[-1]
        dur = t1 - t0
        parent[0] += dur
        self.spans.append((frame[1], parent[1], name, t0, t1, dur - frame[0]))
        return dur

    @contextmanager
    def span(self, name: str):
        frame = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, t0, perf_counter())

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(frame, name, t0, perf_counter())
            if hook is not None:
                hook(self.counts, args, result, dur)
            return result

        return traced

    def _wrap_scalar_phi(self, method):
        acc = self.phi
        stack = self._stack

        @functools.wraps(method)
        def scalar_phi(field):
            f = method(field)
            frame = stack[-1]  # the event loop's span, open for every call of f

            def traced_phi(x, t):
                t0 = perf_counter()
                v = f(x, t)
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                frame[0] += dt
                return v

            return traced_phi

        return scalar_phi

    def install(self) -> None:
        """Patch every driftlab module binding of each traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "driftlab" or n.startswith("driftlab.")]
        for module, fname, hook in TRACED:
            orig = getattr(module, fname)
            wrapped = self._wrap(f"{_short(module)}.{fname}", orig, hook)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
        for cls in FAMILIES:
            cls.scalar_phi = self._wrap_scalar_phi(cls.scalar_phi)

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "scalar_phi": {"calls": self.phi[0], "s": self.phi[1]}}, fh)

    def metrics(self, output_bytes: int) -> dict:
        """Per-layer figures of this process's traced run."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for _sid, _parent, name, t0, t1, own in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += own
        c = self.counts
        m = {
            "fields.scalar_phi.calls": self.phi[0],
            "fields.scalar_phi.s": self.phi[1],
            "simulator.simulate_walk.calls": calls["simulator.simulate_walk"],
            "simulator.simulate_walk.events": c["simulator.simulate_walk.events"],
            "simulator.simulate_walk.s": total["simulator.simulate_walk"],
        }
        for family in FAMILIES.values():
            ev = c[f"events.{family}"]
            m[f"simulator.us_per_event.{family}"] = 1e6 * c[f"s.{family}"] / ev if ev else 0.0
        gen = c["simulator.draws_generated"]
        m.update({
            "simulator.draws_generated": gen,
            "simulator.draws_used": c["simulator.draws_used"],
            "simulator.draw_use_ratio": c["simulator.draws_used"] / gen if gen else 0.0,
            "simulator.simulate_compound_poisson.calls": calls["simulator.simulate_compound_poisson"],
            "simulator.simulate_compound_poisson.events": c["simulator.simulate_compound_poisson.events"],
            "simulator.simulate_compound_poisson.s": total["simulator.simulate_compound_poisson"],
            "simulator.compensator_report.calls": calls["simulator.compensator_report"],
            "simulator.compensator_report.s": total["simulator.compensator_report"],
            "simulator.wald_second_moment_check.self_s": self_s["simulator.wald_second_moment_check"],
            "simulator.trajectory_csv.s": total["simulator.trajectory_csv"],
            "simulator.trajectory_csv.bytes": c["simulator.trajectory_csv.bytes"],
            "seeding.path_seed.calls": calls["seeding.path_seed"],
            "seeding.path_seed.s": total["seeding.path_seed"],
            "experiments.run_recurrence_experiment.self_s": self_s["experiments.run_recurrence_experiment"],
            "experiments.estimate_occupancy.self_s": self_s["experiments.estimate_occupancy"],
            "experiments.solve_balance_window.s": total["experiments.solve_balance_window"],
            "experiments.solve_balance_window.cells": c["experiments.solve_balance_window.cells"],
            "experiments.balance_residual.s": total["experiments.balance_residual"],
            "classifier.discretize_to_bd.s": total["classifier.discretize_to_bd"],
            "classifier.discretize_to_bd.sites": c["classifier.discretize_to_bd.sites"],
            "classifier.bd_series_criterion.s": total["classifier.bd_series_criterion"],
            "classifier.bd_series_criterion.terms": c["classifier.bd_series_criterion.terms"],
            "classifier.ratio_test.s": total["classifier.ratio_test"],
            "classifier.classify_theorem1.s": total["classifier.classify_theorem1"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.output_bytes": output_bytes,
        })
        for cmd in COMMANDS:
            m[f"cli.cmd.{cmd}_s"] = total[f"cli.cmd.{cmd}"]
        m["trace.self_sum_s"] = sum(self_s.values()) + self.phi[1]
        return m
