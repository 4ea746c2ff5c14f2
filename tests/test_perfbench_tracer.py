"""The benchmark's tracer (``perfbench/tracer.py``) patches driftlab
functions by name and its counter hooks read what they return (the
chain's ``lam``, a walk's field), so a rename in ``src/`` would break it
without a failing test elsewhere.  These tests read the tracer's tables
and check each name it patches, then run one traced pass of every
workload at its quick size in a child process, as ``perfbench/run.py
--trace 1`` does."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from driftlab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load(name: str):
    """``perfbench/<name>.py`` as a module, with ``perfbench/`` importable
    while it loads (``run.py`` imports ``workloads``) and no bytecode
    written under it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    sys.path.insert(0, PERFBENCH)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
    return module


tracer = load("tracer")
run = load("run")


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, name, _ in tracer.TRACED],
    ids=[f"{module.__name__}.{name}" for module, name, _ in tracer.TRACED],
)
def test_each_traced_function_exists_and_is_callable(module, name):
    assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("cls", list(tracer.FAMILIES), ids=list(tracer.FAMILIES.values()))
def test_each_traced_family_has_a_scalar_phi(cls):
    assert callable(getattr(cls, "scalar_phi", None)), cls.__name__


def test_the_traced_families_are_the_config_families():
    # the tracer counts a walk's events under its field's family name
    assert tracer.FAMILIES == {cls: name for name, cls in cli._FIELD_FAMILIES.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_traced_pass_runs_every_hook_clean(tmp_path, workload):
    # child.py turns an exception in a command, a hook's included, into
    # code -1 and goes on, so every code must be 0
    _, plan, plan_path = run.write_plan(str(tmp_path), workload, 0, True)
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, run.CHILD, run.SRC, plan_path, "--trace", str(spans)],
                          capture_output=True, text=True, cwd=ROOT, timeout=120,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [c["label"] for c in rec["commands"]] == [step["label"] for step in plan]
    assert all(c["code"] == 0 for c in rec["commands"]), (rec["commands"], proc.stderr)
    assert isinstance(rec["layers"], dict) and rec["layers"]
    assert spans.exists()
