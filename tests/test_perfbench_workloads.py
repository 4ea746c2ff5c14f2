"""The benchmark's own configs (``perfbench/workloads.py``), run at their
quick sizes through ``cli.main`` as the benchmark runs them: each exits 0,
passes its workload's output check, and writes the same bytes twice."""

import importlib.util
import os
import sys

import pytest
import yaml

from driftlab import cli

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = load_workloads()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_workload_runs_checks_and_repeats(tmp_path, workload, seed):
    for cmd in workloads.commands(workload, quick=True):
        cfg = tmp_path / f"{cmd.label}.yaml"
        cfg.write_text(yaml.safe_dump(cmd.config, sort_keys=False))
        out = tmp_path / f"{cmd.label}.{cmd.out_ext}"
        argv = [str(cfg), "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == 0, cmd.label
        first = out.read_bytes()
        text = first.decode()
        assert cmd.check(text) == [], cmd.label
        if cmd.note is not None:
            assert isinstance(cmd.note(text), str)
        assert cli.main(argv) == 0, cmd.label
        assert out.read_bytes() == first, cmd.label
