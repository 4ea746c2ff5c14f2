"""The benchmark's tracer (``perfbench/tracer.py``) patches driftlab
functions by name.  Its traced pass is not part of this suite, so a rename
in ``src/`` would break it without a failing test; these tests read the
tracer's tables and check each name it patches.  They install nothing."""

import importlib.util
import os
import sys

import pytest

from driftlab import cli

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = load_tracer()


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
