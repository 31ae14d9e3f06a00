"""Fast guard on the names the benchmark harness and the package export.

`perfbench/tracing.py` wraps the functions in its LAYERS table by looking
them up in `momentgmm` modules; a renamed or deleted function fails here in
seconds instead of in the benchmark's smoke run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import momentgmm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers():
    """The literal LAYERS tuple, read from the source without running it."""
    for node in ast.parse(TRACING.read_text()).body:
        targets = getattr(node, "targets", [])
        if [getattr(t, "id", None) for t in targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


@pytest.mark.parametrize("module, function", traced_layers())
def test_traced_layer_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"momentgmm.{module}"), function))


@pytest.mark.parametrize("name", momentgmm.__all__)
def test_exported_name_imports(name):
    namespace = {}
    exec(f"from momentgmm import {name}", namespace)
    assert namespace[name] is getattr(momentgmm, name)


@pytest.mark.parametrize("module", ["waring", "moments"])
def test_pow_linear_is_a_module_global(module):
    # the benchmark's smoke check reads pow_linear from these two modules
    mod = importlib.import_module(f"momentgmm.{module}")
    assert mod.pow_linear is importlib.import_module("momentgmm.symtensor").pow_linear
