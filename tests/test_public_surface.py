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


def test_init_moments_calls_pow_linear_and_decompose(monkeypatch):
    # the smoke check's traced init_moments run needs spans from both
    from momentgmm import gmm, moments

    calls = {"pow_linear": 0, "decompose": 0}

    def counting(name):
        inner = getattr(moments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(moments, name, counting(name))
    model = gmm.GmmParams([0.5, 0.5], [[3.0, 0.0], [0.0, 3.0]], [1.0, 1.0])
    _, fallback = gmm.init_moments(gmm.sample(model, 200)[0], 2)
    assert not fallback
    assert calls["pow_linear"] > 0 and calls["decompose"] > 0
