"""The layer functions bench/tracing.py wraps exist under the names it uses.

The tracer swaps module globals by name, so a refactor that drops or
renames one would leave its span empty without any error.
"""

import importlib
import importlib.util

import pytest

from conftest import ROOT


def _layer_calls():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_CALLS


@pytest.mark.parametrize("module, attr, span", _layer_calls())
def test_traced_layer_call_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
