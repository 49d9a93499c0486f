"""The traced benchmark run wraps package attributes by name; they must all exist.

perfbench/spans.py is loaded by path and its install() is not called, so
nothing is wrapped here: the test only reads the names it would wrap.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from totecc import extremal, graph

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_graph_names(spans):
    for name in spans.ECC_FUNCTIONS + spans.CUT_FUNCTIONS:
        assert callable(getattr(graph, name, None)), name


def test_extremal_names(spans):
    names = spans.INVARIANT_FUNCTIONS + spans.FOLD_FUNCTIONS
    for name in names + ("connected_graph_list", "canonical_graph"):
        assert callable(getattr(extremal, name, None)), name


# By module path: the package re-exports the function canon over its module.
@pytest.mark.parametrize(
    "module, name",
    [("canon", "canon"), ("enumeration", "connected_graphs"), ("graph6", "encode"), ("cli", "main")],
)
def test_other_names(module, name):
    assert callable(getattr(importlib.import_module(f"totecc.{module}"), name, None)), name
