"""The library names the benchmark's traced run wraps must keep existing.

`perfbench/tracing.py` wraps public `blockgp.distla` functions by name and
`perfbench/probe.py` wraps `WorkerContext.recv(src, tag, shape)`; a refactor
that renames either would only show up as a failed traced run.
"""

import ast
import inspect
import os

from blockgp import distla
from blockgp.transport.base import WorkerContext

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def _distla_layers():
    with open(TRACING) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["DISTLA_LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("DISTLA_LAYERS not found in perfbench/tracing.py")


def test_traced_names_exist():
    layers = _distla_layers()
    assert layers
    assert [name for name in layers if not hasattr(distla, name)] == []
    assert isinstance(distla.DistVector, type)
    assert "shape" in inspect.signature(WorkerContext.recv).parameters
