"""The library names the benchmark's traced run wraps must keep existing.

`perfbench/tracing.py` wraps public `blockgp.distla` functions by name and
`perfbench/probe.py` wraps `WorkerContext.recv(src, tag, shape)` and
`registry.lookup`, billing every `gen.*` generator to the worker thread
whose kernel asked for it; a refactor that renames either, or looks a
generator up on the master, would only show up as a failed traced run.
The traced run also reads the factor's layout and each rank's peak block
count from what `distla.distributed_cholesky` returns, and bills each
collective to the `DISTLA_LAYERS` span open around it, so no public
`distla` function may call another.
"""

import ast
import dataclasses
import inspect
import os
import threading

import numpy as np

from blockgp import distla, registry, spawn
from blockgp.gp import KrigeProblem, builtin_spec
from blockgp.transport.base import WorkerContext

from conftest import spd_matrix

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


def _small_problem(cl):
    rng = np.random.default_rng(1)
    spec = dataclasses.replace(
        builtin_spec("matern-nugget", rng.uniform(0, 5, 9),
                     rng.uniform(0, 5, 4)),
        mean_fn=lambda theta, inputs: theta[0] * inputs["coords"],
        pred_mean_fn=lambda theta, inputs: theta[0] * inputs["pred_coords"])
    return KrigeProblem(cl, "t", spec, rng.standard_normal(9),
                        [1.0, 1.0, 0.1], m=4, h_n=2, h_m=1, h_r=1)


def test_generators_are_looked_up_on_workers_only(monkeypatch):
    master, lookups, lookup = threading.get_ident(), [], registry.lookup

    def recorded(fn_id):
        lookups.append((fn_id, threading.get_ident() == master))
        return lookup(fn_id)
    monkeypatch.setattr(registry, "lookup", recorded)
    cl = spawn(3, seed=1)
    try:
        prob = _small_problem(cl)
        prob.log_density()
        prob.predict(se_fit=True)
        prob.simulate_realizations(2, post=True)
        prob.simulate_realizations(2, post=False)
    finally:
        cl.shutdown()
    generators = {(fn_id, on_master) for fn_id, on_master in lookups
                  if fn_id.startswith("gen.")}
    assert generators == {(f"gen.matern-nugget.{kind}", False)
                          for kind in ("cov", "cross", "pred")}


def test_in_place_cholesky_returns_what_the_trace_reads():
    # tracing.py bills n^3/3 flops from out[0].layout.n and checks each
    # rank's peak_blocks in out[1] against h^2 + 4 from out[0].layout.h
    A = spd_matrix(40)
    cl = spawn(3, seed=1)
    try:
        C = distla.distribute(cl, "C", A, "triangular",
                              distla.make_layout(40, cl.grid, h=2))
        out = distla.distributed_cholesky(cl, C, C.name)
        L = distla.collect(cl, out[0])
    finally:
        cl.shutdown()
    assert (out[0].name, out[0].layout.n, out[0].layout.h) == ("C", 40, 2)
    assert len(out[1]) == 3
    assert all(0 < st["peak_blocks"] <= 2 ** 2 + 4 for st in out[1])
    np.testing.assert_allclose(L, np.linalg.cholesky(A), rtol=1e-10,
                               atol=1e-12)


def test_each_collective_is_billed_to_one_layer(monkeypatch):
    # tracing.py bills a collective to every DISTLA_LAYERS span open around
    # it, so one public distla function must never run inside another
    depth, nested, run_depths = [0], [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                nested.append(name)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper
    for name in _distla_layers():
        monkeypatch.setattr(distla, name, counted(name, getattr(distla, name)))
    cl = spawn(3, seed=1)
    run = cl.run
    cl.run = lambda fn_id, **kw: run_depths.append(depth[0]) or run(fn_id, **kw)
    try:
        prob = _small_problem(cl)
        prob.log_density()
        prob.predict(se_fit=True)
        prob.simulate_realizations(2, post=True)
    finally:
        cl.shutdown()
    assert nested == []
    assert run_depths and set(run_depths) == {1}
