"""Master-side tracing for the traced run.

Spans are recorded around the public entry points of each layer, from the
benchmark's side of the API:

  gp.problem   KrigeProblem.log_density / predict / simulate_realizations /
               optimize_log_dens (wrapped on the problem instance)
  distla       the public `blockgp.distla.*` functions, wrapped on the module
               object that gp.problem calls through
  transport    Cluster.run (one span per collective) and, on the socket
               backend, the master relay's `encode_data`

Spans stay in memory; `write_trace` writes them, with the workers' per-block
events, as Trace Event Format JSON when the benchmark ends.
"""

import contextlib
import json
import os
import subprocess
import threading
import time

import blockgp
from blockgp import distla
from blockgp.distla import DistVector
from blockgp.transport import socketbackend

from probe import DRAIN_ID

PROBLEM_OPS = ("log_density", "predict", "simulate_realizations",
               "optimize_log_dens")

# public distla entry point -> layer metric it is billed to
DISTLA_LAYERS = {
    "construct_distributed": "construct",
    "distributed_cholesky": "cholesky",
    "triangular_solve": None,  # solve_vector or solve_rect, by rhs type
    "crossprod_mat_vec": "xprod",
    "crossprod_self": "xprod",
    "crossprod_self_diag": "xprod",
    "mult_chol": "mult",
    "construct_rnorm_distributed": "rnorm",
    "collect": "collect",
    "collect_diagonal": "collect",
    "log_det_from_chol": "reduce",
    "sum_squares": "reduce",
}
DISTLA_METRICS = ("construct", "cholesky", "solve_vector", "solve_rect",
                  "xprod", "mult", "rnorm", "collect", "reduce")
PHASES = ("diag", "col", "ps", "x", "gen")


class Tracer:
    """In-memory spans: [name, start, end, parent index, extra dict]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.relay = {"frames": 0, "bytes": 0}
        self._relay_lock = threading.Lock()

    def reset(self):
        self.spans, self._stack = [], []
        self.relay = {"frames": 0, "bytes": 0}

    @contextlib.contextmanager
    def span(self, name, **extra):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, extra]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, name_of, fn):
        def traced(*args, **kwargs):
            name = name_of(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if name == "distla.cholesky":  # (L, per-rank residency)
                    rec[4]["result"] = out
                return out
        return traced

    # -- installers ------------------------------------------------------
    def trace_problem(self, problem):
        for op in PROBLEM_OPS:
            setattr(problem, op, self.wrap(lambda *a, _op=op, **k: "op." + _op,
                                           getattr(problem, op)))

    def trace_cluster(self, cluster):
        run = cluster.run

        def traced_run(fn_id, **kwargs):
            if fn_id == DRAIN_ID:
                return run(fn_id, **kwargs)
            with self.span("collective." + fn_id):
                return run(fn_id, **kwargs)
        cluster.run = traced_run

    @contextlib.contextmanager
    def trace_distla(self):
        saved = {name: getattr(distla, name) for name in DISTLA_LAYERS}

        def layer_of(name):
            if name != "triangular_solve":
                return lambda *a, **k: "distla." + DISTLA_LAYERS[name]
            return lambda cluster, L, rhs, *a, **k: (
                "distla.solve_vector" if isinstance(rhs, DistVector)
                else "distla.solve_rect")
        for name, fn in saved.items():
            setattr(distla, name, self.wrap(layer_of(name), fn))
        encode = socketbackend.encode_data

        def counted_encode(src, dst, epoch, tag, payload):
            frame = encode(src, dst, epoch, tag, payload)
            with self._relay_lock:
                self.relay["frames"] += 1
                self.relay["bytes"] += len(frame)
            return frame
        socketbackend.encode_data = counted_encode
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(distla, name, fn)
            socketbackend.encode_data = encode


class _ProbeSpawner:
    """Stands in for `subprocess` inside socketbackend while spawning, so the
    workers start as probe_worker.py with the same arguments."""

    def __getattr__(self, name):
        return getattr(subprocess, name)

    @staticmethod
    def Popen(cmd, **kwargs):
        module = ["-m", "blockgp.transport.socket_worker"]
        if cmd[1:3] == module:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [cmd[0], os.path.join(here, "probe_worker.py")] + cmd[3:]
        return subprocess.Popen(cmd, **kwargs)


def spawn_probed(P, seed):
    """A socket cluster whose workers run the probe."""
    socketbackend.subprocess = _ProbeSpawner()
    try:
        return blockgp.spawn(P, "multi-process-socket", seed=seed,
                             blas_threads=1)
    finally:
        socketbackend.subprocess = subprocess


def drain(cluster):
    """Per-rank probe counters since the last drain, in rank order."""
    return cluster.run(DRAIN_ID)


def _dur(s):
    return s[2] - s[1]


def layer_metrics(tracer, ranks, events, ops):
    """Per-layer metrics of one traced pass, normalised per workload op.

    Also returns the exact counts that must repeat between passes.
    """
    spans = tracer.spans
    m = {}
    top_ops = [s for s in spans
               if s[0].startswith("op.") and (s[3] is None)]
    op_wall = sum(_dur(s) for s in top_ops)
    colls = [s for s in spans if s[0].startswith("collective.")]
    coll_wall = sum(_dur(s) for s in colls)
    m["gp.problem.master_s"] = (op_wall - coll_wall) / ops
    layer = {k: 0.0 for k in DISTLA_METRICS}
    chol_flops = chol_time = 0.0
    peak = over_bound = 0
    for s in spans:
        if s[0].startswith("distla."):
            layer[s[0][len("distla."):]] += _dur(s)
            if s[0] == "distla.cholesky":
                _L, stats = s[4]["result"]
                n = _L.layout.n
                chol_flops += n ** 3 / 3.0
                chol_time += _dur(s)
                call_peak = max(st["peak_blocks"] for st in stats)
                peak = max(peak, call_peak)
                over_bound += call_peak > _L.layout.h ** 2 + 4
    for k, v in layer.items():
        m[f"distla.{k}_s"] = v / ops
    m["distla.cholesky_gflops"] = (chol_flops / chol_time / 1e9
                                   if chol_time else 0.0)
    busy = [sum(k[2] for k in r["kernels"]) for r in ranks]
    for rank, b in enumerate(busy, 1):
        m[f"distla.worker_busy_s.r{rank}"] = b / ops
    m["distla.imbalance"] = max(busy) / (sum(busy) / len(busy))
    m["distla.cholesky.peak_blocks"] = peak
    m["distla.block_events"] = len(events) / ops
    gen_s = sum(r["gen_s"] for r in ranks)
    m["gp.kernels.gen_s"] = gen_s / ops
    m["gp.kernels.entries_per_s"] = (sum(r["gen_entries"] for r in ranks)
                                     / gen_s if gen_s else 0.0)
    m["transport.collectives_per_op"] = len(colls) / ops
    for ph in PHASES:
        m[f"transport.msgs.{ph}"] = sum(r["msgs"].get(ph, 0)
                                        for r in ranks) / ops
        m[f"transport.bytes.{ph}"] = sum(r["bytes"].get(ph, 0)
                                         for r in ranks) / ops
    m["transport.recv_wait_s"] = sum(r["recv_wait_s"] for r in ranks) / ops
    per_rank = [r["kernels"] for r in ranks]
    if any(len(k) != len(colls) for k in per_rank):
        raise RuntimeError("worker kernel log does not match the collectives")
    overhead = 0.0
    for i, c in enumerate(colls):
        if any(k[i][0] != c[0][len("collective."):] for k in per_rank):
            raise RuntimeError("worker kernel log out of collective order")
        overhead += _dur(c) - max(k[i][1] for k in per_rank)
    m["transport.dispatch_overhead_s"] = overhead / ops
    m["transport.relay_frames"] = tracer.relay["frames"] / ops
    m["transport.relay_bytes"] = tracer.relay["bytes"] / ops
    normals = sum(r["normals"] for r in ranks)
    m["rng.normals_per_s"] = (normals / layer["rnorm"]
                              if layer["rnorm"] else 0.0)
    m["trace.coverage"] = ((m["gp.problem.master_s"]
                            + sum(m[f"distla.{k}_s"] for k in DISTLA_METRICS))
                           * ops / op_wall)
    exact = {
        "collectives": len(colls),
        "msgs": {ph: sum(r["msgs"].get(ph, 0) for r in ranks)
                 for ph in PHASES},
        "bytes": {ph: sum(r["bytes"].get(ph, 0) for r in ranks)
                  for ph in PHASES},
        "peak_blocks": peak,
        "peak_over_bound": over_bound,  # Cholesky calls above h^2 + 4
        "block_events": len(events),
    }
    return m, exact, op_wall


def write_trace(path, passes):
    """Trace Event Format JSON (chrome://tracing, Perfetto) of the spans and
    per-block worker events of each pass; one thread row per pass."""
    events = []
    for k, (spans, block_events) in enumerate(passes):
        for name, start, end, _parent, _extra in spans:
            events.append({"name": name, "ph": "X", "pid": 0, "tid": k,
                           "ts": start * 1e6, "dur": (end - start) * 1e6})
        for t_ns, rank, op, I, J in block_events:
            events.append({"name": op, "ph": "i", "s": "t", "pid": rank,
                           "tid": k, "ts": t_ns / 1e3,
                           "args": {"I": I, "J": J}})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
