"""Worker-side probe of the traced run.

Wraps the public entry points the workers call through: `registry.lookup`
(every collective kernel and every `gen.*` generator it hands out), and
`WorkerContext.send`, `recv` and `normals`.  Counters are kept per rank in
memory and fetched by the master with the `perfbench.drain` collective,
which works the same way on both backends: in-process workers share this
module with the master, socket workers load it through probe_worker.py.
"""

import threading
import time

import numpy as np

from blockgp import registry
from blockgp.transport.base import WorkerContext

DRAIN_ID = "perfbench.drain"


def _empty():
    return {"msgs": {}, "bytes": {}, "recv_wait_s": 0.0, "gen_s": 0.0,
            "gen_entries": 0, "normals": 0,
            "kernels": []}  # (fn_id, wall, busy) per collective, in order


class Probe:

    def __init__(self):
        self._stats = {}
        self._local = threading.local()  # .rank: whose kernel runs here
        self._saved = None

    def _rank(self, rank):
        # each rank's counters are only touched by that rank's own thread
        return self._stats.setdefault(rank, _empty())

    def drain(self, rank):
        return self._stats.pop(rank, _empty())

    # -- wrappers --------------------------------------------------------
    def _kernel(self, fn_id, fn):
        def timed(*args, **kwargs):
            if not (args and isinstance(args[0], WorkerContext)):
                return fn(*args, **kwargs)  # elementwise op of core.apply
            st = self._rank(args[0].rank)
            self._local.rank = args[0].rank
            wait0 = st["recv_wait_s"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                st["kernels"].append(
                    (fn_id, wall, wall - (st["recv_wait_s"] - wait0)))
        return timed

    def _generator(self, fn):
        def timed(params, inputs, i, *rest):
            t0 = time.perf_counter()
            out = fn(params, inputs, i, *rest)
            st = self._rank(self._local.rank)
            st["gen_s"] += time.perf_counter() - t0
            st["gen_entries"] += len(i)
            return out
        return timed

    def install(self):
        lookup = registry.lookup
        send, recv = WorkerContext.send, WorkerContext.recv
        normals = WorkerContext.normals
        self._saved = (lookup, send, recv, normals)

        def probed_lookup(fn_id):
            fn = lookup(fn_id)
            if fn_id.startswith("gen."):
                return self._generator(fn)
            if fn_id == DRAIN_ID:
                return fn
            return self._kernel(fn_id, fn)

        def probed_send(ctx, dst, tag, payload):
            st = self._rank(ctx.rank)
            phase = tag[1]
            st["msgs"][phase] = st["msgs"].get(phase, 0) + 1
            st["bytes"][phase] = (st["bytes"].get(phase, 0)
                                  + int(np.asarray(payload).nbytes))
            return send(ctx, dst, tag, payload)

        def probed_recv(ctx, src, tag, shape=None):
            t0 = time.perf_counter()
            try:
                return recv(ctx, src, tag, shape)
            finally:
                self._rank(ctx.rank)["recv_wait_s"] += time.perf_counter() - t0

        def probed_normals(ctx, count):
            self._rank(ctx.rank)["normals"] += int(count)
            return normals(ctx, count)

        registry.lookup = probed_lookup
        WorkerContext.send = probed_send
        WorkerContext.recv = probed_recv
        WorkerContext.normals = probed_normals
        registry.register(DRAIN_ID, lambda ctx: self.drain(ctx.rank))

    def uninstall(self):
        registry.lookup, WorkerContext.send, WorkerContext.recv, \
            WorkerContext.normals = self._saved
        self._stats.clear()
