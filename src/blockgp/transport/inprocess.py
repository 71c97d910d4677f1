"""In-process backend: one thread per worker, queue-based mailboxes.

This is the reference backend used by the test suite.  Each thread serves
one `WorkerCore` from its own command queue, and the tagged message queues
are the only channel between workers, as with a real distributed
deployment.  A block a worker sends is final for the rest of its
collective, so the receiver gets a read-only view of it instead of a copy;
any other payload arrives as a read-only C-ordered float64 copy, like the
wire's.  No store ever holds another worker's memory: a kernel reads what
it receives and writes only its own blocks.
"""

import queue
import threading

import numpy as np

from .base import Cluster, WorkerCore


class InProcessCluster(Cluster):

    def __init__(self, grid, seed):
        super().__init__(grid)
        self._workers, self._cmd_q, self._threads = {}, {}, []
        for rank in self._all():
            core = WorkerCore(rank, grid, seed,
                              send_fn=lambda dst, tag, payload, rank=rank:
                              self._deliver(rank, dst, tag, payload))
            core.abort_fn = lambda rank=rank: self._abort_from(rank)
            self._workers[rank] = core
            self._cmd_q[rank] = queue.SimpleQueue()
            self._threads.append(threading.Thread(
                target=core.serve,
                args=(self._cmd_q[rank].get, self._res_q[rank].put),
                daemon=True, name=f"blockgp-worker-{rank}"))
        for t in self._threads:
            t.start()

    def _deliver(self, src, dst, tag, payload):
        """Hand dst a read-only C-ordered float64 payload, as the wire
        delivers it (a block's memory order steers BLAS, so an F-ordered
        one would round differently from the socket backend): a view of a
        sent block, which is final for the rest of its collective, and a
        copy of any other payload."""
        payload = np.require(payload, np.float64, "CA").view()
        payload.flags.writeable = False
        self._workers[dst].mailbox.put(src, tag, payload, self.epoch)

    def _abort_from(self, src):
        for rank, core in self._workers.items():
            if rank != src:
                core.mailbox.abort(src, self.epoch)

    def _command(self, rank, cmd):
        self._cmd_q[rank].put(cmd)

    def _stop(self):
        for q in self._cmd_q.values():
            q.put(("shutdown",))
        for t in self._threads:
            t.join(timeout=10)
