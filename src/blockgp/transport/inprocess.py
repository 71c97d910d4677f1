"""In-process backend: one thread per worker, queue-based mailboxes.

This is the reference backend used by the test suite.  Workers share nothing:
every payload is copied on send, in C order like the wire's, so the only
communication channel is the tagged message queues, exactly as with a real
distributed deployment.
"""

import queue
import threading

import numpy as np

from .base import Cluster, Message, WorkerCore


class _WorkerThread:

    def __init__(self, rank, grid, seed, deliver):
        self.rank = rank
        self.cmd_q = queue.SimpleQueue()
        self.res_q = queue.SimpleQueue()
        self.core = WorkerCore(rank, grid, seed,
                               send_fn=lambda dst, tag, payload:
                               deliver(rank, dst, tag, payload))
        self.thread = threading.Thread(target=self._serve, daemon=True,
                                       name=f"blockgp-worker-{rank}")

    def _serve(self):
        while True:
            cmd = self.cmd_q.get()
            if cmd[0] == "shutdown":
                self.res_q.put(("ok", None))
                return
            self.res_q.put(self.core.handle(cmd))


class InProcessCluster(Cluster):

    def __init__(self, grid, seed):
        super().__init__(grid)
        self._workers = {}
        for rank in self._all():
            self._workers[rank] = _WorkerThread(rank, grid, seed, self._deliver)
        for w in self._workers.values():
            w.core.abort_fn = lambda rank=w.rank: self._abort_from(rank)
            w.thread.start()

    def _deliver(self, src, dst, tag, payload):
        """Hand dst a C-ordered copy, as the wire delivers it: a block's
        memory order steers BLAS, so an F-ordered copy would round
        differently from the socket backend."""
        w = self._workers[dst]
        w.core.mailbox.put(Message(src=src, tag=tag,
                                   payload=np.array(payload, order="C"),
                                   epoch=self.epoch))

    def _abort_from(self, src):
        for rank, w in self._workers.items():
            if rank != src:
                w.core.mailbox.put(Message(src=src, tag=None,
                                           epoch=self.epoch, kind="abort"))

    def _dispatch(self, cmds):
        for t, cmd in cmds.items():
            self._workers[t].cmd_q.put(cmd)
        return [self._workers[t].res_q.get() for t in cmds]

    def _stop(self):
        for w in self._workers.values():
            w.cmd_q.put(("shutdown",))
        for w in self._workers.values():
            w.res_q.get()
            w.thread.join(timeout=10)
