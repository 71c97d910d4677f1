"""The worker runtime, written once for every backend.

A cluster is P workers plus the master.  The master issues one collective at
a time; each collective runs a registered SPMD function on every worker.
Workers talk to each other only through tagged messages.  Every message
carries the collective's epoch so that leftovers from an aborted or finished
collective can never leak into the next one.

Each worker is one `WorkerCore`, whose `serve` runs the master's commands
and whose `Mailbox` takes in every message; the master is one `Cluster`,
whose `_dispatch` sends the commands and waits for the results.  A backend
only carries commands, results and payloads between them.
"""

import copy
import queue
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import registry
from ..errors import (BlockGPError, ClusterDown, NoSuchObject, WorkerFailure,
                      _CollectiveAborted)
from ..grid import ProcessGrid
from ..rng import RankStream

# phase labels used in message tags, in wire-encoding order
PHASES = ("diag", "col", "ps", "x")


@dataclass
class Message:
    """One tagged point-to-point payload.

    tag = (object name, phase label, block row I, block col J).  Messages
    from one src with one tag reach their receiver in send order.
    """

    src: int
    tag: tuple
    payload: object = None
    epoch: int = 0
    kind: str = "data"  # "data" | "abort" | "closed"


def copy_payload(x):
    if isinstance(x, np.ndarray):
        return np.array(x, copy=True)
    return copy.deepcopy(x)


class Mailbox:
    """Tag-matched blocking receive with epoch filtering."""

    def __init__(self):
        self._incoming = queue.SimpleQueue()
        self._stash = {}
        self._epoch = 0

    def put(self, src, tag, payload, epoch):
        """Take in one data message from src."""
        self._incoming.put(Message(src, tag, payload, epoch))

    def abort(self, src, epoch):
        """Take in src's abort of the collective of `epoch`."""
        self._incoming.put(Message(src, None, epoch=epoch, kind="abort"))

    def close(self):
        """Nothing can arrive any more: fail a waiting get and every later one."""
        self._incoming.put(Message(src=0, tag=None, kind="closed"))

    def begin_epoch(self, epoch):
        self._stash.clear()
        self._epoch = epoch

    def get(self, src, tag):
        key = (src, tag)
        while True:
            buf = self._stash.get(key)
            if buf:
                return buf.popleft()
            msg = self._incoming.get()
            if msg.kind == "closed":
                self._incoming.put(msg)
                raise _CollectiveAborted("no more messages can arrive")
            if msg.epoch < self._epoch:
                continue  # stale leftover from a previous collective
            if msg.kind == "abort":
                raise _CollectiveAborted("peer aborted the collective")
            self._stash.setdefault((msg.src, msg.tag), deque()).append(msg.payload)


@dataclass
class WorkerContext:
    """What an SPMD function sees on one worker."""

    rank: int
    coord: tuple
    grid: ProcessGrid
    store: dict
    stream: RankStream
    _send: object = None          # callable(dst_rank, tag, payload)
    _mailbox: Mailbox = None
    events: list = field(default_factory=list)
    events_enabled: bool = False

    def send(self, dst, tag, payload):
        """Send payload to the worker at grid coordinate dst.  A block sent
        is final for the rest of the collective: the sender must not write
        it again, since an in-process receiver may get it without a copy
        (read-only)."""
        self._send(self.grid.coord_to_rank(*dst), tag, payload)

    def recv(self, src, tag, shape):
        """The next payload with `tag` from the worker at grid coordinate
        src, reshaped to `shape`: a C-ordered, aligned float64 block that
        BLAS reads in place (read-only in-process)."""
        return self._mailbox.get(self.grid.coord_to_rank(*src),
                                 tag).reshape(shape)

    def fetch(self, name):
        try:
            return self.store[name]
        except KeyError:
            raise NoSuchObject(name, self.rank) from None

    def normals(self, count):
        return self.stream.standard_normals(count)

    def log_event(self, op, I, J):
        if self.events_enabled:
            self.events.append((time.monotonic_ns(), self.rank, op, I, J))


class WorkerCore:
    """One worker; the backend carries its sends (`send_fn`) and aborts
    (`abort_fn`), and delivers to its `mailbox`."""

    def __init__(self, rank, grid, seed, send_fn):
        self.rank = rank
        self.mailbox = Mailbox()
        self.epoch = 0
        self.ctx = WorkerContext(
            rank=rank, coord=grid.rank_to_coord(rank), grid=grid, store={},
            stream=RankStream(seed, rank),
            _send=send_fn, _mailbox=self.mailbox)
        self.abort_fn = None  # callable(), set by backend

    def serve(self, next_command, reply):
        """Run each command from next_command() and reply with its result,
        until ("shutdown",)."""
        while (cmd := next_command())[0] != "shutdown":
            reply(self.handle(cmd))

    def handle(self, cmd):
        """Execute one master command; returns (status, value)."""
        op = cmd[0]
        try:
            if op == "collective":
                _, epoch, fn_id, kwargs = cmd
                return self._collective(epoch, fn_id, kwargs)
            if op == "push":
                self.ctx.store[cmd[1]] = cmd[2]
                return ("ok", None)
            if op == "pull":
                return ("ok", copy_payload(self.ctx.fetch(cmd[1])))
            if op == "ls":
                return ("ok", sorted(self.ctx.store))
            if op == "rm":
                for name in cmd[1]:
                    self.ctx.store.pop(name, None)  # idempotent
                return ("ok", None)
            if op == "events":
                out, self.ctx.events = self.ctx.events, []
                return ("ok", out)
            if op == "set_events":
                self.ctx.events_enabled = cmd[1]
                return ("ok", None)
            raise BlockGPError(f"unknown command {op!r}")
        except Exception as exc:  # command errors never kill the worker loop
            return ("err", self.rank, exc)

    def _collective(self, epoch, fn_id, kwargs):
        self.epoch = epoch
        self.mailbox.begin_epoch(epoch)
        try:
            fn = registry.lookup(fn_id)
            return ("ok", fn(self.ctx, **kwargs))
        except _CollectiveAborted:
            return ("aborted", None)
        except Exception as exc:
            if self.abort_fn is not None:
                self.abort_fn()
            return ("err", self.rank, exc)


class Cluster:
    """Master-side handle; concrete backends implement _command and _stop,
    and put each rank's results, in order, on its `_res_q`."""

    def __init__(self, grid):
        self.grid = grid
        self.state = "running"
        self.epoch = 0
        self.stats = {"collectives": 0}
        self.failure = None  # a WorkerFailure after which no work is accepted
        self._res_q = {r: queue.SimpleQueue() for r in self._all()}

    # -- backend hooks -------------------------------------------------
    def _command(self, rank, cmd):
        """Send one command to one rank."""
        raise NotImplementedError

    def _stop(self):
        raise NotImplementedError

    def _dispatch(self, cmds):
        """Send each rank its command ({rank: cmd}), return the results in
        the same order."""
        for t, cmd in cmds.items():
            self._command(t, cmd)
        results = [self._res_q[t].get() for t in cmds]
        self._check_up()  # a lost worker wakes the wait with None results
        return results

    # -- public API ----------------------------------------------------
    @property
    def P(self):
        return self.grid.P

    def _check_up(self):
        if self.state != "running":
            raise ClusterDown("cluster has been shut down")
        if self.failure is not None:
            raise WorkerFailure(self.failure.rank, self.failure.cause)

    def _all(self):
        return list(range(1, self.P + 1))

    def _gather(self, targets, cmd):
        return self._gather_each(dict.fromkeys(targets, cmd))

    def _gather_each(self, cmds):
        self._check_up()
        results = self._dispatch(cmds)
        err = None
        for status, *rest in results:
            if status == "err":
                rank, exc = rest
                if err is None or rank < err[0]:
                    err = (rank, exc)
        if err is not None:
            rank, exc = err
            if isinstance(exc, BlockGPError):
                raise exc
            raise WorkerFailure(rank, exc)
        return [rest[0] for status, *rest in results]

    def run(self, fn_id, **kwargs):
        """Run a registered SPMD function on every worker; returns per-rank results."""
        self._check_up()
        self.epoch += 1
        self.stats["collectives"] += 1
        return self._gather(self._all(), ("collective", self.epoch, fn_id, kwargs))

    def push(self, name, value):
        """Store a copy of value under name on every rank, in one dispatch."""
        self.scatter(name, {t: copy_payload(value) for t in self._all()})

    def scatter(self, name, per_rank_values):
        """Store a different value under the same name on each rank, in one
        dispatch.  The values are handed over, not copied: the caller must
        not keep using them."""
        self._gather_each({rank: ("push", name, value)
                           for rank, value in per_rank_values.items()})

    def pull(self, name, source):
        return self._gather([source], ("pull", name))[0]

    def remote_ls(self, rank):
        return self._gather([rank], ("ls",))[0]

    def remote_rm(self, names):
        """Remove one name, or a list of names, from every worker in one
        dispatch; absent names are fine."""
        if isinstance(names, str):
            names = [names]
        self._gather(self._all(), ("rm", list(names)))

    def set_events(self, enabled):
        self._gather(self._all(), ("set_events", bool(enabled)))

    def drain_events(self):
        """Collect and clear all worker event logs, merged in time order."""
        per_rank = self._gather(self._all(), ("events",))
        merged = [e for evs in per_rank for e in evs]
        merged.sort()
        return merged

    def shutdown(self):
        if self.state == "running":
            self.state = "shutting-down"
            self._stop()
            self.state = "shutdown"
