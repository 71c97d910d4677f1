"""Multi-process backend: workers are subprocesses, each connected to the
master by its own socket pair.

The master starts each rank's worker with one end of a fresh
`socket.socketpair()`, so every frame on a connection is from the rank at its
other end, and a worker that dies makes the master's end read EOF.  The
master relays worker-to-worker data frames (star topology); per-channel
ordering is preserved because each (src, dst) pair's traffic flows through
one stream on each hop and the relay forwards frames in arrival order.

A worker whose connection closes or breaks while the cluster runs, or that
sends a frame the master cannot decode, is a `WorkerFailure` attributed to
that rank: the running collective is aborted on the other ranks, and the
cluster refuses all further work with it.  A worker that receives a frame it
cannot decode drops its connection, so it is lost the same way.
"""

import contextlib
import os
import selectors
import socket
import subprocess
import sys
import threading
import time

from ..errors import BackendUnavailable, WorkerFailure
from .base import Cluster
from .wire import decode_body, encode_control, encode_data, read_frame

_SPAWN_TIMEOUT = 60.0
_HELLO = ("control", {"kind": "hello"})


class SocketCluster(Cluster):

    def __init__(self, grid, seed, blas_threads=None):
        super().__init__(grid)
        self._socks = {}
        self._locks = {}
        self._procs = []
        self._fail_lock = threading.Lock()
        env = None
        if blas_threads is not None:
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = str(blas_threads)
        try:
            for rank in self._all():
                self._socks[rank], child = socket.socketpair()
                self._locks[rank] = threading.Lock()
                with child:  # the worker holds the only other copy
                    self._procs.append(subprocess.Popen(
                        [sys.executable, "-m",
                         "blockgp.transport.socket_worker",
                         str(child.fileno()), str(rank), str(grid.D),
                         str(seed)], env=env, pass_fds=(child.fileno(),)))
            self._handshake()
        except OSError as exc:  # no socket pair or no process to be had
            self._kill()
            raise BackendUnavailable(
                f"cannot start socket workers: {exc}") from exc
        except BaseException:
            self._kill()
            raise
        for rank in self._all():
            t = threading.Thread(target=self._reader, args=(rank,),
                                 daemon=True, name=f"blockgp-relay-{rank}")
            t.start()

    def _handshake(self):
        """Read one hello from each rank, waiting on all of them at once.  A
        worker that exits or sends any other frame first fails the spawn at
        once, naming its rank; one that never says hello fails it after
        _SPAWN_TIMEOUT."""
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        with selectors.DefaultSelector() as pending:
            for rank in self._all():
                pending.register(self._socks[rank], selectors.EVENT_READ, rank)
            while pending.get_map():
                ready = pending.select(max(0.0, deadline - time.monotonic()))
                if not ready:
                    ranks = sorted(k.data for k in pending.get_map().values())
                    raise BackendUnavailable(
                        f"worker handshake failed: ranks {ranks} sent no "
                        f"hello within {_SPAWN_TIMEOUT:g} s")
                for key, _ in ready:
                    pending.unregister(key.fileobj)
                    self._hello(key.data)

    def _hello(self, rank):
        """Read a rank's first frame, which must be its hello."""
        try:
            body = read_frame(self._socks[rank])
            first = None if body is None else decode_body(body)
        except Exception as exc:  # a broken or undecodable frame
            raise BackendUnavailable(
                f"worker rank {rank} failed its handshake: {exc}") from exc
        if first is None:
            code = self._procs[rank - 1].wait()
            raise BackendUnavailable(f"worker rank {rank} exited with code "
                                     f"{code} before its handshake")
        if first != _HELLO:
            raise BackendUnavailable(
                f"worker rank {rank} failed its handshake: its first frame "
                f"is a {first[0]} frame, not a hello")

    def _write(self, rank, frame):
        """Send a frame to a rank; a broken connection fails that rank."""
        try:
            with self._locks[rank]:
                self._socks[rank].sendall(frame)
        except OSError as exc:
            self._lost(rank, exc)

    def _abort_others(self, src, epoch):
        frame = encode_control({"kind": "abort", "src": src, "epoch": epoch})
        for other in self._all():
            if other != src:
                self._write(other, frame)

    def _lost(self, rank, cause):
        """Record the first lost worker, abort the collective on the others
        and wake the master if it waits for results."""
        with self._fail_lock:
            if self.state != "running" or self.failure is not None:
                return
            self.failure = WorkerFailure(rank, ConnectionError(
                f"worker {rank} connection lost: {cause}"))
        self._abort_others(rank, self.epoch)
        for other in self._all():
            self._res_q[other].put(None)

    def _reader(self, rank):
        """Serve one rank's connection: every frame on it is from `rank`."""
        sock = self._socks[rank]
        try:
            while True:
                body = read_frame(sock)
                if body is None:
                    raise ConnectionError("connection closed")
                decoded = decode_body(body)
                if decoded[0] == "data":
                    _, _, dst, epoch, tag, payload = decoded
                    self._write(dst, encode_data(rank, dst, epoch, tag,
                                                 payload))
                    continue
                obj = decoded[1]
                if obj["kind"] == "result":
                    self._res_q[rank].put(obj["value"])
                elif obj["kind"] == "abort":
                    self._abort_others(rank, obj["epoch"])
        except Exception as exc:  # a broken connection or an undecodable frame
            self._lost(rank, exc)

    def _command(self, rank, cmd):
        self._write(rank, encode_control({"kind": "command", "cmd": cmd}))

    def _stop(self):
        for rank in self._all():
            self._command(rank, ("shutdown",))
        for proc in self._procs:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=10)
        self._kill()  # reaps what did not exit within 10 s

    def _kill(self):
        for proc in self._procs:
            proc.kill()
            proc.wait()
        for sock in self._socks.values():
            sock.close()
