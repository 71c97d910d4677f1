"""Multi-process backend: workers are subprocesses, messages go over TCP.

The master listens on a loopback socket and relays worker-to-worker data
frames (star topology); per-channel ordering is preserved because each
(src, dst) pair's traffic flows through a single TCP connection on each hop
and the relay forwards frames in arrival order.

A worker whose connection closes or breaks while the cluster runs, or that
sends a frame the master cannot decode, is a `WorkerFailure` attributed to
that rank: the running collective is aborted on the other ranks, and the
cluster refuses all further work with it.  A worker that receives a frame it
cannot decode drops its connection, so it is lost the same way.
"""

import socket
import subprocess
import sys
import threading
import time

from ..errors import BackendUnavailable, WorkerFailure
from .base import Cluster
from .wire import (decode_body, encode_control, encode_data, nodelay,
                   read_frame)

_SPAWN_TIMEOUT = 60.0
_SPAWN_POLL = 0.1  # seconds between checks for a worker that has exited


class SocketCluster(Cluster):

    def __init__(self, grid, seed, blas_threads=None):
        super().__init__(grid)
        self._socks = {}
        self._locks = {}
        self._procs = []
        self._fail_lock = threading.Lock()
        try:
            self._listener = socket.create_server(("127.0.0.1", 0))
        except OSError as exc:
            raise BackendUnavailable(f"cannot open loopback socket: {exc}")
        port = self._listener.getsockname()[1]
        env = None
        if blas_threads is not None:
            import os
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = str(blas_threads)
        for rank in self._all():
            self._procs.append(subprocess.Popen(
                [sys.executable, "-m", "blockgp.transport.socket_worker",
                 str(port), str(rank), str(grid.D), str(seed)], env=env))
        try:
            self._handshake()
        except BaseException:
            self._kill()
            raise
        for rank in self._all():
            t = threading.Thread(target=self._reader, args=(rank,),
                                 daemon=True, name=f"blockgp-relay-{rank}")
            t.start()

    def _handshake(self):
        """Accept one hello per rank.  A worker that exits first fails the
        spawn at once; one that never says hello fails it after
        _SPAWN_TIMEOUT."""
        self._listener.settimeout(_SPAWN_POLL)
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        pending = set(self._all())
        while pending:
            try:
                conn = nodelay(self._listener.accept()[0])
            except socket.timeout:
                for rank in sorted(pending):
                    code = self._procs[rank - 1].poll()
                    if code is not None:
                        raise BackendUnavailable(
                            f"worker rank {rank} exited with code {code} "
                            f"before its handshake") from None
                if time.monotonic() > deadline:
                    raise BackendUnavailable(
                        f"worker handshake failed: ranks {sorted(pending)} "
                        f"did not connect within {_SPAWN_TIMEOUT:.0f} s"
                    ) from None
                continue
            kind, hello = decode_body(read_frame(conn))
            if kind != "control" or hello["kind"] != "hello":
                raise BackendUnavailable(
                    f"worker handshake failed: unexpected frame {hello!r}")
            rank = hello["rank"]
            self._socks[rank] = conn
            self._locks[rank] = threading.Lock()
            pending.discard(rank)

    def _write(self, rank, frame):
        """Send a frame to a rank; a broken connection fails that rank."""
        try:
            with self._locks[rank]:
                self._socks[rank].sendall(frame)
        except OSError as exc:
            self._lost(rank, exc)

    def _lost(self, rank, cause):
        """Record the first lost worker, abort the collective on the others
        and wake the master if it waits for results."""
        with self._fail_lock:
            if self.state != "running" or self.failure is not None:
                return
            self.failure = WorkerFailure(rank, ConnectionError(
                f"worker {rank} connection lost: {cause}"))
        abort = encode_control({"kind": "abort", "src": rank,
                                "epoch": self.epoch})
        for other in self._all():
            if other != rank:
                self._write(other, abort)
            self._res_q[other].put(None)

    def _reader(self, rank):
        sock = self._socks[rank]
        try:
            while True:
                body = read_frame(sock)
                if body is None:
                    raise ConnectionError("connection closed")
                decoded = decode_body(body)
                if decoded[0] == "data":
                    _, src, dst, epoch, tag, payload = decoded
                    self._write(dst, encode_data(src, dst, epoch, tag, payload))
                    continue
                obj = decoded[1]
                if obj["kind"] == "result":
                    self._res_q[obj["rank"]].put(obj["value"])
                elif obj["kind"] == "abort":
                    frame = encode_control(obj)
                    for other in self._all():
                        if other != obj["src"]:
                            self._write(other, frame)
        except Exception as exc:  # a broken connection or an undecodable frame
            self._lost(rank, exc)

    def _command(self, rank, cmd):
        self._write(rank, encode_control({"kind": "command", "cmd": cmd}))

    def _stop(self):
        for rank in list(self._socks):
            self._command(rank, ("shutdown",))
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        for sock in self._socks.values():
            sock.close()
        self._listener.close()

    def _kill(self):
        for proc in self._procs:
            proc.kill()
            proc.wait()
        for sock in self._socks.values():
            sock.close()
        self._listener.close()
