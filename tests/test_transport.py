"""Worker runtime: object store, collectives, error propagation, backends."""

import ast
import os
import pathlib
import queue
import socket
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

import blockgp
from blockgp import distla, registry, spawn
from blockgp.errors import (BackendUnavailable, ClusterDown, ConfigError,
                            NoSuchObject, NotTriangularNumber,
                            UnknownFunction, WorkerFailure)
from blockgp.rng import RankStream
from blockgp.transport import socket_worker, socketbackend, wire

from conftest import spd_matrix


@registry.register("test.rank_and_coord")
def _rank_and_coord(ctx):
    return ctx.rank, ctx.coord


class TestSpawn:
    def test_single_worker(self, cluster_factory):
        cl = cluster_factory(1, seed=42)
        assert cl.grid.D == 1 and cl.P == 1

    def test_ten_workers_order_four(self, cluster_factory):
        cl = cluster_factory(10, seed=42)
        assert cl.grid.D == 4

    def test_non_triangular_count(self):
        with pytest.raises(NotTriangularNumber):
            spawn(8)

    def test_unknown_backend(self):
        with pytest.raises(BackendUnavailable):
            spawn(3, backend="smoke-signals")

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "7", True, 2 ** 64,
                                      np.float64(3.0)])
    def test_invalid_seed_rejected_before_workers_start(self, seed):
        threads = set(threading.enumerate())
        with pytest.raises(ConfigError, match="seed"):
            spawn(3, seed=seed)
        assert set(threading.enumerate()) <= threads  # no worker started

    @pytest.mark.parametrize("backend", ["in-process",
                                         "multi-process-socket"])
    @pytest.mark.parametrize("blas_threads", [0, -1, 1.5, "2", True,
                                              np.float64(2.0)])
    def test_invalid_blas_threads_rejected_before_workers_start(
            self, monkeypatch, backend, blas_threads):
        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was started")
        monkeypatch.setattr(subprocess, "Popen", no_process)
        threads = set(threading.enumerate())
        with pytest.raises(ConfigError, match="blas_threads"):
            spawn(3, backend, blas_threads=blas_threads)
        assert set(threading.enumerate()) <= threads  # no worker started

    @pytest.mark.parametrize("blas_threads", [None, 1, np.int64(2)])
    def test_in_process_accepts_valid_blas_threads(
            self, cluster_factory, blas_threads):
        cl = cluster_factory(3, blas_threads=blas_threads)
        assert cl.run("test.rank_and_coord") == [
            (rank, cl.grid.rank_to_coord(rank)) for rank in range(1, 4)]

    @pytest.mark.parametrize("seed", [0, np.int32(7), np.uint64(2 ** 64 - 1),
                                      2 ** 64 - 1])
    def test_integer_seeds_key_the_streams(self, cluster_factory, seed):
        cl = cluster_factory(1, seed=seed)
        layout = distla.make_layout(5, cl.grid, h=1)
        z = distla.construct_rnorm_distributed(cl, "z", "vector", layout)
        np.testing.assert_array_equal(
            distla.collect(cl, z), RankStream(int(seed), 1).standard_normals(5))

    def test_kernels_see_their_rank_and_coordinate(self, cluster_factory):
        cl = cluster_factory(3)
        assert cl.run("test.rank_and_coord") == [
            (rank, cl.grid.rank_to_coord(rank)) for rank in range(1, 4)]


class TestObjectStore:
    def test_push_pull_round_trip(self, cluster_factory):
        cl = cluster_factory(10)
        theta = np.array([1.0, 2.5, 0.125])
        cl.push("theta", theta)
        np.testing.assert_array_equal(cl.pull("theta", 7), theta)

    def test_pull_unknown_name(self, cluster_factory):
        cl = cluster_factory(3)
        with pytest.raises(NoSuchObject):
            cl.pull("missing", 2)

    def test_ls_reflects_store(self, cluster_factory):
        cl = cluster_factory(3)
        assert cl.remote_ls(1) == []
        cl.push("theta", 1.0)
        for rank in range(1, 4):
            assert "theta" in cl.remote_ls(rank)

    def test_rm_removes_everywhere_and_is_idempotent(self, cluster_factory):
        cl = cluster_factory(3)
        cl.push("x", 5.0)
        cl.remote_rm("x")
        cl.remote_rm("x")  # absent name is fine
        assert "x" not in cl.remote_ls(2)
        with pytest.raises(NoSuchObject):
            cl.pull("x", 1)

    def test_rm_takes_a_list_in_one_dispatch(self, cluster_factory):
        cl = cluster_factory(3)
        for name in ("a", "b", "c"):
            cl.push(name, 1.0)
        dispatch, sent = cl._dispatch, []
        cl._dispatch = lambda cmds: sent.append(cmds) or dispatch(cmds)
        cl.remote_rm(["a", "b", "absent"])
        assert len(sent) == 1
        assert cl.remote_ls(2) == ["c"]

    def test_no_hidden_sharing(self, cluster_factory):
        cl = cluster_factory(1)
        x = np.arange(4.0)
        cl.push("x", x)
        x[:] = -1.0
        np.testing.assert_array_equal(cl.pull("x", 1), np.arange(4.0))

    def test_push_is_one_dispatch_with_a_copy_per_rank(self, cluster_factory):
        cl = cluster_factory(6)
        dispatch, sent = cl._dispatch, []
        cl._dispatch = lambda cmds: sent.append(sorted(cmds)) or dispatch(cmds)
        cl.push("x", np.arange(4.0))
        assert sent == [[1, 2, 3, 4, 5, 6]]
        stored = [w.ctx.store["x"] for w in cl._workers.values()]
        assert len({id(x) for x in stored}) == 6


@registry.register("test.fail_on_rank_two")
def _fail_on_rank_two(ctx):
    if ctx.rank == 2:
        raise ValueError("deliberate failure")
    return ctx.rank


@registry.register("test.echo_rank")
def _echo_rank(ctx):
    return ctx.rank


@registry.register("test.fetch")
def _fetch(ctx, name):
    ctx.fetch(name)


class TestErrorPropagation:
    def test_worker_failure_carries_rank(self, cluster_factory):
        cl = cluster_factory(3)
        with pytest.raises(WorkerFailure) as info:
            cl.run("test.fail_on_rank_two")
        assert info.value.rank == 2

    def test_missing_object_names_the_lowest_failing_rank(self,
                                                          cluster_factory):
        cl = cluster_factory(6)
        cl.scatter("a", {1: 1.0, 3: 1.0})
        with pytest.raises(NoSuchObject) as info:
            cl.run("test.fetch", name="a")
        assert info.value.rank == 2

    def test_unknown_function(self, cluster_factory):
        cl = cluster_factory(3)
        with pytest.raises(UnknownFunction):
            cl.run("no.such.fn")
        assert cl.run("test.echo_rank") == [1, 2, 3]

    def test_cluster_survives_failed_collective(self, cluster_factory):
        cl = cluster_factory(3)
        with pytest.raises(WorkerFailure):
            cl.run("test.fail_on_rank_two")
        assert cl.run("test.echo_rank") == [1, 2, 3]

    def test_failed_collective_does_not_poison_messaging(self, cluster_factory):
        cl = cluster_factory(3)
        A = spd_matrix(12, seed=1)
        layout = distla.make_layout(12, cl.grid, h=1)
        with pytest.raises(WorkerFailure):
            cl.run("test.fail_on_rank_two")
        C = distla.distribute(cl, "C", A, "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        got = distla.collect(cl, L)
        np.testing.assert_allclose(got, np.linalg.cholesky(A), atol=1e-12)

    def test_operations_after_shutdown(self):
        cl = spawn(3)
        cl.shutdown()
        with pytest.raises(ClusterDown):
            cl.push("x", 1.0)
        with pytest.raises(ClusterDown):
            cl.run("test.echo_rank")
        cl.shutdown()  # idempotent


@registry.register("test.pass_f_ordered")
def _pass_f_ordered(ctx):
    tag = ("f", "col", 1, 1)
    if ctx.coord == (1, 1):
        ctx.send((2, 1), tag, np.asfortranarray(np.arange(6.0).reshape(2, 3)))
    elif ctx.coord == (2, 1):
        got = ctx.recv((1, 1), tag, (2, 3))
        return got.flags.c_contiguous, got.tolist()


class TestInProcessDelivery:
    def test_f_ordered_payload_arrives_c_contiguous(self, cluster_factory):
        # the wire always delivers C order, and a block's memory order steers
        # BLAS, so the in-process backend must deliver C order too
        got = cluster_factory(3).run("test.pass_f_ordered")[1]
        assert got == (True, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])


class TestDeterminism:
    def test_repeated_program_is_bit_identical(self, cluster_factory):
        out = []
        for _ in range(2):
            cl = cluster_factory(6, seed=9)
            A = spd_matrix(33, seed=4)
            layout = distla.make_layout(33, cl.grid, h=2)
            C = distla.distribute(cl, "C", A, "triangular", layout)
            L, _ = distla.distributed_cholesky(cl, C, "L")
            out.append(distla.collect(cl, L).tobytes())
        assert out[0] == out[1]


class TestWireFormat:
    def test_data_frame_round_trip(self):
        payload = np.arange(6.0).reshape(2, 3)
        frame = wire.encode_data(2, 5, 7, ("obj", "col", 3, 1), payload)
        (length,) = struct.unpack("<I", frame[:4])
        body = frame[4:]
        assert len(body) == length
        assert body[0] == wire.WIRE_VERSION  # version byte leads the body
        kind, src, dst, epoch, tag, got = wire.decode_body(body)
        assert (kind, src, dst, epoch) == ("data", 2, 5, 7)
        assert tag == ("obj", "col", 3, 1)
        np.testing.assert_array_equal(got, payload.ravel())

    def test_payload_is_little_endian_f64(self):
        frame = wire.encode_data(1, 2, 0, ("x", "diag", 1, 1), np.array([1.0]))
        assert frame[-8:] == struct.pack("<d", 1.0)

    def test_control_frame_round_trip(self):
        obj = ("result", 3, {"k": np.arange(3)})
        kind, got = wire.decode_body(wire.encode_control(obj)[4:])
        assert kind == "control" and got[:2] == obj[:2]
        np.testing.assert_array_equal(got[2]["k"], obj[2]["k"])

    def test_version_mismatch_rejected(self):
        body = bytearray(wire.encode_control("x")[4:])
        body[0] = 99
        with pytest.raises(ValueError):
            wire.decode_body(bytes(body))

    @pytest.mark.parametrize("name_len", range(10))
    def test_payload_is_aligned_for_every_name_length(self, name_len):
        payload = np.arange(12.0).reshape(3, 4)
        frame = wire.encode_data(1, 2, 3, ("n" * name_len, "col", 2, 1),
                                 payload)
        body = bytearray(frame[4:])  # what read_frame returns
        assert np.frombuffer(body, np.uint8).ctypes.data % 8 == 0
        _, _, _, _, tag, got = wire.decode_body(body)
        assert tag == ("n" * name_len, "col", 2, 1)
        assert got.ctypes.data % 8 == 0 and got.flags.aligned
        assert got.flags.writeable
        np.testing.assert_array_equal(got, payload.ravel())

    def test_frame_written_in_pieces_reads_whole_and_writable(self):
        payload = np.arange(40.0).reshape(5, 8)
        frame = wire.encode_data(1, 3, 2, ("blk", "ps", 4, 2), payload)
        a, b = socket.socketpair()
        with a, b:
            for cut in range(0, len(frame), 7):
                a.sendall(frame[cut:cut + 7])
            _, src, dst, epoch, tag, got = wire.decode_body(wire.read_frame(b))
        assert (src, dst, epoch, tag) == (1, 3, 2, ("blk", "ps", 4, 2))
        np.testing.assert_array_equal(got, payload.ravel())
        got += 1.0  # a kernel may accumulate into a received block

    def test_eof_mid_frame_raises(self):
        frame = wire.encode_data(1, 3, 2, ("blk", "ps", 4, 2), np.ones(9))
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall(frame[:len(frame) - 5])
            with pytest.raises(ConnectionError):
                wire.read_frame(b)


def _exercise(cl):
    """A fixed mixed workload whose collected results identify the backend."""
    rng = np.random.default_rng(2)
    n, m = 29, 6
    A = spd_matrix(n, seed=2)
    b = rng.standard_normal(n)
    V0 = rng.standard_normal((n, m))
    rows = distla.make_layout(n, cl.grid, h=2)
    cols = distla.make_layout(m, cl.grid, h=1)
    C = distla.distribute(cl, "C", A, "triangular", rows)
    L, _ = distla.distributed_cholesky(cl, C, "L")
    bd = distla.distribute(cl, "b", b, "vector", rows)
    u = distla.triangular_solve(cl, L, bd, "u", side="forward")
    x = distla.triangular_solve(cl, L, u, "x", side="back")
    Vd = distla.distribute(cl, "V0", V0, "rectangular", rows, cols)
    W = distla.triangular_solve(cl, L, Vd, "W", side="forward")
    S = distla.crossprod_self(cl, W, "S")
    w = distla.crossprod_mat_vec(cl, W, u, "w")
    d = distla.crossprod_self_diag(cl, W, "d")
    z = distla.construct_rnorm_distributed(cl, "z", "vector", rows)
    lz = distla.mult_chol(cl, L, z, "lz")
    # in place: a solve into its own right-hand side, and Sigma = Cp - W^T W
    # built inside Cp's blocks
    Xd = distla.distribute(cl, "X", V0, "rectangular", rows, cols)
    X = distla.triangular_solve(cl, L, Xd, "X", side="back")
    distla.distribute(cl, "Sigma", spd_matrix(m, seed=3), "triangular", cols)
    Sigma = distla.crossprod_self(cl, W, "Sigma", subtract=True)
    # 1-wide column blocks: L times a rectangular operand, as in simulation
    r = 2 * cl.grid.D
    Z = distla.distribute(cl, "Z", rng.standard_normal((n, r)), "rectangular",
                          rows, distla.make_layout(r, cl.grid, h=2))
    LZ = distla.mult_chol(cl, L, Z, "LZ")
    return {
        "L": distla.collect(cl, L),
        "x": distla.collect(cl, x),
        "S": distla.collect(cl, S),
        "w": distla.collect(cl, w),
        "d": distla.collect(cl, d),
        "lz": distla.collect(cl, lz),
        "X": distla.collect(cl, X),
        "Sigma": distla.collect(cl, Sigma),
        "LZ": distla.collect(cl, LZ),
        "logdet": distla.log_det_from_chol(cl, L),
        "ssq": distla.sum_squares(cl, u),
    }


@pytest.mark.slow
@pytest.mark.parametrize("P", [3, 6])
def test_socket_backend_bit_identical_to_in_process(cluster_factory, P):
    ref = _exercise(cluster_factory(P, backend="in-process", seed=13))
    got = _exercise(cluster_factory(P, backend="multi-process-socket",
                                    seed=13, blas_threads=1))
    for key, want in ref.items():
        if isinstance(want, float):
            assert got[key] == want, key
        else:
            np.testing.assert_array_equal(got[key], want, err_msg=key)


@pytest.mark.slow
def test_socket_backend_error_propagation(cluster_factory):
    from blockgp.errors import NotPositiveDefinite

    cl = cluster_factory(3, backend="multi-process-socket", blas_threads=1)
    with pytest.raises(NoSuchObject):
        cl.pull("missing", 2)
    layout = distla.make_layout(8, cl.grid, h=1)
    bad = distla.distribute(cl, "bad", -np.eye(8), "triangular", layout)
    with pytest.raises(NotPositiveDefinite):
        distla.distributed_cholesky(cl, bad, "Lbad")
    # the aborted collective must not poison the next one
    A = spd_matrix(8, seed=3)
    C = distla.distribute(cl, "C", A, "triangular", layout)
    L, _ = distla.distributed_cholesky(cl, C, "L")
    np.testing.assert_allclose(distla.collect(cl, L), np.linalg.cholesky(A),
                               atol=1e-12)


def _raised_within(seconds, fn, *args):
    """Run fn in a thread joined with a timeout; the one exception it
    raised."""
    raised = []

    def call():
        try:
            fn(*args)
        except Exception as exc:
            raised.append(exc)
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"call still blocked after {seconds} s"
    assert len(raised) == 1, raised
    return raised[0]


@pytest.mark.slow
@pytest.mark.parametrize("victim", [1, 2, 3])
def test_socket_dead_worker_is_attributed(cluster_factory, victim):
    cl = cluster_factory(3, backend="multi-process-socket", blas_threads=1)
    layout = distla.make_layout(12, cl.grid, h=1)
    x = distla.distribute(cl, "x", np.arange(12.0), "vector", layout)
    proc = cl._procs[victim - 1]
    proc.kill()
    proc.wait()
    exc = _raised_within(10, distla.sum_squares, cl, x)
    assert isinstance(exc, WorkerFailure), exc
    assert exc.rank == victim
    with pytest.raises(WorkerFailure) as info:  # no further work is accepted
        cl.pull("x", victim % 3 + 1)
    assert info.value.rank == victim


@pytest.mark.slow
def test_socket_spawn_rejects_bad_seed_at_once():
    exc = _raised_within(5, spawn, 3, "multi-process-socket", None)
    assert isinstance(exc, ConfigError), exc


_SPAWN_FROM_SYS_PATH = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from blockgp import distla, spawn
cl = spawn(3, "multi-process-socket", 0, 1)
try:
    layout = distla.make_layout(12, cl.grid, h=1)
    x = distla.distribute(cl, "x", np.arange(12.0), "vector", layout)
    print(distla.sum_squares(cl, x))
finally:
    cl.shutdown()
"""


@pytest.mark.slow
def test_socket_workers_import_blockgp_where_the_master_did(tmp_path):
    # a master that found blockgp through sys.path, with no PYTHONPATH
    src = str(pathlib.Path(blockgp.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_FROM_SYS_PATH, src], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) == float(np.sum(np.arange(12.0) ** 2))


def _replace_rank_two(monkeypatch, *args):
    """Start rank 2 as `python ARGS... FD` in place of its worker, through
    a stand-in for `subprocess` in socketbackend; returns the list the
    started processes are appended to."""
    started = []

    class RankTwoReplaced:
        def __getattr__(self, name):
            return getattr(subprocess, name)

        @staticmethod
        def Popen(cmd, **kwargs):
            if cmd[4] == "2":  # python -m MODULE FD RANK D SEED
                cmd = [cmd[0], *args, cmd[3]]
            started.append(subprocess.Popen(cmd, **kwargs))
            return started[-1]

    monkeypatch.setattr(socketbackend, "subprocess", RankTwoReplaced())
    return started


@pytest.mark.slow
def test_socket_spawn_fails_fast_when_a_worker_exits(monkeypatch):
    started = _replace_rank_two(monkeypatch, "-c", "raise SystemExit(3)")
    exc = _raised_within(10, spawn, 3, "multi-process-socket", 0, 1)
    assert isinstance(exc, BackendUnavailable), exc
    assert "rank 2" in str(exc) and "code 3" in str(exc)
    assert len(started) == 3
    assert all(proc.poll() is not None for proc in started)


def _bad_version_frame():
    frame = bytearray(wire.encode_control({"kind": "command",
                                           "cmd": ("ls",)}))
    frame[4] = 99  # the version byte, after the u32 length prefix
    return bytes(frame)


@pytest.mark.slow
def test_socket_undecodable_frame_is_attributed(cluster_factory):
    cl = cluster_factory(3, backend="multi-process-socket", blas_threads=1)
    layout = distla.make_layout(12, cl.grid, h=1)
    x = distla.distribute(cl, "x", np.arange(12.0), "vector", layout)
    cl._write(2, _bad_version_frame())
    exc = _raised_within(10, distla.sum_squares, cl, x)
    assert isinstance(exc, WorkerFailure), exc
    assert exc.rank == 2


@pytest.mark.slow
def test_socket_spawn_times_out_on_a_silent_worker(monkeypatch):
    monkeypatch.setattr(socketbackend, "_SPAWN_TIMEOUT", 2.0)
    started = _replace_rank_two(monkeypatch, "-c",
                                "import time; time.sleep(60)")
    exc = _raised_within(10, spawn, 3, "multi-process-socket", 0, 1)
    assert isinstance(exc, BackendUnavailable), exc
    assert "ranks [2]" in str(exc) and "within 2 s" in str(exc)
    assert len(started) == 3
    assert all(proc.poll() is not None for proc in started)


@pytest.mark.slow
def test_socket_spawn_without_a_socket_pair_is_unavailable(monkeypatch):
    started = _replace_rank_two(monkeypatch, "-c",
                                "import time; time.sleep(60)")
    pairs = []
    real = socket.socketpair

    def third_fails():
        if len(pairs) == 2:
            raise OSError(24, "Too many open files")
        pairs.append(real())
        return pairs[-1]
    monkeypatch.setattr(socket, "socketpair", third_fails)
    exc = _raised_within(10, spawn, 3, "multi-process-socket", 0, 1)
    assert isinstance(exc, BackendUnavailable), exc
    assert "Too many open files" in str(exc)
    assert len(started) == 2
    assert all(proc.poll() is not None for proc in started)
    assert all(sock.fileno() == -1 for pair in pairs for sock in pair)


@pytest.mark.slow
@pytest.mark.parametrize("frame, fault", [
    (wire.encode_data(2, 1, 0, ("x", "x", 1, 1), np.zeros(2)),
     "first frame is a data frame, not a hello"),
    (_bad_version_frame(), "unsupported wire version 99"),
], ids=["data-frame", "bad-version"])
def test_socket_spawn_names_a_worker_whose_first_frame_is_no_hello(
        monkeypatch, frame, fault):
    started = _replace_rank_two(
        monkeypatch, "-c",
        f"import socket, sys\n"
        f"socket.socket(fileno=int(sys.argv[1])).sendall({frame!r})")
    exc = _raised_within(10, spawn, 3, "multi-process-socket", 0, 1)
    assert isinstance(exc, BackendUnavailable), exc
    assert "rank 2" in str(exc) and fault in str(exc)
    assert all(proc.poll() is not None for proc in started)


# Rank 2's stand-in: a hello, then every command answered with a result
# frame that names rank 3, until the master's shutdown command.
_ANSWERS_AS_RANK_THREE = """
import socket, sys
from blockgp.transport import wire
sock = socket.socket(fileno=int(sys.argv[1]))
sock.sendall(wire.encode_control({"kind": "hello"}))
while (body := wire.read_frame(sock)) is not None:
    if wire.decode_body(body)[1]["cmd"] == ("shutdown",):
        break
    sock.sendall(wire.encode_control(
        {"kind": "result", "rank": 3, "value": ("ok", ["from rank 2"])}))
"""


@pytest.mark.slow
def test_socket_result_is_taken_from_its_connection(monkeypatch):
    _replace_rank_two(monkeypatch, "-c", _ANSWERS_AS_RANK_THREE)
    cl = spawn(3, "multi-process-socket", 0, 1)
    answers = queue.SimpleQueue()
    threading.Thread(target=lambda: answers.put(cl.remote_ls(2)),
                     daemon=True).start()
    try:
        assert answers.get(timeout=10) == ["from rank 2"]
    finally:
        cl.shutdown()


def test_no_module_opens_a_listener():
    """Workers are connected at birth by socket pairs: no module under
    src/blockgp creates, binds, listens on, accepts or dials a connection."""
    root = pathlib.Path(blockgp.__file__).parent
    banned = {"create_server", "create_connection", "bind", "listen",
              "accept"}
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id",
                                                          None))
                if name in banned:
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


# Rank 2's stand-in: a valid hello, then a frame of wire version 99; it then
# stays connected until the master's shutdown command.
_UNDECODABLE_AFTER_HELLO = """
import socket, sys
from blockgp.transport import wire
sock = socket.socket(fileno=int(sys.argv[1]))
sock.sendall(wire.encode_control({"kind": "hello"}))
frame = bytearray(wire.encode_control({"kind": "result", "rank": 2}))
frame[4] = 99
sock.sendall(frame)
while (body := wire.read_frame(sock)) is not None:
    if wire.decode_body(body)[1].get("cmd") == ("shutdown",):
        break
"""


@pytest.mark.slow
def test_socket_undecodable_frame_from_a_worker_is_attributed(monkeypatch):
    started = _replace_rank_two(monkeypatch, "-c", _UNDECODABLE_AFTER_HELLO)
    cl = spawn(3, "multi-process-socket", 0, 1)
    try:
        exc = _raised_within(10, cl.remote_ls, 2)
    finally:
        cl.shutdown()
    assert isinstance(exc, WorkerFailure), exc
    assert exc.rank == 2
    assert "unsupported wire version 99" in str(exc)
    assert len(started) == 3
    assert all(proc.poll() is not None for proc in started)


@registry.register("test.wait_for_rank_two")
def _wait_for_rank_two(ctx):
    return ctx.recv((2, 1), ("x", "x", 1, 1), (1, 1))  # rank 2 at P = 3


@pytest.fixture
def lone_worker():
    """A socket worker (rank 1 of P=3) running in a thread on one end of a
    socket pair: yields the master's end; the worker must have stopped 10 s
    after the test ends."""
    conn, child = socket.socketpair()
    worker = threading.Thread(target=socket_worker.main,
                              args=([child.detach(), 1, 2, 0],), daemon=True)
    worker.start()
    conn.settimeout(10)
    with conn:
        _, hello = wire.decode_body(wire.read_frame(conn))
        assert hello["kind"] == "hello"
        yield conn
    worker.join(timeout=10)
    assert not worker.is_alive(), "worker still running 10 s after the end"


@pytest.mark.parametrize("ending", ["eof", "undecodable-frame"])
def test_worker_leaves_a_waiting_collective_when_its_connection_ends(
        lone_worker, ending):
    conn = lone_worker
    conn.sendall(wire.encode_control({
        "kind": "command",
        "cmd": ("collective", 1, "test.wait_for_rank_two", {})}))
    if ending == "eof":
        conn.shutdown(socket.SHUT_WR)
    else:
        conn.sendall(_bad_version_frame())
        assert wire.read_frame(conn) is None  # the worker hangs up
