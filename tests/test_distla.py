"""Distributed linear-algebra kernels against serial dense oracles."""

import hashlib
import inspect
import itertools
import threading

import numpy as np
import pytest

from blockgp import distla, registry
from blockgp.distla import blas
from blockgp.errors import (DimensionMismatch, GeneratorError,
                            NotPositiveDefinite, SingularDiagonal)
from blockgp.gp import (BUILTIN_KERNELS, KrigeProblem, builtin_spec,
                        matern_correlation, sqexp_correlation)
from blockgp.distla.kernels import _trailing_plan
from blockgp.grid import (BlockLayout, ProcessGrid, block_owner,
                          rect_block_owner, triangular_blocks,
                          triangular_order, vector_block_owner)
from blockgp.transport import wire
from blockgp.transport.base import WorkerContext
from blockgp.transport.inprocess import InProcessCluster

from conftest import exp_cov, relerr, spd_matrix

# (P, h) pairs exercising one worker, a full column, and h > 1 folding
LAYOUTS = [(1, 1), (1, 2), (3, 1), (3, 2), (6, 2), (10, 1), (15, 1),
           (21, 2), (28, 1)]


def _layout(cl, n, h):
    return distla.make_layout(n, cl.grid, h=h)


@registry.register("test.delta")
def _delta(params, inputs, i, j):
    """Kronecker delta; collected triangular equals the identity."""
    return np.equal.outer(i, j).astype(float)


@registry.register("test.linear_index")
def _linear_index(params, inputs, i, j):
    """i + n*(j-1); handy construction oracle."""
    return np.add.outer(i, inputs["n"] * (j - 1.0))


@registry.register("test.full_block")
def _full_block(params, inputs, i, j):
    """Nonzero everywhere, above the diagonal too."""
    return np.add.outer(i, 100.0 * j)


@registry.register("test.wrong_shape_last_row")
def _wrong_shape_last_row(params, inputs, i, j):
    """One column too many, but only in the first column of the last block
    row."""
    extra = int(i[-1] == inputs["n"] and j[0] == 1)
    return np.zeros((len(i), len(j) + extra))


@registry.register("test.raises_on_last_row")
def _raises_on_last_row(params, inputs, i, j):
    """Raises, but only for the first column of the last block row."""
    if i[-1] == inputs["n"] and j[0] == 1:
        raise ValueError("no block here")
    return np.zeros((len(i), len(j)))


@registry.register("test.scalar_block")
def _scalar_block(params, inputs, i, j):
    return 1.0


def _padded_triangular(cl, name, layout):
    """The whole padded matrix from every rank's blocks, padding included."""
    bs = layout.block_size
    A = np.zeros((layout.padded_n, layout.padded_n))
    for rank in range(1, cl.P + 1):
        for (I, J), block in cl.pull(name, rank).blocks.items():
            A[(I - 1) * bs:I * bs, (J - 1) * bs:J * bs] = block
    return A


def _assert_drained(cl):
    """Every message a collective sent was received: no worker's mailbox
    has anything left in its stash or its incoming queue."""
    for rank, w in cl._workers.items():
        mailbox = w.mailbox
        assert not any(mailbox._stash.values()), f"rank {rank} stash"
        assert mailbox._incoming.empty(), f"rank {rank} incoming queue"


def _within_deadline(call, seconds=60):
    """call()'s result, run on a daemon thread; the test fails if it has not
    returned after `seconds`.  A schedule whose ranks wait on each other in
    a cycle would otherwise hang the master, and the suite with it."""
    out = {}

    def run():
        try:
            out["value"] = call()
        except BaseException as exc:
            out["error"] = exc
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        pytest.fail(f"collective still running after {seconds} s: deadlock?")
    if "error" in out:
        raise out["error"]
    return out["value"]


def _counting_deliveries(monkeypatch):
    """Record (dst, tag) of every in-process delivery from now on."""
    delivered = []
    deliver = InProcessCluster._deliver

    def counted(self, src, dst, tag, payload):
        delivered.append((dst, tag))
        deliver(self, src, dst, tag, payload)
    monkeypatch.setattr(InProcessCluster, "_deliver", counted)
    return delivered


def _entrywise_reference(kernel, theta, X, Y, same, inputs):
    """Dense covariance built the way the entrywise generators did: one
    gathered coordinate pair per entry, distance sqrt(sum(diff*diff))."""
    X = X[:, None] if X.ndim == 1 else X
    Y = Y[:, None] if Y.ndim == 1 else Y
    i, j = (a.ravel() for a in np.meshgrid(np.arange(1, len(X) + 1),
                                           np.arange(1, len(Y) + 1),
                                           indexing="ij"))
    if kernel == "matern-product-nugget":
        corr = (matern_correlation(np.abs(X[i - 1, 0] - Y[j - 1, 0]),
                                   theta[1], inputs["nu1"]) *
                matern_correlation(np.abs(X[i - 1, 1] - Y[j - 1, 1]),
                                   theta[2], inputs["nu2"]))
    else:
        diff = X[i - 1] - Y[j - 1]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        if kernel == "sqexp":
            corr = sqexp_correlation(d, theta[1])
        elif kernel == "white":
            corr = np.zeros(len(i))
        else:
            corr = matern_correlation(d, theta[1], inputs["nu"])
    k = theta[0] * corr
    if same and (kernel.endswith("-nugget") or kernel == "white"):
        k = k + theta[-1] * (i == j)
    return k.reshape(len(X), len(Y))


KERNEL_THETAS = {"sqexp": [1.2, 0.3], "matern": [1.1, 0.9],
                 "matern-nugget": [1.0, 1.0, 0.1],
                 "matern-product-nugget": [1.0, 0.8, 1.3, 0.1],
                 "white": [0.7]}


class TestConstruct:
    @pytest.mark.parametrize("P,h", LAYOUTS)
    def test_delta_generator_gives_identity(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        layout = _layout(cl, 9, h)
        t = distla.construct_distributed(cl, "I", "triangular", "test.delta",
                                         [], row_layout=layout)
        np.testing.assert_array_equal(distla.collect(cl, t), np.eye(9))

    def test_linear_index_generator(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 4, 1)
        cl.push("inp", {"n": 4})
        t = distla.construct_distributed(cl, "A", "triangular",
                                         "test.linear_index", [],
                                         inputs_name="inp", row_layout=layout)
        want = np.tril(np.add.outer(np.arange(1, 5), 4 * np.arange(0, 4)))
        np.testing.assert_array_equal(distla.collect(cl, t), want)

    @pytest.mark.parametrize("P,h", [(3, 1), (6, 2)])
    def test_exponential_covariance_matches_serial(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        coords = np.linspace(0.0, 5.0, 10)
        layout = _layout(cl, 10, h)
        cl.push("inp", {"coords": coords})
        t = distla.construct_distributed(cl, "C", "triangular",
                                         "gen.matern.cov", [1.3, 2.0],
                                         inputs_name="inp", row_layout=layout)
        got = distla.collect(cl, t)
        want = exp_cov(coords, 1.3, 2.0)
        np.testing.assert_allclose(got, np.tril(want), rtol=0, atol=1e-14)
        full = got + np.tril(got, -1).T
        assert np.all(np.linalg.eigvalsh(full) > 0)


    def test_block_generator_fills_diagonal_block_then_masks(
            self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 10, 2)  # block size 2, padded to 12
        t = distla.construct_distributed(cl, "A", "triangular",
                                         "test.full_block", [],
                                         row_layout=layout)
        full = np.add.outer(np.arange(1, 11), 100.0 * np.arange(1, 11))
        np.testing.assert_array_equal(distla.collect(cl, t), np.tril(full))
        A = _padded_triangular(cl, "A", layout)
        np.testing.assert_array_equal(np.triu(A, 1), 0.0)
        np.testing.assert_array_equal(A[10:, :10], 0.0)
        np.testing.assert_array_equal(A[10:, 10:], np.eye(2))

    @pytest.mark.parametrize("P,h", [(1, 2), (3, 2), (6, 1)])
    def test_diagonal_only_matches_full_diagonal(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        layout = _layout(cl, 11, h)  # padded for every h here
        cl.set_events(True)
        d = distla.construct_distributed(cl, "d", "vector", "test.full_block",
                                         [], row_layout=layout)
        assert sorted((I, J) for _, _, _, I, J in cl.drain_events()) == \
            [(J, J) for J in range(1, layout.B + 1)]
        t = distla.construct_distributed(cl, "A", "triangular",
                                         "test.full_block", [],
                                         row_layout=layout)
        np.testing.assert_array_equal(distla.collect(cl, d),
                                      distla.collect_diagonal(cl, t))

    def test_wrong_block_shape_names_the_rank(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 10, 2)
        cl.push("inp", {"n": 10})
        with pytest.raises(GeneratorError) as info:
            distla.construct_distributed(cl, "A", "triangular",
                                         "test.wrong_shape_last_row", [],
                                         inputs_name="inp", row_layout=layout)
        owner = cl.grid.coord_to_rank(*rect_block_owner(layout.B, 1, cl.grid))
        assert info.value.rank == owner
        assert f"rank {owner}" in str(info.value)
        assert "shape" in str(info.value.cause)

    def test_raising_generator_names_the_rank(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 10, 2)
        cl.push("inp", {"n": 10})
        with pytest.raises(GeneratorError) as info:
            distla.construct_distributed(cl, "A", "triangular",
                                         "test.raises_on_last_row", [],
                                         inputs_name="inp", row_layout=layout)
        owner = cl.grid.coord_to_rank(*rect_block_owner(layout.B, 1, cl.grid))
        assert info.value.rank == owner
        assert f"rank {owner}" in str(info.value)
        assert isinstance(info.value.cause, ValueError)
        assert str(info.value.cause) == "no block here"
        for rank in range(1, cl.P + 1):
            assert cl.remote_ls(rank) == ["inp"]

    def test_wrong_vector_shape_raises(self, cluster_factory):
        cl = cluster_factory(3)
        with pytest.raises(GeneratorError):
            distla.construct_distributed(cl, "x", "vector",
                                         "test.scalar_block", [],
                                         row_layout=_layout(cl, 10, 2))

    @pytest.mark.parametrize("kernel,dim", [
        (k, d) for k in BUILTIN_KERNELS for d in (1, 2)
        if not (k == "matern-product-nugget" and d == 1)])
    def test_builtin_kernels_match_entrywise_reference(
            self, cluster_factory, kernel, dim):
        cl = cluster_factory(3)
        rng = np.random.default_rng(8)
        coords = rng.uniform(0, 5, (13, dim)).squeeze()
        pred = rng.uniform(0, 5, (7, dim)).squeeze()
        inputs = {"coords": coords, "pred_coords": pred,
                  "nu": 1.5, "nu1": 2.5, "nu2": 0.5}
        cl.push("inp", inputs)
        theta = KERNEL_THETAS[kernel]
        rows, cols = _layout(cl, 13, 2), _layout(cl, 7, 1)
        got = {}
        for kind, obj, rl, cl_ in [("cov", "triangular", rows, None),
                                   ("cross", "rectangular", rows, cols),
                                   ("pred", "triangular", cols, None)]:
            handle = distla.construct_distributed(
                cl, kind, obj, f"gen.{kernel}.{kind}", theta,
                inputs_name="inp", row_layout=rl, col_layout=cl_)
            got[kind] = distla.collect(cl, handle)
        np.testing.assert_array_equal(got["cov"], np.tril(_entrywise_reference(
            kernel, theta, coords, coords, True, inputs)))
        np.testing.assert_array_equal(got["cross"], _entrywise_reference(
            kernel, theta, coords, pred, False, inputs))
        np.testing.assert_array_equal(got["pred"], np.tril(_entrywise_reference(
            kernel, theta, pred, pred, kernel == "white", inputs)))


# sha256 (first 16 hex digits) of the collected C, Cx and Cp of each
# built-in kernel and smoothness in `test_builtin_kernel_bits_are_pinned`,
# as the out-of-place formulas gave them: the in-place generators must
# reproduce every bit
GENERATOR_BITS = {
    ("sqexp", ()): "5f3a76854ff4c992",
    ("white", ()): "39e9793d04a149d2",
    ("matern", (0.5,)): "3515a3e9a8e41ffe",
    ("matern", (1.5,)): "59f9b0aa23195144",
    ("matern", (2.5,)): "b5694fc758dbe8ba",
    ("matern-nugget", (0.5,)): "e23764c4d4fff56e",
    ("matern-nugget", (1.5,)): "a7720022002396f5",
    ("matern-nugget", (2.5,)): "eea4d210ceda0e0f",
    ("matern-product-nugget", (0.5, 0.5)): "6111606c88477805",
    ("matern-product-nugget", (0.5, 1.5)): "5d3b9483df4ab4cd",
    ("matern-product-nugget", (0.5, 2.5)): "b8f82b6b7ab5a350",
    ("matern-product-nugget", (1.5, 0.5)): "e712fd7b9d69e232",
    ("matern-product-nugget", (1.5, 1.5)): "4f693bd55cb82dad",
    ("matern-product-nugget", (1.5, 2.5)): "de5faf1a80d0a985",
    ("matern-product-nugget", (2.5, 0.5)): "c571130233e9d10c",
    ("matern-product-nugget", (2.5, 1.5)): "9a755d0dc767607d",
    ("matern-product-nugget", (2.5, 2.5)): "717e9fd76321b95a",
}


@pytest.mark.parametrize("kernel,nus", list(GENERATOR_BITS),
                         ids=[f"{k}-{'-'.join(map(str, nus))}".rstrip("-")
                              for k, nus in GENERATOR_BITS])
def test_builtin_kernel_bits_are_pinned(cluster_factory, kernel, nus):
    cl = cluster_factory(3)
    rng = np.random.default_rng(8)
    coords, pred = rng.uniform(0, 5, (41, 2)), rng.uniform(0, 5, (17, 2))
    keys = {"matern": ("nu",), "matern-nugget": ("nu",),
            "matern-product-nugget": ("nu1", "nu2")}.get(kernel, ())
    cl.push("inp", {"coords": coords, "pred_coords": pred,
                    **dict(zip(keys, nus))})
    rows, cols = _layout(cl, 41, 2), _layout(cl, 17, 1)
    digest = hashlib.sha256()
    for kind, obj, rl, cl_ in [("cov", "triangular", rows, None),
                               ("cross", "rectangular", rows, cols),
                               ("pred", "triangular", cols, None)]:
        handle = distla.construct_distributed(
            cl, kind, obj, f"gen.{kernel}.{kind}", KERNEL_THETAS[kernel],
            inputs_name="inp", row_layout=rl, col_layout=cl_)
        digest.update(distla.collect(cl, handle, release=True).tobytes())
    assert digest.hexdigest()[:16] == GENERATOR_BITS[kernel, nus]


class TestDistributeCollect:
    @pytest.mark.parametrize("P,h", LAYOUTS)
    def test_vector_round_trip_bit_exact(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        x = np.random.default_rng(1).standard_normal(23)
        layout = _layout(cl, 23, h)
        d = distla.distribute(cl, "x", x, "vector", layout)
        np.testing.assert_array_equal(distla.collect(cl, d), x)

    def test_triangular_round_trip(self, cluster_factory):
        cl = cluster_factory(6)
        A = spd_matrix(17, seed=2)
        layout = _layout(cl, 17, 2)
        d = distla.distribute(cl, "A", A, "triangular", layout)
        np.testing.assert_array_equal(distla.collect(cl, d), np.tril(A))

    def test_rectangular_round_trip(self, cluster_factory):
        cl = cluster_factory(3)
        V = np.random.default_rng(3).standard_normal((11, 4))
        rows, cols = _layout(cl, 11, 2), _layout(cl, 4, 1)
        d = distla.distribute(cl, "V", V, "rectangular", rows, cols)
        np.testing.assert_array_equal(distla.collect(cl, d), V)

    def test_collect_diagonal_of_identity(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 7, 1)
        d = distla.distribute(cl, "I", np.eye(7), "triangular", layout)
        np.testing.assert_array_equal(distla.collect_diagonal(cl, d),
                                      np.ones(7))

    def test_release_drops_the_object(self, cluster_factory):
        cl = cluster_factory(3)
        V = np.random.default_rng(4).standard_normal((9, 5))
        rows, cols = _layout(cl, 9, 2), _layout(cl, 5, 1)
        d = distla.distribute(cl, "V", V, "rectangular", rows, cols)
        np.testing.assert_array_equal(distla.collect(cl, d, release=True), V)
        for rank in range(1, 4):
            assert "V" not in cl.remote_ls(rank)

    def test_vector_length_mismatch(self, cluster_factory):
        cl = cluster_factory(3)
        with pytest.raises(DimensionMismatch):
            distla.distribute(cl, "x", np.ones(5), "vector", _layout(cl, 6, 1))


class TestAllPaddingBlock:
    """n=5, h=3 on P=3: B=6 blocks of size 1, so block 6 is all padding."""

    def test_round_trips_and_kernels(self, cluster_factory):
        cl = cluster_factory(3)
        rows, cols = _layout(cl, 5, 3), _layout(cl, 3, 1)
        assert rows.B == 6 and rows.live(6) == slice(5, 5)
        rng = np.random.default_rng(21)
        A, b = spd_matrix(5, seed=22), rng.standard_normal(5)
        V0 = rng.standard_normal((5, 3))
        C = distla.distribute(cl, "C", A, "triangular", rows)
        bd = distla.distribute(cl, "b", b, "vector", rows)
        V = distla.distribute(cl, "V", V0, "rectangular", rows, cols)
        np.testing.assert_array_equal(distla.collect(cl, C), np.tril(A))
        np.testing.assert_array_equal(distla.collect(cl, bd), b)
        np.testing.assert_array_equal(distla.collect(cl, V), V0)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        Lw = np.linalg.cholesky(A)
        assert relerr(distla.collect(cl, L), Lw) <= 1e-12
        x = distla.triangular_solve(cl, L, bd, "x", side="forward")
        assert relerr(distla.collect(cl, x), np.linalg.solve(Lw, b)) <= 1e-12
        S = distla.crossprod_self(cl, V, "S")
        assert relerr(distla.collect(cl, S), np.tril(V0.T @ V0)) <= 1e-12

    def test_cholesky_with_rhs(self, cluster_factory):
        cl = cluster_factory(3)
        rows = _layout(cl, 5, 3)
        A = spd_matrix(5, seed=22)
        b = np.random.default_rng(21).standard_normal(5)
        C = distla.distribute(cl, "C", A, "triangular", rows)
        u = distla.distribute(cl, "u", b, "vector", rows)
        L, stats = distla.distributed_cholesky(cl, C, "L", rhs=u)
        _assert_drained(cl)
        Lw = np.linalg.cholesky(A)
        want = np.linalg.solve(Lw, b)
        assert relerr(distla.collect(cl, L), Lw) <= 1e-12
        assert relerr(distla.collect(cl, u), want) <= 1e-12
        assert 2.0 * sum(s["log_diag"] for s in stats) == pytest.approx(
            np.linalg.slogdet(A)[1], rel=1e-12)
        assert sum(s["sum_sq"] for s in stats) == pytest.approx(
            want @ want, rel=1e-12)


class TestCholesky:
    @pytest.mark.parametrize("P,h", LAYOUTS)
    def test_identity_factors_to_identity(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        layout = _layout(cl, 8, h)
        C = distla.distribute(cl, "C", np.eye(8), "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        np.testing.assert_array_equal(distla.collect(cl, L), np.eye(8))

    def test_two_by_two_hand_oracle(self, cluster_factory):
        cl = cluster_factory(1)
        layout = _layout(cl, 2, 1)
        C = distla.distribute(cl, "C", [[4.0, 2.0], [2.0, 5.0]],
                              "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        np.testing.assert_allclose(distla.collect(cl, L),
                                   [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_negative_definite_reports_first_block(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 6, 1)
        C = distla.distribute(cl, "C", -np.eye(6), "triangular", layout)
        with pytest.raises(NotPositiveDefinite) as info:
            distla.distributed_cholesky(cl, C, "L")
        assert info.value.block_index == 1
        # no partial factor is retained on failure
        for rank in range(1, 4):
            names = cl.remote_ls(rank)
            assert "L" not in names and "C" not in names

    @pytest.mark.parametrize("P,h", LAYOUTS)
    @pytest.mark.parametrize("n", [16, 37])
    def test_matches_serial_cholesky(self, cluster_factory, P, h, n):
        cl = cluster_factory(P)
        A = spd_matrix(n, seed=n)
        layout = _layout(cl, n, h)
        C = distla.distribute(cl, "C", A, "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        got = distla.collect(cl, L)
        assert relerr(got @ got.T, A) <= 1e-12
        assert relerr(got, np.linalg.cholesky(A)) <= 1e-12

    def test_padding_does_not_contaminate(self, cluster_factory):
        # n=257 with h=2, D=3 -> block size 43, padded to 258
        cl = cluster_factory(6)
        A = spd_matrix(257, seed=0)
        layout = _layout(cl, 257, 2)
        assert layout.padded_n > 257
        C = distla.distribute(cl, "C", A, "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        assert relerr(distla.collect(cl, L), np.linalg.cholesky(A)) <= 1e-12

    def test_memory_instrument_bound(self, cluster_factory):
        # on every rank, diagonal ones included: they hold up to h
        # received blocks
        for P, h in [(3, 1), (3, 4), (3, 8), (6, 2), (6, 3), (10, 3)]:
            cl = cluster_factory(P)
            n = 2 * h * cl.grid.D
            C = distla.distribute(cl, "C", spd_matrix(n, seed=1),
                                  "triangular", _layout(cl, n, h))
            _, stats = distla.distributed_cholesky(cl, C, "L")
            _, plan_peaks = _plan_replay(h, cl.grid.D)
            for rank, s in enumerate(stats, start=1):
                coord = cl.grid.rank_to_coord(rank)
                owned = (h * (h + 1) // 2 if coord[0] == coord[1] else h * h)
                assert s["owned_blocks"] == owned
                assert s["peak_blocks"] <= h * h + 4
                assert s["peak_blocks"] == plan_peaks[coord]
            cl.shutdown()

    def test_send_once_peak_past_bound_on_three_columns(self,
                                                         cluster_factory):
        # an off-diagonal rank at D >= 3 whose step-J inputs are all remote
        # updates every pair of h blocks from one class and h from another;
        # receiving each once, it holds one class plus one block, h + 1,
        # so at h >= 4 it passes h^2 + 4
        cl = cluster_factory(6)
        h = 6
        n = 2 * h * cl.grid.D
        C = distla.distribute(cl, "C", spd_matrix(n, seed=1), "triangular",
                              _layout(cl, n, h))
        _, stats = distla.distributed_cholesky(cl, C, "L")
        _, plan_peaks = _plan_replay(h, cl.grid.D)
        for rank, s in enumerate(stats, start=1):
            assert s["peak_blocks"] == plan_peaks[cl.grid.rank_to_coord(rank)]
        assert max(s["peak_blocks"] for s in stats) == h * h + h + 1

    @pytest.mark.parametrize("P,h,peak", [(3, 8, 65), (6, 3, 13), (6, 6, 43),
                                          (10, 3, 13), (10, 4, 21)])
    def test_largest_plan_peak_is_pinned(self, P, h, peak):
        # the kernel is checked against the plan above; this pins the plan
        # itself, so a reordering that holds more blocks fails here
        _, plan_peaks = _plan_replay(h, triangular_order(P))
        assert max(plan_peaks.values()) == peak

    def test_critical_path_event_order(self, cluster_factory):
        cl = cluster_factory(6)
        A = spd_matrix(24, seed=2)
        C = distla.distribute(cl, "C", A, "triangular", _layout(cl, 24, 1))
        cl.set_events(True)
        distla.distributed_cholesky(cl, C, "L")
        events = cl.drain_events()
        cl.set_events(False)
        t_factor = {(I, J): t for t, _, op, I, J in events if op == "factor"}
        t_solve = {(I, J): t for t, _, op, I, J in events if op == "solve"}
        first_update = {}
        for t, _, op, I, J in sorted(events):
            if op == "update":
                first_update.setdefault((I, J), t)
        assert len(t_factor) == 3  # h=1, D=3: one diagonal block per column
        # factor of (J,J) precedes every solve in column J
        for (I, J), t in t_solve.items():
            assert t_factor[(J, J)] < t
        # updates of (J,J) all precede its factorization
        for (I, J), t in first_update.items():
            if I == J:
                assert t < t_factor[(J, J)]
        # the first update of any block follows the column-1 solves it uses
        for (R, Cc), t in first_update.items():
            assert t > t_solve.get((R, 1), t_factor[(1, 1)])
            assert t > t_solve.get((Cc, 1), t_factor[(1, 1)])


def _plan_replay(h, D):
    """Replay every rank's step plans for one Cholesky: each remote input
    is received once and held when its update runs.  Returns the number
    of column blocks received and each rank's peak of owned plus held
    blocks (the inverse of a diagonal block counts while the column
    solves, on its owner and on each rank it is sent to)."""
    grid = ProcessGrid(D)
    lay = BlockLayout(h * D, h, D)
    total, peaks = 0, {}
    for coord in grid.coords():
        owned = peak = len(triangular_blocks(coord, lay, grid))
        for J in range(1, lay.B + 1):
            if block_owner(J, J, grid) == coord or any(
                    block_owner(I, J, grid) == coord
                    for I in range(J + 1, lay.B + 1)):
                peak = max(peak, owned + 1)
            held = set()
            for R, C, receive, done in _trailing_plan(J, lay.B, grid, coord):
                assert not held & set(receive)
                held |= set(receive)
                peak = max(peak, owned + len(held))
                for X in (R, C):
                    assert (X in held) == (block_owner(X, J, grid) != coord)
                held -= set(done)
                total += len(receive)
            assert not held
        peaks[coord] = peak
    return total, peaks


class TestCholeskyTraffic:
    """Each rank receives a column block L(X, J) once per step, as its
    trailing plan says, and every message sent is received."""

    @pytest.mark.parametrize("h,want", [(2, 6), (4, 28), (6, 66), (8, 120)])
    def test_plan_receives_on_two_columns(self, h, want):
        assert _plan_replay(h, 2)[0] == want

    @pytest.mark.parametrize("h", [1, 2, 4, 8])
    def test_each_column_block_delivered_once(self, cluster_factory,
                                              monkeypatch, h):
        delivered = _counting_deliveries(monkeypatch)
        cl = cluster_factory(3)
        n = 3 * h * cl.grid.D
        C = distla.distribute(cl, "C", spd_matrix(n, seed=h), "triangular",
                              _layout(cl, n, h))
        delivered.clear()
        distla.distributed_cholesky(cl, C, "L")
        cols = [(dst, tag[2], tag[3]) for dst, tag in delivered
                if tag[1] == "col"]
        assert cols and len(cols) == len(set(cols))
        assert len(cols) == _plan_replay(h, cl.grid.D)[0]

    @pytest.mark.parametrize("P,h", [(3, 8), (6, 6), (10, 3), (28, 2)])
    def test_deliveries_replay_the_plan(self, cluster_factory, monkeypatch,
                                        P, h):
        # the senders send exactly what the plans receive, once per
        # (rank, block) on every D
        delivered = _counting_deliveries(monkeypatch)
        cl = cluster_factory(P)
        n = h * cl.grid.D + 1
        A = spd_matrix(n, seed=P)
        C = distla.distribute(cl, "C", A, "triangular", _layout(cl, n, h))
        delivered.clear()
        L, _ = distla.distributed_cholesky(cl, C, "L")
        _assert_drained(cl)
        cols = [(dst, tag[2], tag[3]) for dst, tag in delivered
                if tag[1] == "col"]
        assert len(cols) == len(set(cols)) == _plan_replay(h, cl.grid.D)[0]
        assert relerr(distla.collect(cl, L), np.linalg.cholesky(A)) <= 1e-12


class TestCholeskyWithRhs:
    """The Cholesky forward-solves a right-hand side in its sweep: u(J) is
    solved by L(J, J)'s owner and sent once to each other diagonal rank
    with a row block below J, and each rank returns its local sums of
    log diag L and of u's squares."""

    @pytest.mark.parametrize("P,h", [(1, 1), (1, 3), (3, 1), (3, 4), (6, 2),
                                     (6, 3)])
    def test_matches_separate_factor_and_solve(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        n = 3 * h * cl.grid.D + 1
        A = spd_matrix(n, seed=P + h)
        b = np.random.default_rng(h).standard_normal(n)
        rows = _layout(cl, n, h)
        C = distla.distribute(cl, "C", A, "triangular", rows)
        L0, plain = distla.distributed_cholesky(cl, C, "L0")
        C = distla.distribute(cl, "C", A, "triangular", rows)
        u = distla.distribute(cl, "u", b, "vector", rows)
        L, stats = distla.distributed_cholesky(cl, C, "L", rhs=u)
        _assert_drained(cl)
        # L, its residency and its log diag are those of a plain factor
        np.testing.assert_array_equal(distla.collect(cl, L),
                                      distla.collect(cl, L0))
        assert [(s["peak_blocks"], s["owned_blocks"], s["log_diag"])
                for s in stats] == [(s["peak_blocks"], s["owned_blocks"],
                                     s["log_diag"]) for s in plain]
        assert all(s["sum_sq"] == 0.0 for s in plain)
        x = distla.triangular_solve(
            cl, L0, distla.distribute(cl, "b", b, "vector", rows), "x")
        got, want = distla.collect(cl, u), distla.collect(cl, x)
        assert relerr(got, want) <= 1e-13
        assert relerr(got, np.linalg.solve(np.linalg.cholesky(A), b)) <= 1e-12
        logdet = 2.0 * sum(s["log_diag"] for s in stats)
        assert logdet == pytest.approx(distla.log_det_from_chol(cl, L),
                                       rel=1e-14)
        assert logdet == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)
        assert sum(s["sum_sq"] for s in stats) == pytest.approx(
            distla.sum_squares(cl, x), rel=1e-13)
        for rank in range(1, cl.P + 1):
            assert cl.remote_ls(rank) == ["L", "L0", "b", "u", "x"]

    @pytest.mark.parametrize("P", [1, 3, 6])
    def test_one_vector_block_per_diagonal_rank_and_step(
            self, cluster_factory, monkeypatch, P):
        delivered = _counting_deliveries(monkeypatch)
        cl = cluster_factory(P)
        h = 3
        n = h * cl.grid.D * 2 - 1
        rows = _layout(cl, n, h)
        C = distla.distribute(cl, "C", spd_matrix(n, seed=P), "triangular",
                              rows)
        u = distla.distribute(cl, "u", np.ones(n), "vector", rows)
        delivered.clear()
        distla.distributed_cholesky(cl, C, "L", rhs=u)
        _assert_drained(cl)
        grid = cl.grid
        xs = sorted((dst, tag[2]) for dst, tag in delivered
                    if tag[1] == "x")
        assert xs == sorted(
            (grid.coord_to_rank(*c), J) for J in range(1, rows.B + 1)
            for c in {vector_block_owner(I, grid)
                      for I in range(J + 1, rows.B + 1)}
            - {vector_block_owner(J, grid)})
        assert len(xs) <= (grid.D - 1) * rows.B
        assert {tag[1] for _, tag in delivered} <= {"col", "diag", "x"}

    def test_mid_sweep_failure_keeps_neither_factor_nor_rhs(
            self, cluster_factory):
        # n=12 on P=3 with h=2: four blocks of three; steps 1 and 2 solve
        # u(1) and u(2) and update the rest, then block 3 is not positive
        cl = cluster_factory(3)
        rows = _layout(cl, 12, 2)
        A = np.eye(12)
        A[8, 8] = -1.0
        C = distla.distribute(cl, "C", A, "triangular", rows)
        u = distla.distribute(cl, "u", np.ones(12), "vector", rows)
        with pytest.raises(NotPositiveDefinite) as info:
            distla.distributed_cholesky(cl, C, "L", rhs=u)
        assert info.value.block_index == 3
        for rank in range(1, 4):
            assert cl.remote_ls(rank) == []


class TestTriangularSolves:
    def test_identity_is_noop(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 7, 1)
        L = distla.distribute(cl, "L", np.eye(7), "triangular", layout)
        b = np.arange(1.0, 8.0)
        bd = distla.distribute(cl, "b", b, "vector", layout)
        for side in ("forward", "back"):
            x = distla.triangular_solve(cl, L, bd, f"x_{side}", side=side)
            np.testing.assert_array_equal(distla.collect(cl, x), b)

    def test_hand_forward_solve(self, cluster_factory):
        cl = cluster_factory(1)
        layout = _layout(cl, 2, 1)
        L = distla.distribute(cl, "L", [[2.0, 0.0], [1.0, 2.0]],
                              "triangular", layout)
        b = distla.distribute(cl, "b", [2.0, 3.0], "vector", layout)
        x = distla.triangular_solve(cl, L, b, "x", side="forward")
        np.testing.assert_allclose(distla.collect(cl, x), [1.0, 1.0],
                                   atol=1e-15)

    @pytest.mark.parametrize("P,h", LAYOUTS)
    def test_back_after_forward_solves_spd_system(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        n = 31
        A = spd_matrix(n, seed=5)
        b = np.random.default_rng(5).standard_normal(n)
        layout = _layout(cl, n, h)
        C = distla.distribute(cl, "C", A, "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        bd = distla.distribute(cl, "b", b, "vector", layout)
        u = distla.triangular_solve(cl, L, bd, "u", side="forward")
        x = distla.triangular_solve(cl, L, u, "x", side="back")
        assert relerr(distla.collect(cl, x), np.linalg.solve(A, b)) <= 1e-10

    @pytest.mark.parametrize("side", ["forward", "back"])
    def test_rectangular_rhs(self, cluster_factory, side):
        cl = cluster_factory(6)
        n, m = 19, 5
        A = spd_matrix(n, seed=7)
        Ls = np.linalg.cholesky(A)
        R = np.random.default_rng(7).standard_normal((n, m))
        rows, cols = _layout(cl, n, 2), _layout(cl, m, 1)
        C = distla.distribute(cl, "C", A, "triangular", rows)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        Rd = distla.distribute(cl, "R", R, "rectangular", rows, cols)
        X = distla.triangular_solve(cl, L, Rd, "X", side=side)
        want = (np.linalg.solve(Ls, R) if side == "forward"
                else np.linalg.solve(Ls.T, R))
        assert relerr(distla.collect(cl, X), want) <= 1e-10

    @pytest.mark.parametrize("side", ["forward", "back"])
    @pytest.mark.parametrize("kind", ["vector", "rectangular"])
    def test_in_place_solve_matches_solve_into_new_name(
            self, cluster_factory, side, kind):
        cl = cluster_factory(3)
        n, m = 23, 5
        rng = np.random.default_rng(8)
        B = rng.standard_normal(n if kind == "vector" else (n, m))
        rows, cols = _layout(cl, n, 2), _layout(cl, m, 2)
        C = distla.distribute(cl, "C", spd_matrix(n, seed=8), "triangular",
                              rows)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        Bd = distla.distribute(cl, "B", B, kind, rows, cols)
        want = distla.collect(cl, distla.triangular_solve(cl, L, Bd, "X",
                                                          side=side))
        stores = [w.ctx.store for w in cl._workers.values()]
        held = [store["B"].blocks for store in stores]
        got = distla.triangular_solve(cl, L, Bd, "B", side=side)
        assert got.name == "B"
        np.testing.assert_array_equal(distla.collect(cl, got), want)
        # the solution was written into B's own block table
        assert all(store["B"].blocks is blocks
                   for store, blocks in zip(stores, held))

    def test_failed_in_place_solve_drops_the_operand(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 4, 1)
        L = distla.distribute(cl, "L", np.diag([1.0, 1.0, 0.0, 1.0]),
                              "triangular", layout)
        b = distla.distribute(cl, "b", np.ones(4), "vector", layout)
        with pytest.raises(SingularDiagonal):
            distla.triangular_solve(cl, L, b, "b", side="forward")
        for rank in range(1, 4):
            assert "b" not in cl.remote_ls(rank)

    def test_singular_diagonal_detected(self, cluster_factory):
        cl = cluster_factory(1)
        layout = _layout(cl, 2, 1)
        L = distla.distribute(cl, "L", [[1.0, 0.0], [1.0, 0.0]],
                              "triangular", layout)
        b = distla.distribute(cl, "b", [1.0, 1.0], "vector", layout)
        with pytest.raises(SingularDiagonal):
            distla.triangular_solve(cl, L, b, "x", side="forward")

    def test_nonconforming_rhs(self, cluster_factory):
        cl = cluster_factory(3)
        L = distla.distribute(cl, "L", np.eye(6), "triangular",
                              _layout(cl, 6, 1))
        b = distla.distribute(cl, "b", np.ones(6), "vector", _layout(cl, 6, 2))
        with pytest.raises(DimensionMismatch):
            distla.triangular_solve(cl, L, b, "x")


def _counting_inversions(monkeypatch):
    """Record (rank, copy of the block as given) of every `blas.trtri` call
    from now on; an in-process worker's thread is named after its rank."""
    calls = []
    trtri = blas.trtri

    def counted(a):
        rank = int(threading.current_thread().name.rsplit("-", 1)[1])
        calls.append((rank, a.copy()))
        trtri(a)
    monkeypatch.setattr(blas, "trtri", counted)
    return calls


class TestDiagonalInverses:
    """The owner of each diagonal block L(J, J) inverts it once per Cholesky
    and once per solve, and every solve by L(J, J) multiplies by that
    inverse."""

    @pytest.mark.parametrize("P", [1, 3, 6])
    def test_each_diagonal_block_is_inverted_once_by_its_owner(
            self, cluster_factory, monkeypatch, P):
        calls = _counting_inversions(monkeypatch)
        cl = cluster_factory(P)
        n, m = 4 * cl.grid.D + 1, 5  # padded rows: a unit tail in L(B, B)
        rows, cols = _layout(cl, n, 2), _layout(cl, m, 2)
        A, rng = spd_matrix(n, seed=P), np.random.default_rng(P)
        b = distla.distribute(cl, "b", rng.standard_normal(n), "vector", rows)
        R0 = rng.standard_normal((n, m))
        R = distla.distribute(cl, "R", R0, "rectangular", rows, cols)
        owners = sorted((cl.grid.coord_to_rank(*block_owner(J, J, cl.grid)), J)
                        for J in range(1, rows.B + 1))

        def inverted(name):
            """(rank, J) of each call, J the diagonal block of `name` that
            the calling rank owns and gave (a rank owns each of its
            diagonal blocks at most once, so one match)."""
            out = []
            for rank, given in calls:
                blocks = cl.pull(name, rank).blocks
                out.append((rank, *[I for (I, J), block in blocks.items()
                                    if I == J and np.array_equal(block,
                                                                 given)]))
            calls.clear()
            return sorted(out)

        def factor(rhs):
            C = distla.distribute(cl, "C", A, "triangular", rows)
            u = distla.distribute(cl, "u", np.ones(n), "vector", rows)
            return distla.distributed_cholesky(cl, C, "L",
                                               rhs=u if rhs else None)[0]
        for rhs in (False, True):
            calls.clear()
            L = factor(rhs)
            assert inverted("L") == owners, rhs
        for side in ("forward", "back"):
            for B in (b, R):
                distla.triangular_solve(cl, L, B, "X", side=side)
                assert inverted("L") == owners, (side, B.name)
        Q = distla.distribute(cl, "Q", R0, "rectangular", rows, cols)
        distla.triangular_solve(cl, L, Q, "Q")
        assert inverted("L") == owners
        # products by L invert nothing
        distla.mult_chol(cl, L, R, "Y")
        assert calls == []

    @pytest.mark.parametrize("side", ["forward", "back"])
    @pytest.mark.parametrize("kind", ["vector", "rectangular"])
    def test_a_zero_diagonal_names_its_block(self, cluster_factory,
                                             monkeypatch, side, kind):
        # n=7 on P=3 with h=2: four blocks of two, the last one padded; the
        # owner of L(2, 2) raises, and the ranks waiting for its inverse
        # leave through the abort
        calls = _counting_inversions(monkeypatch)
        cl = cluster_factory(3)
        layout = _layout(cl, 7, 2)
        A = np.tril(np.ones((7, 7))) + np.eye(7)
        A[3, 3] = 0.0
        L = distla.distribute(cl, "L", A, "triangular", layout)
        ones = np.ones(7 if kind == "vector" else (7, 3))
        B = distla.distribute(cl, "B", ones, kind, layout, _layout(cl, 3, 1))
        calls.clear()
        with pytest.raises(SingularDiagonal, match="in block 2$"):
            distla.triangular_solve(cl, L, B, "X", side=side)
        owner = cl.grid.coord_to_rank(*block_owner(2, 2, cl.grid))
        assert [rank for rank, given in calls
                if np.array_equal(given, A[2:4, 2:4])] == [owner]
        # every rank left the collective: the cluster takes the next one
        np.testing.assert_array_equal(distla.collect(cl, B), ones)


class TestMultiplies:
    def test_mult_chol_identity(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 9, 1)
        L = distla.distribute(cl, "L", np.eye(9), "triangular", layout)
        x = np.arange(9.0)
        xd = distla.distribute(cl, "x", x, "vector", layout)
        y = distla.mult_chol(cl, L, xd, "y")
        np.testing.assert_array_equal(distla.collect(cl, y), x)

    def test_mult_chol_hand_value(self, cluster_factory):
        cl = cluster_factory(1)
        layout = _layout(cl, 2, 1)
        L = distla.distribute(cl, "L", [[2.0, 0.0], [1.0, 2.0]],
                              "triangular", layout)
        xd = distla.distribute(cl, "x", [1.0, 1.0], "vector", layout)
        y = distla.mult_chol(cl, L, xd, "y")
        np.testing.assert_allclose(distla.collect(cl, y), [2.0, 3.0])

    @pytest.mark.parametrize("P,h", LAYOUTS)
    def test_mult_chol_random_oracle(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        n = 27
        rng = np.random.default_rng(9)
        Ls = np.tril(rng.standard_normal((n, n)))
        x = rng.standard_normal(n)
        layout = _layout(cl, n, h)
        L = distla.distribute(cl, "L", Ls, "triangular", layout)
        xd = distla.distribute(cl, "x", x, "vector", layout)
        y = distla.mult_chol(cl, L, xd, "y")
        assert relerr(distla.collect(cl, y), Ls @ x) <= 1e-12

    def test_mult_chol_rectangular(self, cluster_factory):
        cl = cluster_factory(6)
        n, m = 13, 4
        rng = np.random.default_rng(10)
        Ls = np.tril(rng.standard_normal((n, n)))
        Z = rng.standard_normal((n, m))
        rows, cols = _layout(cl, n, 1), _layout(cl, m, 1)
        L = distla.distribute(cl, "L", Ls, "triangular", rows)
        Zd = distla.distribute(cl, "Z", Z, "rectangular", rows, cols)
        Y = distla.mult_chol(cl, L, Zd, "Y")
        assert relerr(distla.collect(cl, Y), Ls @ Z) <= 1e-12


class TestCrossproducts:
    def test_identity_matvec(self, cluster_factory):
        cl = cluster_factory(3)
        n = 6
        rows = cols = _layout(cl, n, 1)
        u = np.arange(1.0, 7.0)
        V = distla.distribute(cl, "V", np.eye(n), "rectangular", rows, cols)
        ud = distla.distribute(cl, "u", u, "vector", rows)
        w = distla.crossprod_mat_vec(cl, V, ud, "w")
        np.testing.assert_allclose(distla.collect(cl, w), u)

    def test_ones_matvec_hand_value(self, cluster_factory):
        cl = cluster_factory(1)
        rows, cols = _layout(cl, 3, 1), _layout(cl, 2, 1)
        V = distla.distribute(cl, "V", np.ones((3, 2)), "rectangular",
                              rows, cols)
        ud = distla.distribute(cl, "u", [1.0, 2.0, 3.0], "vector", rows)
        w = distla.crossprod_mat_vec(cl, V, ud, "w")
        np.testing.assert_allclose(distla.collect(cl, w), [6.0, 6.0])

    def test_self_crossprod_column_vector(self, cluster_factory):
        cl = cluster_factory(1)
        rows, cols = _layout(cl, 2, 1), _layout(cl, 1, 1)
        V = distla.distribute(cl, "V", [[1.0], [2.0]], "rectangular",
                              rows, cols)
        S = distla.crossprod_self(cl, V, "S")
        np.testing.assert_allclose(distla.collect(cl, S), [[5.0]])
        d = distla.crossprod_self_diag(cl, V, "d")
        np.testing.assert_allclose(distla.collect(cl, d), [5.0])

    @pytest.mark.parametrize("P,h", LAYOUTS)
    def test_random_crossprods_vs_oracle(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        n, m = 25, 7
        rng = np.random.default_rng(11)
        V0 = rng.standard_normal((n, m))
        u0 = rng.standard_normal(n)
        rows, cols = _layout(cl, n, h), _layout(cl, m, 1)
        V = distla.distribute(cl, "V", V0, "rectangular", rows, cols)
        ud = distla.distribute(cl, "u", u0, "vector", rows)
        w = distla.crossprod_mat_vec(cl, V, ud, "w")
        assert relerr(distla.collect(cl, w), V0.T @ u0) <= 1e-12
        S = distla.crossprod_self(cl, V, "S")
        assert relerr(distla.collect(cl, S), np.tril(V0.T @ V0)) <= 1e-12
        d = distla.crossprod_self_diag(cl, V, "d")
        assert relerr(distla.collect(cl, d), np.diag(V0.T @ V0)) <= 1e-12


    @pytest.mark.parametrize("P,h", [(1, 1), (3, 2), (6, 1)])
    def test_subtracting_crossprod_builds_in_place(self, cluster_factory, P,
                                                   h):
        cl = cluster_factory(P)
        n, m = 25, 7  # both padded for every h here
        rng = np.random.default_rng(12)
        V0 = 0.3 * rng.standard_normal((n, m))
        S0 = spd_matrix(m, seed=12) + V0.T @ V0
        rows, cols = _layout(cl, n, h), _layout(cl, m, h)
        V = distla.distribute(cl, "V", V0, "rectangular", rows, cols)
        distla.distribute(cl, "S", S0, "triangular", cols)
        S = distla.crossprod_self(cl, V, "S", subtract=True)
        want = np.tril(S0 - V0.T @ V0)
        assert relerr(distla.collect(cl, S), want) <= 1e-12
        padded = _padded_triangular(cl, "S", cols)
        np.testing.assert_array_equal(padded[m:, m:], np.eye(cols.padded_n - m))
        np.testing.assert_array_equal(np.triu(padded, 1), 0.0)
        L, _ = distla.distributed_cholesky(cl, S, "LS")
        full = want + np.tril(want, -1).T
        assert relerr(distla.collect(cl, L), np.linalg.cholesky(full)) <= 1e-10

    def test_subtracting_crossprod_needs_a_conforming_start(
            self, cluster_factory):
        cl = cluster_factory(3)
        rows, cols = _layout(cl, 6, 1), _layout(cl, 4, 1)
        V = distla.distribute(cl, "V", np.ones((6, 4)), "rectangular",
                              rows, cols)
        distla.distribute(cl, "S", np.eye(6), "triangular", rows)
        with pytest.raises(DimensionMismatch):
            distla.crossprod_self(cl, V, "S", subtract=True)

    def test_mat_vec_needs_u_on_the_rows_of_v(self, cluster_factory):
        cl = cluster_factory(3)
        rows, cols = _layout(cl, 6, 1), _layout(cl, 4, 1)
        V = distla.distribute(cl, "V", np.ones((6, 4)), "rectangular",
                              rows, cols)
        u = distla.distribute(cl, "u", np.ones(4), "vector", cols)
        issued = cl.stats["collectives"]
        with pytest.raises(DimensionMismatch, match="u layout"):
            distla.crossprod_mat_vec(cl, V, u, "w")
        assert cl.stats["collectives"] == issued


@pytest.mark.parametrize("call", [
    lambda cl, V, b: distla.distributed_cholesky(cl, V, "L"),
    lambda cl, V, b: distla.triangular_solve(cl, V, b, "x"),
    lambda cl, V, b: distla.mult_chol(cl, V, b, "x"),
    lambda cl, V, b: distla.collect_diagonal(cl, V),
], ids=["cholesky", "solve", "mult", "collect_diagonal"])
def test_a_non_triangular_l_is_rejected_on_the_master(cluster_factory, call):
    cl = cluster_factory(3)
    layout = _layout(cl, 6, 1)
    V = distla.distribute(cl, "V", np.eye(6), "rectangular", layout, layout)
    b = distla.distribute(cl, "b", np.ones(6), "vector", layout)
    issued = cl.stats["collectives"]
    with pytest.raises(DimensionMismatch, match="triangular"):
        call(cl, V, b)
    assert cl.stats["collectives"] == issued


def _store_snapshot(cl):
    """Every in-process worker's store: {rank: {name: {key: block bytes}}},
    with whole objects that are not distributed pieces as they are."""
    return {rank: {name: ({k: v.tobytes() for k, v in obj.blocks.items()}
                          if isinstance(obj, distla.LocalPiece) else obj)
                   for name, obj in w.ctx.store.items()}
            for rank, w in cl._workers.items()}


@pytest.mark.parametrize("call", [
    lambda cl, L, b: distla.construct_rnorm_distributed(
        cl, "x", "Vector", L.layout),
    lambda cl, L, b: distla.construct_distributed(
        cl, "x", "tri", "test.delta", [], row_layout=L.layout),
    lambda cl, L, b: distla.distribute(cl, "x", np.ones(7), "vectr",
                                       L.layout),
    lambda cl, L, b: distla.triangular_solve(cl, L, b, "x", side="backward"),
], ids=["rnorm-kind", "construct-kind", "distribute-kind", "solve-side"])
def test_a_bad_kind_or_side_is_rejected_on_the_master(cluster_factory, call):
    cl = cluster_factory(3)
    layout = _layout(cl, 7, 1)
    L = distla.distribute(cl, "L", np.eye(7), "triangular", layout)
    b = distla.distribute(cl, "b", np.ones(7), "vector", layout)
    before, issued = _store_snapshot(cl), cl.stats["collectives"]
    with pytest.raises(DimensionMismatch,
                       match=r"is not .*'(vector|back)'"):
        call(cl, L, b)
    assert cl.stats["collectives"] == issued
    assert _store_snapshot(cl) == before


@pytest.mark.parametrize("call", [
    lambda cl, L, T, R, b, c: distla.triangular_solve(cl, L, T, "x"),
    lambda cl, L, T, R, b, c: distla.mult_chol(cl, L, T, "x"),
    lambda cl, L, T, R, b, c: distla.crossprod_mat_vec(cl, R, R, "w"),
    lambda cl, L, T, R, b, c: distla.crossprod_mat_vec(cl, T, b, "w"),
    lambda cl, L, T, R, b, c: distla.crossprod_self(cl, T, "S"),
    lambda cl, L, T, R, b, c: distla.crossprod_self(cl, T, "T",
                                                    subtract=True),
    lambda cl, L, T, R, b, c: distla.crossprod_self_diag(cl, T, "s"),
    lambda cl, L, T, R, b, c: distla.distributed_cholesky(cl, T, "M",
                                                          rhs=R),
    lambda cl, L, T, R, b, c: distla.distributed_cholesky(cl, T, "M",
                                                          rhs=c),
], ids=["solve-triangular-rhs", "mult-triangular-x",
        "mat-vec-rectangular-u", "mat-vec-triangular-v",
        "self-triangular-v", "self-subtract-triangular-v",
        "self-diag-triangular-v", "cholesky-rectangular-rhs",
        "cholesky-nonconforming-rhs"])
def test_a_wrong_handle_kind_is_rejected_on_the_master(cluster_factory,
                                                       call):
    cl = cluster_factory(3)
    layout, short = _layout(cl, 7, 1), _layout(cl, 6, 1)
    L = distla.distribute(cl, "L", np.eye(7), "triangular", layout)
    T = distla.distribute(cl, "T", spd_matrix(7), "triangular", layout)
    R = distla.distribute(cl, "R", np.ones((7, 7)), "rectangular", layout,
                          layout)
    b = distla.distribute(cl, "b", np.ones(7), "vector", layout)
    c = distla.distribute(cl, "c", np.ones(6), "vector", short)
    before, issued = _store_snapshot(cl), cl.stats["collectives"]
    with pytest.raises(DimensionMismatch,
                       match="expected a distributed|do not conform"):
        call(cl, L, T, R, b, c)
    assert cl.stats["collectives"] == issued
    assert _store_snapshot(cl) == before


def _assert_one_block_format(stores):
    """Every block of every distributed piece is a 2-D, C-contiguous,
    aligned float64 array of its layouts' block shape, under an (I, J)
    key."""
    for rank, store in enumerate(stores, 1):
        for name, piece in store.items():
            if not isinstance(piece, distla.LocalPiece):
                continue
            shape = (piece.row_layout.block_size,
                     piece.col_layout.block_size)
            for key, block in piece.blocks.items():
                where = (rank, name, key)
                assert isinstance(key, tuple) and len(key) == 2, where
                assert isinstance(block, np.ndarray), where
                assert block.dtype == np.float64, where
                assert block.shape == shape, where
                assert block.flags.c_contiguous and block.flags.aligned, where


@pytest.mark.parametrize("backend", ["in-process", "multi-process-socket"])
def test_every_block_is_a_2d_block(cluster_factory, monkeypatch, backend):
    """After every public distla function, alone and inside a KrigeProblem
    run, each worker store holds only 2-D blocks: a vector's too.  The
    in-process stores are read directly, the socket ones through `pull`."""
    cl = cluster_factory(3, backend=backend)
    if backend == "in-process":
        stores = lambda: [w.ctx.store for w in cl._workers.values()]
    else:
        stores = lambda: [{name: cl.pull(name, rank)
                           for name in cl.remote_ls(rank)}
                          for rank in range(1, cl.P + 1)]
    public = {name for name in distla.__all__
              if inspect.isfunction(getattr(distla, name))}
    called = set()
    for name in public:
        fn = getattr(distla, name)

        def checked(*a, _name=name, _fn=fn, **k):
            out = _fn(*a, **k)
            called.add(_name)
            _assert_one_block_format(stores())
            return out
        monkeypatch.setattr(distla, name, checked)
    rows = distla.make_layout(7, cl.grid, h=2)
    cols = distla.make_layout(3, cl.grid, h=1)
    C = distla.distribute(cl, "C", spd_matrix(7), "triangular", rows)
    L, _ = distla.distributed_cholesky(cl, C, "C")
    b = distla.distribute(cl, "b", np.ones(7), "vector", rows)
    u = distla.triangular_solve(cl, L, b, "u", side="forward")
    distla.triangular_solve(cl, L, b, "b", side="back")
    distla.mult_chol(cl, L, u, "w")
    cl.push("inp", {"coords": np.arange(7.0), "pred_coords": np.arange(3.0),
                    "nu": 0.5})
    theta = [1.0, 1.5, 0.1]
    V = distla.construct_distributed(cl, "V", "rectangular",
                                     "gen.matern-nugget.cross", theta, "inp",
                                     row_layout=rows, col_layout=cols)
    distla.construct_distributed(cl, "d", "vector", "gen.matern-nugget.pred",
                                 theta, "inp", row_layout=cols)
    distla.crossprod_mat_vec(cl, V, u, "p")
    distla.crossprod_self(cl, V, "S")
    distla.crossprod_self(cl, V, "S", subtract=True)
    distla.crossprod_self_diag(cl, V, "s")
    distla.construct_rnorm_distributed(cl, "z", "vector", rows)
    Z = distla.construct_rnorm_distributed(cl, "Z", "rectangular", rows, cols)
    distla.mult_chol(cl, L, Z, "Z")
    distla.collect(cl, u)
    distla.collect_diagonal(cl, L)
    distla.log_det_from_chol(cl, L)
    distla.sum_squares(cl, u)
    assert called == public
    coords = np.linspace(0.0, 5.0, 9)
    spec = builtin_spec("matern-nugget", coords, np.linspace(0.5, 4.5, 5))
    prob = KrigeProblem(cl, "k", spec, np.sin(coords), [1.0, 1.5, 0.1], m=5,
                        h_n=2, h_m=2, h_r=1)
    prob.log_density()
    prob.predict(se_fit=True)
    prob.prediction_variance()
    prob.simulate_realizations(2, post=True)
    prob.simulate_realizations(2, post=False)
    _assert_one_block_format(stores())


class TestScalars:
    def test_logdet_identity_is_zero(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 5, 1)
        C = distla.distribute(cl, "C", np.eye(5), "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        assert distla.log_det_from_chol(cl, L) == 0.0

    def test_logdet_diagonal_hand_value(self, cluster_factory):
        cl = cluster_factory(1)
        layout = _layout(cl, 2, 1)
        C = distla.distribute(cl, "C", np.diag([4.0, 9.0]), "triangular",
                              layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        assert abs(distla.log_det_from_chol(cl, L) - np.log(36.0)) < 1e-14

    @pytest.mark.parametrize("P,h", [(3, 2), (6, 1)])
    def test_logdet_random_oracle(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        A = spd_matrix(41, seed=12)
        layout = _layout(cl, 41, h)
        C = distla.distribute(cl, "C", A, "triangular", layout)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        want = np.linalg.slogdet(A)[1]
        assert abs(distla.log_det_from_chol(cl, L) - want) / abs(want) <= 1e-10

    def test_sum_squares(self, cluster_factory):
        cl = cluster_factory(6)
        x = np.random.default_rng(13).standard_normal(29)
        layout = _layout(cl, 29, 2)
        xd = distla.distribute(cl, "x", x, "vector", layout)
        assert abs(distla.sum_squares(cl, xd) - x @ x) <= 1e-12 * (x @ x)

    @pytest.mark.parametrize("index, value, block", [(6, 0.0, 4),
                                                     (3, -2.0, 2)])
    def test_logdet_non_positive_diagonal_names_its_block(
            self, cluster_factory, index, value, block):
        # n=7 on P=3 with h=2: four blocks of two, the last one padded
        cl = cluster_factory(3)
        layout = _layout(cl, 7, 2)
        A = np.tril(np.ones((7, 7))) + np.eye(7)
        A[index, index] = value
        L = distla.distribute(cl, "L", A, "triangular", layout)
        before = [cl.pull("L", rank).blocks for rank in range(1, 4)]
        issued = cl.stats["collectives"]
        with pytest.raises(SingularDiagonal, match=f"in block {block}$"):
            distla.log_det_from_chol(cl, L)
        assert cl.stats["collectives"] == issued + 1
        for rank, blocks in enumerate(before, 1):
            assert cl.remote_ls(rank) == ["L"]
            after = cl.pull("L", rank).blocks
            assert after.keys() == blocks.keys()
            for key, want in blocks.items():
                np.testing.assert_array_equal(after[key], want)

    def test_scalars_issue_one_collective_each(self, cluster_factory):
        cl = cluster_factory(3)
        layout = _layout(cl, 7, 2)
        L = distla.distribute(cl, "L", 2.0 * np.eye(7), "triangular", layout)
        x = np.arange(7.0)
        xd = distla.distribute(cl, "x", x, "vector", layout)
        for call, handle, want in ((distla.log_det_from_chol, L,
                                    7 * np.log(4.0)),
                                   (distla.sum_squares, xd, x @ x)):
            issued = cl.stats["collectives"]
            assert call(cl, handle) == pytest.approx(want, rel=1e-15)
            assert cl.stats["collectives"] == issued + 1
        # neither call releases its operand
        np.testing.assert_array_equal(distla.collect(cl, xd), x)
        assert distla.sum_squares(cl, xd) == x @ x


class TestLayoutInvariance:
    def test_results_identical_across_layouts(self, cluster_factory):
        n, m = 30, 6
        A = spd_matrix(n, seed=14)
        b = np.random.default_rng(14).standard_normal(n)
        V0 = np.random.default_rng(15).standard_normal((n, m))
        results = []
        for P, h in [(1, 1), (3, 1), (3, 2), (6, 1), (10, 2)]:
            cl = cluster_factory(P)
            rows, cols = _layout(cl, n, h), _layout(cl, m, 1)
            C = distla.distribute(cl, "C", A, "triangular", rows)
            L, _ = distla.distributed_cholesky(cl, C, "L")
            bd = distla.distribute(cl, "b", b, "vector", rows)
            u = distla.triangular_solve(cl, L, bd, "u", side="forward")
            V = distla.distribute(cl, "V", V0, "rectangular", rows, cols)
            W = distla.triangular_solve(cl, L, V, "W", side="forward")
            S = distla.crossprod_self(cl, W, "S")
            results.append((distla.collect(cl, L), distla.collect(cl, u),
                            distla.collect(cl, S),
                            distla.log_det_from_chol(cl, L)))
        ref = results[0]
        for got in results[1:]:
            for a, b_ in zip(got, ref):
                assert relerr(a, b_) <= 1e-12


class TestSchedules:
    # (messages, payload bytes) per phase of each kernel call on P=3, with
    # padded rows (n=13, block size 4) and columns (m=7, block size 2)
    TRAFFIC = {
        "cholesky": {"col": (6, 768), "diag": (3, 384)},
        "cholesky_rhs": {"col": (6, 768), "diag": (3, 384), "x": (3, 96)},
        "solve_vector_forward": {"ps": (3, 96), "x": (4, 128)},
        "solve_vector_back": {"ps": (3, 96), "x": (4, 128)},
        "solve_rect_forward": {"col": (12, 768), "diag": (4, 512),
                               "ps": (10, 640)},
        "solve_rect_back": {"col": (12, 768), "diag": (4, 512),
                            "ps": (10, 640)},
        "mult_vector": {"ps": (3, 96), "x": (4, 128)},
        "mult_rect": {"col": (20, 1280), "ps": (14, 896)},
        "xprod_mat_vec": {"ps": (4, 64), "x": (8, 256)},
        "xprod_self": {"col": (16, 1024), "ps": (10, 320)},
        "xprod_self_diag": {"ps": (4, 64)},
        "xprod_self_sub": {"col": (16, 1024), "ps": (10, 320)},
    }

    def test_per_kernel_traffic_is_pinned(self, cluster_factory, monkeypatch):
        sent = []
        deliver = InProcessCluster._deliver

        def counted(self, src, dst, tag, payload):
            sent.append((tag[1], np.asarray(payload).nbytes))
            # every message must also be one the wire can carry
            frame = wire.encode_data(src, dst, self.epoch, tag, payload)
            _, _, _, _, got_tag, got = wire.decode_body(frame[4:])
            assert got_tag == tag
            np.testing.assert_array_equal(got, np.ravel(payload))
            deliver(self, src, dst, tag, payload)

        monkeypatch.setattr(InProcessCluster, "_deliver", counted)
        cl = cluster_factory(3)
        n, m = 13, 7
        rows, cols = _layout(cl, n, 2), _layout(cl, m, 2)
        rng = np.random.default_rng(0)
        C = distla.distribute(cl, "C", spd_matrix(n, seed=16), "triangular",
                              rows)
        b = distla.distribute(cl, "b", rng.standard_normal(n), "vector", rows)
        R = distla.distribute(cl, "R", rng.standard_normal((n, m)),
                              "rectangular", rows, cols)

        def traffic(call):
            sent.clear()
            call()
            _assert_drained(cl)
            out = {}
            for phase, nbytes in sent:
                msgs, total = out.get(phase, (0, 0))
                out[phase] = (msgs + 1, total + nbytes)
            return out

        got = {"cholesky": traffic(
            lambda: distla.distributed_cholesky(cl, C, "L"))}
        L = distla.DistTriangular("L", rows)
        for side in ("forward", "back"):
            got[f"solve_vector_{side}"] = traffic(
                lambda: distla.triangular_solve(cl, L, b, "x", side=side))
            got[f"solve_rect_{side}"] = traffic(
                lambda: distla.triangular_solve(cl, L, R, "X", side=side))
        got["mult_vector"] = traffic(lambda: distla.mult_chol(cl, L, b, "y"))
        got["mult_rect"] = traffic(lambda: distla.mult_chol(cl, L, R, "Y"))
        got["xprod_mat_vec"] = traffic(
            lambda: distla.crossprod_mat_vec(cl, R, b, "w"))
        got["xprod_self"] = traffic(lambda: distla.crossprod_self(cl, R, "S"))
        got["xprod_self_diag"] = traffic(
            lambda: distla.crossprod_self_diag(cl, R, "d"))
        got["xprod_self_sub"] = traffic(
            lambda: distla.crossprod_self(cl, R, "S", subtract=True))
        C = distla.distribute(cl, "C", spd_matrix(n, seed=16), "triangular",
                              rows)
        got["cholesky_rhs"] = traffic(
            lambda: distla.distributed_cholesky(cl, C, "M", rhs=b))
        assert got == self.TRAFFIC

    @staticmethod
    def _schedule_calls(cl, n=23, m=11):
        """(name, call) of every kernel that runs through the shared
        schedule, each returning its result's handle, on rows and columns
        that are both padded."""
        rows, cols = _layout(cl, n, 2), _layout(cl, m, 2)
        rng = np.random.default_rng(20)
        C = distla.distribute(cl, "C", spd_matrix(n, seed=20), "triangular",
                              rows)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        b = distla.distribute(cl, "b", rng.standard_normal(n), "vector", rows)
        R0 = rng.standard_normal((n, m))
        R = distla.distribute(cl, "R", R0, "rectangular", rows, cols)
        S0 = spd_matrix(m, seed=21)

        def in_place_solve():
            Q = distla.distribute(cl, "Q", R0, "rectangular", rows, cols)
            return distla.triangular_solve(cl, L, Q, "Q")

        def subtracting_xprod():
            distla.distribute(cl, "S", S0, "triangular", cols)
            return distla.crossprod_self(cl, R, "S", subtract=True)
        return [
            ("solve_vector_forward",
             lambda: distla.triangular_solve(cl, L, b, "x", side="forward")),
            ("solve_vector_back",
             lambda: distla.triangular_solve(cl, L, b, "x", side="back")),
            ("solve_rect_forward",
             lambda: distla.triangular_solve(cl, L, R, "X", side="forward")),
            ("solve_rect_back",
             lambda: distla.triangular_solve(cl, L, R, "X", side="back")),
            ("solve_rect_in_place", in_place_solve),
            ("mult_vector", lambda: distla.mult_chol(cl, L, b, "y")),
            ("mult_rect", lambda: distla.mult_chol(cl, L, R, "Y")),
            ("xprod_mat_vec", lambda: distla.crossprod_mat_vec(cl, R, b, "w")),
            ("xprod_self", lambda: distla.crossprod_self(cl, R, "V")),
            ("xprod_self_diag",
             lambda: distla.crossprod_self_diag(cl, R, "d")),
            ("xprod_self_sub", subtracting_xprod),
        ]

    # sha256 (first 16 hex digits) of each `_schedule_calls` result as
    # collected, for P = 3, 6 and 10: the owner adds its own partials in
    # ascending K, then each sum in the order of its sender's first K.  The
    # solves and products of L were recorded when each diagonal block's
    # inverse began to stand in for a triangular solve by it (which moves L,
    # and so the products, in the last bits); the crossproducts, which do
    # not read L, when each rank began to send one sum per result block
    BITS = {
        3: {
            "solve_vector_forward": "1c65453e345ad6f9",
            "solve_vector_back": "2ed82a10567f3778",
            "solve_rect_forward": "2e104ba8917f3b23",
            "solve_rect_back": "e26c709b6e068008",
            "solve_rect_in_place": "2e104ba8917f3b23",
            "mult_vector": "4f6b49078dd48e0c",
            "mult_rect": "f9cf820582ef4dcd",
            "xprod_mat_vec": "d0ff7be94074c082",
            "xprod_self": "de9cc32a7627bb40",
            "xprod_self_diag": "b942e538676b940a",
            "xprod_self_sub": "c37b22a7c9511df1",
        },
        6: {
            "solve_vector_forward": "44c2bebeecfdc310",
            "solve_vector_back": "566e94efed767479",
            "solve_rect_forward": "735503755f29afe0",
            "solve_rect_back": "7022b65eee0e15ca",
            "solve_rect_in_place": "735503755f29afe0",
            "mult_vector": "ed31f90271883d42",
            "mult_rect": "69ad811d10c745eb",
            "xprod_mat_vec": "878aee8b7cdb9850",
            "xprod_self": "dc6285adcdc441f8",
            "xprod_self_diag": "7eb999413f139d95",
            "xprod_self_sub": "75c60d9a3e04d80c",
        },
        10: {
            "solve_vector_forward": "32cc2ebc30b2f7ad",
            "solve_vector_back": "109305addc12666c",
            "solve_rect_forward": "e0e136d54849be1d",
            "solve_rect_back": "e8e2ec7e22357fea",
            "solve_rect_in_place": "e0e136d54849be1d",
            "mult_vector": "c9acda7638c2cb6a",
            "mult_rect": "d9feb877858cf524",
            "xprod_mat_vec": "ad16ba96c4ef866d",
            "xprod_self": "3e97d059d3e3fb36",
            "xprod_self_diag": "7969e328355a13c4",
            "xprod_self_sub": "e1635ede84e84685",
        },
    }

    @pytest.mark.parametrize("P", [3, 6, 10])
    def test_schedule_bits_are_pinned_and_mailboxes_drain(self,
                                                          cluster_factory, P):
        cl = cluster_factory(P)
        got = {}
        for name, call in self._schedule_calls(cl):
            handle = _within_deadline(call)
            _assert_drained(cl)
            got[name] = hashlib.sha256(
                distla.collect(cl, handle).tobytes()).hexdigest()[:16]
        assert got == self.BITS[P]

    @staticmethod
    def _owed_sums(name, grid, rows, cols):
        """(sending coordinate, J, c) of every sum a `_schedule_calls`
        kernel owes, from grid.py alone: one for each rank that holds a
        block of M with a partial for another rank's result block (J, c)."""
        vector = name.startswith(("solve_vector", "mult_vector",
                                  "xprod_mat_vec", "xprod_self_diag"))
        B = rows.B
        if name.startswith("xprod"):
            out_rows, key = range(1, cols.B + 1), lambda J, K: (K, J)
            Ks = lambda J: range(1, B + 1)
            row_cols = lambda J: [1] if vector else range(1, J + 1)
        else:
            out_rows = range(1, B + 1)
            row_cols = lambda J: [1] if vector else range(1, cols.B + 1)
            if name.endswith("back"):
                key, Ks = lambda J, K: (K, J), lambda J: range(J + 1, B + 1)
            elif name.startswith("mult"):
                key, Ks = lambda J, K: (J, K), lambda J: range(1, J + 1)
            else:
                key, Ks = lambda J, K: (J, K), lambda J: range(1, J)
        owner = ((lambda J, c: vector_block_owner(J, grid)) if vector
                 else (lambda J, c: rect_block_owner(J, c, grid)))
        return {(rect_block_owner(*key(J, K), grid), J, c)
                for J in out_rows for c in row_cols(J) for K in Ks(J)
                if rect_block_owner(*key(J, K), grid) != owner(J, c)}

    @pytest.mark.parametrize("P", [3, 6, 10, 28])
    def test_one_sum_per_sender_and_result_block(self, cluster_factory,
                                                 monkeypatch, P):
        sums = []
        deliver = InProcessCluster._deliver

        def sent(self, src, dst, tag, payload):
            if tag[1] == "ps":
                sums.append((self.grid.rank_to_coord(src), tag[2], tag[3]))
            deliver(self, src, dst, tag, payload)
        monkeypatch.setattr(InProcessCluster, "_deliver", sent)
        cl = cluster_factory(P)
        rows, cols = _layout(cl, 23, 2), _layout(cl, 11, 2)
        for name, call in self._schedule_calls(cl):
            sums.clear()
            _within_deadline(call)
            want = self._owed_sums(name, cl.grid, rows, cols)
            assert want, name
            assert sorted(sums) == sorted(want), name

    @pytest.mark.parametrize("P", [3, 6])
    def test_each_rank_sends_its_partials_before_it_waits_for_one(
            self, cluster_factory, monkeypatch, P):
        """Per rank and per result row J (a partial's tag names its row),
        every "ps" the rank sends goes before the first it waits for."""
        log = {}
        deliver, recv = InProcessCluster._deliver, WorkerContext.recv

        def sent(self, src, dst, tag, payload):
            if tag[1] == "ps":
                log.setdefault(src, []).append(("send", tag[2]))
            deliver(self, src, dst, tag, payload)

        def received(self, src, tag, shape=None):
            if tag[1] == "ps":
                log.setdefault(self.rank, []).append(("recv", tag[2]))
            return recv(self, src, tag, shape)
        monkeypatch.setattr(InProcessCluster, "_deliver", sent)
        monkeypatch.setattr(WorkerContext, "recv", received)
        cl = cluster_factory(P)
        mixed = 0  # (kernel, rank, row)s that both send and wait
        for name, call in self._schedule_calls(cl):
            log.clear()
            _within_deadline(call)
            for rank, events in log.items():
                for J in {J for _, J in events}:
                    row = [kind for kind, I in events if I == J]
                    if "send" in row and "recv" in row:
                        mixed += 1
                        last_send = len(row) - 1 - row[::-1].index("send")
                        assert last_send < row.index("recv"), (name, rank, J)
        assert mixed > 0


def _store_arrays(cl, rank):
    """Every block of every distributed piece in one rank's store."""
    return [block for piece in cl._workers[rank].ctx.store.values()
            if isinstance(piece, distla.LocalPiece)
            for block in piece.blocks.values()]


def _assert_stores_disjoint(cl):
    """No block in one rank's store shares memory with another rank's."""
    stores = {rank: _store_arrays(cl, rank) for rank in cl._workers}
    for r1, r2 in itertools.combinations(stores, 2):
        for a in stores[r1]:
            for b in stores[r2]:
                assert not np.shares_memory(a, b), (r1, r2)


def _sharing_kernels(cl):
    """(name, call) of the Cholesky, with and without a right-hand side, and
    of every kernel of the shared schedule."""
    rows = _layout(cl, 23, 2)

    def cholesky(rhs):
        C = distla.distribute(cl, "F", spd_matrix(23, seed=22), "triangular",
                              rows)
        u = (distla.distribute(cl, "u", np.arange(23.0), "vector", rows)
             if rhs else None)
        return distla.distributed_cholesky(cl, C, "F", rhs=u)[0]
    return ([("cholesky", lambda: cholesky(False)),
             ("cholesky_rhs", lambda: cholesky(True))]
            + TestSchedules._schedule_calls(cl))


class TestSharedSends:
    """In-process sends hand the receiver the sender's block, read-only: a
    sent block is final for the rest of its collective."""

    @staticmethod
    def _recording_sends(monkeypatch):
        """Record (payload, sha256) of every in-process send from now on."""
        sent = []
        deliver = InProcessCluster._deliver

        def recorded(self, src, dst, tag, payload):
            sent.append((src, tag, payload,
                         hashlib.sha256(payload.tobytes()).hexdigest()))
            deliver(self, src, dst, tag, payload)
        monkeypatch.setattr(InProcessCluster, "_deliver", recorded)
        return sent

    @pytest.mark.parametrize("P", [3, 6])
    def test_no_sender_changes_a_block_it_sent(self, cluster_factory,
                                               monkeypatch, P):
        sent = self._recording_sends(monkeypatch)
        cl = cluster_factory(P)
        for name, call in _sharing_kernels(cl):
            sent.clear()
            _within_deadline(call)
            _assert_drained(cl)
            assert sent, name
            for src, tag, payload, digest in sent:
                now = hashlib.sha256(payload.tobytes()).hexdigest()
                assert now == digest, (name, src, tag)
            _assert_stores_disjoint(cl)

    def test_received_blocks_are_shared_and_read_only(self, cluster_factory,
                                                      monkeypatch):
        sent = self._recording_sends(monkeypatch)
        received, recv = [], WorkerContext.recv

        def recorded(self, src, tag, shape=None):
            payload = recv(self, src, tag, shape)
            received.append(payload)
            return payload
        monkeypatch.setattr(WorkerContext, "recv", recorded)
        cl = cluster_factory(3)
        for name, call in _sharing_kernels(cl):
            _within_deadline(call)
        assert received and len(received) == len(sent)
        senders_blocks = [payload for _, _, payload, _ in sent]
        for payload in received:
            assert not payload.flags.writeable
            assert any(np.shares_memory(payload, block)
                       for block in senders_blocks)
            with pytest.raises(ValueError, match="read-only"):
                payload[0, 0] = 0.0

    @pytest.mark.parametrize("order, dtype", [("F", np.float64),
                                              ("C", np.float32)])
    def test_other_payloads_arrive_as_c_ordered_float64_copies(
            self, cluster_factory, order, dtype):
        cl = cluster_factory(3)
        block = np.asarray(np.arange(6.0).reshape(2, 3), dtype, order=order)
        cl._deliver(1, 2, ("t", "col", 1, 1), block)
        got = cl._workers[2].mailbox.get(1, ("t", "col", 1, 1))
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert not got.flags.writeable
        assert not np.shares_memory(got, block)
        np.testing.assert_array_equal(got, block)


@registry.register("test.spd")
def _spd(params, inputs, i, j):
    """An exponential covariance of the points 1..n plus the identity."""
    return (np.exp(-np.abs(np.subtract.outer(i, j)) / 5.0)
            + np.equal.outer(i, j))


class TestOneAllocation:
    """Every owned block of an object on a rank is a view of one array, and
    stays one through every in-place update."""

    @staticmethod
    def _assert_one_allocation(cl, name):
        for rank, w in cl._workers.items():
            blocks = list(w.ctx.store[name].blocks.values())
            slabs = {id(block.base) for block in blocks}
            assert len(slabs) <= 1, (name, rank)
            for block in blocks:
                assert block.base is not None, (name, rank)
                assert block.base.ndim == 3, (name, rank)
                assert block.base.shape[0] == len(blocks), (name, rank)
                assert block.flags.c_contiguous, (name, rank)

    @pytest.mark.parametrize("P", [1, 3, 6])
    def test_blocks_stay_views_of_one_array(self, cluster_factory, P):
        cl = cluster_factory(P)
        rows, cols = _layout(cl, 23, 2), _layout(cl, 11, 2)
        check = lambda handle: self._assert_one_allocation(cl, handle.name)
        construct = (lambda name, kind, gen, r, c=None:
                     distla.construct_distributed(cl, name, kind, gen, [],
                                                  row_layout=r, col_layout=c))
        C = construct("L", "triangular", "test.spd", rows)
        check(C)
        L, _ = distla.distributed_cholesky(cl, C, "L")
        check(L)
        V = construct("V", "rectangular", "test.full_block", rows, cols)
        check(V)
        V = distla.triangular_solve(cl, L, V, "V")
        check(V)
        S = construct("S", "triangular", "test.spd", cols)
        check(S)
        check(distla.crossprod_self(cl, V, "S", subtract=True))
        check(distla.crossprod_self(cl, V, "T"))
        check(construct("d", "vector", "test.spd", cols))
        check(distla.distribute(cl, "D", spd_matrix(23, seed=3),
                                "triangular", rows))
        check(distla.distribute(cl, "W", np.ones((23, 11)), "rectangular",
                                rows, cols))
        check(distla.distribute(cl, "w", np.arange(11.0), "vector", cols))
        Z = distla.construct_rnorm_distributed(cl, "Z", "rectangular", rows,
                                               cols)
        check(Z)
        check(distla.construct_rnorm_distributed(cl, "z", "vector", rows))
        check(distla.mult_chol(cl, L, Z, "Z"))
        check(distla.triangular_solve(cl, L, Z, "X", side="back"))


def test_every_registered_kernel_has_a_public_caller(cluster_factory,
                                                     monkeypatch):
    """Every public distla function, run once, issues between them exactly
    the registered distla.* kernels: none is left that nothing calls."""
    cl = cluster_factory(3)
    issued, called, run = set(), set(), cl.run
    monkeypatch.setattr(cl, "run", lambda fn_id, **kw: issued.add(fn_id)
                        or run(fn_id, **kw))
    public = {name for name in distla.__all__
              if inspect.isfunction(getattr(distla, name))}
    for name in public:
        fn = getattr(distla, name)
        monkeypatch.setattr(distla, name, lambda *a, _name=name, _fn=fn, **k:
                            called.add(_name) or _fn(*a, **k))
    rows = distla.make_layout(7, cl.grid, h=2)
    cols = distla.make_layout(3, cl.grid, h=1)
    C = distla.distribute(cl, "C", spd_matrix(7), "triangular", rows)
    L, _ = distla.distributed_cholesky(cl, C, "C")
    b = distla.distribute(cl, "b", np.ones(7), "vector", rows)
    u = distla.triangular_solve(cl, L, b, "u", side="forward")
    distla.mult_chol(cl, L, u, "w")
    V = distla.construct_distributed(cl, "V", "rectangular", "test.full_block",
                                     [], row_layout=rows, col_layout=cols)
    distla.crossprod_mat_vec(cl, V, u, "p")
    distla.crossprod_self(cl, V, "S")
    distla.crossprod_self_diag(cl, V, "s")
    distla.construct_rnorm_distributed(cl, "Z", "rectangular", rows, cols)
    distla.collect(cl, u)
    distla.collect_diagonal(cl, L)
    distla.log_det_from_chol(cl, L)
    distla.sum_squares(cl, u)
    assert called == public
    assert issued == {fn_id for fn_id in registry._FUNCTIONS
                      if fn_id.startswith("distla.")}
