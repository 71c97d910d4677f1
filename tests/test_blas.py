"""The in-place BLAS routines on C-ordered blocks (distla/blas.py)."""

import ast
import pathlib
import threading
import time

import numpy as np
import pytest
import scipy.linalg as la

from blockgp.distla import blas, kernels
from blockgp.transport import wire

from conftest import relerr, spd_matrix

RTOL = 1e-12
SIZES = [1, 7, 125]


def _lower(bs, seed=0):
    return np.linalg.cholesky(spd_matrix(bs, seed))


def _solve(l, b, right=False, trans=False):
    """b := op(l)^-1 b, or b op(l)^-1 with `right`, in place: a triangular
    solve with multiple right-hand sides (BLAS's trsm), as the kernels run
    it.  trtri inverts a copy of l once, and trmm multiplies by it."""
    inverse = np.tril(l)
    blas.trtri(inverse)
    blas.trmm(inverse, b, right=right, trans=trans)


def _misaligned(a, writeable=False):
    """A copy of a whose data starts 4 bytes past an 8-byte boundary, an
    `np.frombuffer` view, read-only unless `writeable`."""
    raw = bytearray(a.nbytes + 12)
    start = (-np.frombuffer(raw, np.uint8).ctypes.data) % 8 + 4
    view = np.frombuffer(raw, np.float64, count=a.size,
                         offset=start).reshape(a.shape)
    view[...] = a
    view.setflags(write=writeable)
    assert not view.flags.aligned
    return view


def _delivered(a):
    """a as the socket backend hands a received block to a kernel: a view
    of the frame body read into a fresh buffer, which the wire's pad
    aligns, in C order whatever the order a was sent in."""
    frame = wire.encode_data(1, 2, 0, ("x", "col", 1, 1), a)
    payload = wire.decode_body(bytearray(frame[4:]))[-1]
    return payload.reshape(a.shape)


class TestAgainstNumpy:
    @pytest.mark.parametrize("bs", SIZES)
    def test_potrf(self, bs):
        a = spd_matrix(bs, seed=1)
        upper = np.triu(np.full((bs, bs), 7.0), 1)
        block = np.tril(a) + upper
        blas.potrf(block)
        assert relerr(np.tril(block), np.linalg.cholesky(a)) < RTOL
        np.testing.assert_array_equal(np.triu(block, 1), upper)

    def test_potrf_padded_diagonal_block(self):
        # live 5 x 5 part, then the padding rule's identity tail
        live = spd_matrix(5, seed=2)
        block = np.eye(7)
        block[:5, :5] = np.tril(live)
        blas.potrf(block)
        want = np.eye(7)
        want[:5, :5] = np.linalg.cholesky(live)
        assert relerr(block, want) < RTOL

    def test_potrf_not_positive_definite(self):
        block = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            blas.potrf(block)

    @pytest.mark.parametrize("bs", SIZES)
    def test_trtri(self, bs):
        L = _lower(bs)
        upper = np.triu(np.full((bs, bs), 7.0), 1)
        block = L + upper
        blas.trtri(block)
        want = la.solve_triangular(L, np.eye(bs), lower=True)
        assert relerr(np.tril(block), want) < RTOL
        np.testing.assert_array_equal(np.triu(block, 1), upper)

    def test_trtri_padded_diagonal_block(self):
        # a factored diagonal block with the padding rule's unit tail: the
        # tail inverts to itself and the live part to its inverse
        live = _lower(5, seed=2)
        block = np.eye(7)
        block[:5, :5] = live
        blas.trtri(block)
        want = np.eye(7)
        want[:5, :5] = la.solve_triangular(live, np.eye(5), lower=True)
        assert relerr(block, want) < RTOL
        np.testing.assert_array_equal(block[5:], np.eye(7)[5:])
        np.testing.assert_array_equal(block[:, 5:], np.eye(7)[:, 5:])

    def test_trtri_zero_diagonal(self):
        block = np.diag([1.0, 0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            blas.trtri(block)

    @pytest.mark.parametrize("bs", SIZES)
    @pytest.mark.parametrize("right", [False, True])
    @pytest.mark.parametrize("trans", [False, True])
    def test_trmm(self, bs, right, trans):
        # t's strict upper triangle is not read
        rng = np.random.default_rng(15)
        t = rng.standard_normal((bs, bs))
        b = rng.standard_normal((3, bs) if right else (bs, 3))
        got = b.copy()
        blas.trmm(t, got, right=right, trans=trans)
        op = np.tril(t).T if trans else np.tril(t)
        assert relerr(got, b @ op if right else op @ b) < RTOL

    @pytest.mark.parametrize("bs", SIZES)
    def test_trsm_column_solve(self, bs):
        # the Cholesky sweep's X := X L^-T
        L = _lower(bs)
        x = np.random.default_rng(3).standard_normal((bs, bs))
        got = x.copy()
        _solve(L, got, right=True, trans=True)
        want = la.solve_triangular(L, x.T, lower=True).T
        assert relerr(got, want) < RTOL

    @pytest.mark.parametrize("bs", SIZES)
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("shape", ["vector", "rectangular"])
    def test_trsm_left(self, bs, trans, shape):
        # a shared-schedule solve's op(L)^-1 B, for a forward or back solve
        L = _lower(bs)
        rng = np.random.default_rng(4)
        b = rng.standard_normal((bs, 1) if shape == "vector" else (bs, 3))
        got = b.copy()
        _solve(L, got, trans=trans)
        want = la.solve_triangular(L, b, lower=True, trans=int(trans))
        assert got.shape == b.shape
        assert relerr(got, want) < RTOL

    @pytest.mark.parametrize("bs", SIZES)
    def test_syrk(self, bs):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((bs, bs))
        w = rng.standard_normal((bs, bs))
        got = c.copy()
        blas.syrk(w, got)
        assert relerr(np.tril(got), np.tril(c - w @ w.T)) < RTOL
        np.testing.assert_array_equal(np.triu(got, 1), np.triu(c, 1))

    @pytest.mark.parametrize("bs", SIZES)
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_syrk_transposed(self, bs, alpha):
        # a diagonal block of V^T V: tril(c) += alpha w^T w
        rng = np.random.default_rng(14)
        c = rng.standard_normal((bs, bs))
        w = rng.standard_normal((bs + 3, bs))
        got = c.copy()
        blas.syrk(w, got, alpha, trans=True)
        assert relerr(np.tril(got), np.tril(c + alpha * (w.T @ w))) < RTOL
        np.testing.assert_array_equal(np.triu(got, 1), np.triu(c, 1))

    @pytest.mark.parametrize("bs", SIZES)
    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_gemm(self, bs, trans_a, trans_b):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((bs, bs + 2) if trans_a else (bs + 2, bs))
        b = rng.standard_normal((3, bs) if trans_b else (bs, 3))
        c = rng.standard_normal((bs + 2, 3))
        got = c.copy()
        blas.gemm(a, b, got, -1.0, trans_a=trans_a, trans_b=trans_b)
        want = c - (a.T if trans_a else a) @ (b.T if trans_b else b)
        assert relerr(got, want) < RTOL

    @pytest.mark.parametrize("bs", SIZES)
    @pytest.mark.parametrize("trans_a", [False, True])
    def test_gemm_vector(self, bs, trans_a):
        rng = np.random.default_rng(7)
        a, x, c = (rng.standard_normal((bs, bs)),
                   rng.standard_normal((bs, 1)), rng.standard_normal((bs, 1)))
        got = c.copy()
        blas.gemm(a, x, got, 1.0, trans_a=trans_a)
        assert got.shape == (bs, 1)
        assert relerr(got, c + (a.T if trans_a else a) @ x) < RTOL


def _calls(bs=7):
    """Each routine by name, as (call(operand, output), operand, output)."""
    rng = np.random.default_rng(8)
    m = rng.standard_normal((bs, bs))
    return {
        "potrf": (lambda _, out: blas.potrf(out), None, spd_matrix(bs, 9)),
        "trtri": (lambda _, out: blas.trtri(out), None, _lower(bs)),
        "trsm": (lambda op, out: _solve(op, out, right=True, trans=True),
                 _lower(bs), m.copy()),
        "trmm": (lambda op, out: blas.trmm(op, out, right=True, trans=True),
                 np.linalg.inv(_lower(bs)), m.copy()),
        "syrk": (blas.syrk, m, spd_matrix(bs, 10)),
        "gemm": (lambda op, out: blas.gemm(op, m, out, -1.0, trans_b=True),
                 m.T.copy(), m.copy()),
    }


class TestArguments:
    # the kernels' solve inverts a tril copy of the factor, so it takes a
    # factor that BLAS itself refuses (see the operand cases below); the
    # other routines get such an operand only as the transport delivers it
    @pytest.mark.parametrize("which", ["trsm", "trmm", "syrk", "gemm"])
    @pytest.mark.parametrize("odd", ["misaligned-read-only", "f-ordered"])
    def test_odd_operand_gives_the_same_bits(self, which, odd):
        call, operand, out = _calls()[which]
        if odd == "f-ordered":
            copy = np.asfortranarray(operand)
        else:
            copy = _misaligned(operand)
            assert not copy.flags.writeable
        np.testing.assert_array_equal(copy, operand)
        if which != "trsm":
            copy = _delivered(copy)
        want, got = out.copy(), out.copy()
        call(operand, want)
        call(copy, got)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("wrong, which", [
        *((wrong, which)
          for wrong in ["f-ordered", "read-only", "shape", "misaligned",
                        "float32"]
          for which in ["potrf", "trtri", "trsm", "trmm", "syrk", "gemm"]),
        # BLAS never copies an operand that it cannot read in place
        *((f"operand-{odd}", which)
          for odd in ["misaligned-read-only", "f-ordered"]
          for which in ["trmm", "syrk", "gemm"])])
    def test_wrong_output_raises_and_is_untouched(self, which, wrong):
        call, operand, out = _calls()[which]
        out = out + np.triu(np.ones_like(out), 1)  # not symmetric
        if wrong == "operand-f-ordered":
            operand = np.asfortranarray(operand)
            assert not operand.flags.c_contiguous
        elif wrong == "operand-misaligned-read-only":
            operand = _misaligned(operand)
        elif wrong == "f-ordered":
            out = np.asfortranarray(out)
        elif wrong == "read-only":
            out.setflags(write=False)
        elif wrong == "shape":
            out = np.ascontiguousarray(out[:, :-1])
        elif wrong == "misaligned":
            out = _misaligned(out, writeable=True)
        else:
            out = out.astype(np.float32)
        before = out.copy()
        with pytest.raises(ValueError):
            call(operand, out)
        np.testing.assert_array_equal(out, before)

    @pytest.mark.parametrize("case", ["gemm-factor", "gemm-accumulator",
                                      "syrk-factor", "trsm-rhs",
                                      "trtri-block"])
    def test_1d_array_is_not_a_column(self, case):
        # a column is an n x 1 matrix; each call here would be valid with
        # the 1-D array reshaped to one, and must raise untouched instead
        rng = np.random.default_rng(13)
        a, x = rng.standard_normal((7, 7)), rng.standard_normal(7)
        column, square = np.zeros((7, 1)), np.zeros((7, 7))
        call, out = {
            "gemm-factor": (lambda: blas.gemm(a, x, column, 1.0), column),
            "gemm-accumulator": (lambda: blas.gemm(a, x[:, None], x, 1.0),
                                 x),
            "syrk-factor": (lambda: blas.syrk(x, square), square),
            "trsm-rhs": (lambda: _solve(_lower(7), x), x),
            "trtri-block": (lambda: blas.trtri(x), x),
        }[case]
        before = out.copy()
        with pytest.raises(ValueError):
            call()
        np.testing.assert_array_equal(out, before)

    def test_inner_dimensions_checked(self):
        c = np.zeros((3, 3))
        with pytest.raises(ValueError):
            blas.gemm(np.ones((3, 4)), np.ones((3, 3)), c, 1.0)
        np.testing.assert_array_equal(c, 0.0)

    def test_triangular_factor_must_be_square(self):
        b, t = np.ones((3, 2)), np.ones((3, 2))
        with pytest.raises(ValueError):
            blas.trmm(np.ones((3, 2)), b)
        with pytest.raises(ValueError):
            blas.trtri(t)
        np.testing.assert_array_equal(b, 1.0)
        np.testing.assert_array_equal(t, 1.0)


def _main_thread_stall(call):
    """(longest main-thread stall, call time) while another thread runs
    call(), one large routine of the module."""
    span = []

    def work():
        t0 = time.perf_counter()
        call()
        span.extend([t0, time.perf_counter()])

    worker = threading.Thread(target=work)
    seen = [time.perf_counter()]  # when the main thread ran, 1 ms apart
    worker.start()
    while worker.is_alive():
        now = time.perf_counter()
        if now - seen[-1] > 1e-3:
            seen.append(now)
    worker.join(30)
    assert not worker.is_alive() and span
    t0, t1 = span
    marks = [t0] + [t for t in seen if t0 < t < t1] + [t1]
    return float(np.max(np.diff(marks))), t1 - t0


def _assert_releases_the_gil(call):
    # while one thread runs call(), the main thread keeps running Python; a
    # call that holds the interpreter lock, or copies its operands under
    # it, stops the main thread for the whole call or a large part of it.
    # A busy host can also deschedule the main thread, so one of three
    # calls must show no long stall; a call under the lock stalls in all.
    tries = []
    for _ in range(3):
        stall, took = _main_thread_stall(call)
        tries.append((stall, took))
        if stall < took / 4:
            break
    else:
        pytest.fail(f"main thread stalled (stall, call) in every try: "
                    f"{tries}")


def test_gemm_releases_the_gil():
    n = 1000
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    c = np.zeros((n, n))
    _assert_releases_the_gil(lambda: blas.gemm(a, b, c, 1.0))


@pytest.mark.parametrize("which", ["trtri", "trmm"])
def test_triangular_routines_release_the_gil(which):
    # a diagonal block's inversion and a solve by its inverse; trtri
    # inverts its block back and forth from try to try.  With BLAS's
    # default two threads on two cores the main thread loses whole
    # scheduler slices: at n = 1000 that alone stalled it for up to 0.43 of
    # a call, at n = 2000 for at most 0.09
    n = 2000
    L = _lower(n, seed=16)
    b = np.random.default_rng(17).standard_normal((n, n))
    _assert_releases_the_gil({"trtri": lambda: blas.trtri(L),
                              "trmm": lambda: blas.trmm(L, b)}[which])


def test_block_products_run_only_through_blas():
    """kernels.py multiplies no blocks with numpy (`@`, `np.matmul`,
    `np.dot`): every block product goes through `blas`, so all of them run
    on one BLAS library."""
    path = pathlib.Path(kernels.__file__)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        operator = (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult))
        function = (isinstance(node, ast.Attribute)
                    and node.attr in ("matmul", "dot"))
        if operator or function:
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_blas_copies_no_operand():
    """blas.py makes no array (`np.array`, `np.asarray`,
    `np.ascontiguousarray`, `.copy()`): every routine works on the blocks
    it is given, in place, and refuses one BLAS cannot read as it is."""
    path = pathlib.Path(blas.__file__)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("array", "asarray",
                                       "ascontiguousarray", "copy")):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []
