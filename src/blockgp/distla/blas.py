"""In-place BLAS and LAPACK on C-ordered float64 blocks, without the GIL.

The five routines the kernels need (`dpotrf`, `dtrtri`, `dtrmm`, `dsyrk`,
`dgemm`) are resolved once, at import, from the function pointers that scipy's
`cython_blas` and `cython_lapack` export, and called through `ctypes`.  A
ctypes foreign call releases the interpreter lock, so in-process worker
threads factor and multiply at the same time; scipy's f2py wrappers hold it.

A C-ordered m x n block is, to Fortran, the n x m transpose in the same
memory.  Each routine therefore passes BLAS the transposed problem and
works on the blocks as they are, with no copy and no temporary.

A wrong pointer or leading dimension corrupts memory silently, so every
routine checks its arguments before calling in: the array it writes must be
a C-contiguous, aligned, writable float64 array of the right shape, or it
raises ValueError; an operand that is not C-contiguous and aligned float64
is copied first.  Every array is a 2-D matrix: a column is an n x 1 one.
"""

import ctypes

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

_CHAR, _PTR = ctypes.c_char_p, ctypes.c_void_p
_INT, _DBL = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_F8 = np.dtype(np.float64)

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _resolve(module, name, *argtypes):
    """The C function `name` exported by a scipy Cython module."""
    capsule = module.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


# uplo, n, a, lda, info
_dpotrf = _resolve(cython_lapack, "dpotrf", _CHAR, _INT, _PTR, _INT, _INT)
# uplo, diag, n, a, lda, info
_dtrtri = _resolve(cython_lapack, "dtrtri", _CHAR, _CHAR, _INT, _PTR, _INT,
                   _INT)
# side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
_dtrmm = _resolve(cython_blas, "dtrmm", _CHAR, _CHAR, _CHAR, _CHAR, _INT,
                  _INT, _DBL, _PTR, _INT, _PTR, _INT)
# uplo, trans, n, k, alpha, a, lda, beta, c, ldc
_dsyrk = _resolve(cython_blas, "dsyrk", _CHAR, _CHAR, _INT, _INT, _DBL, _PTR,
                  _INT, _DBL, _PTR, _INT)
# transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
_dgemm = _resolve(cython_blas, "dgemm", _CHAR, _CHAR, _INT, _INT, _INT, _DBL,
                  _PTR, _INT, _PTR, _INT, _DBL, _PTR, _INT)


_ONE = ctypes.c_double(1.0)  # trmm's alpha; beta: add to the output


_int = ctypes.c_int  # a dimension, passed by reference as the argtype says


def _matrix(a, writable=False):
    """a's data pointer if a is a C-contiguous, aligned float64 matrix (and
    writable, with `writable`), else None."""
    if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == _F8):
        return None
    flags = a.flags
    if not (flags.c_contiguous and flags.aligned) or (
            writable and not flags.writeable):
        return None
    return a.__array_interface__["data"][0]


def _operand(a, what):
    """(a as a C-contiguous, aligned float64 matrix, copied only if needed,
    its data pointer)."""
    ptr = _matrix(a)
    if ptr is None:
        a = np.array(a, dtype=_F8, order="C")  # a fresh array is aligned
        if a.ndim != 2:
            raise ValueError(f"{what} must be 2-D, got {a.ndim}-D")
        ptr = _matrix(a)
    return a, ptr


def _output(a, what):
    """The data pointer of a, checked to be a matrix writable in place."""
    ptr = _matrix(a, writable=True)
    if ptr is None:
        raise ValueError(f"{what} must be a 2-D C-contiguous, aligned, "
                         f"writable float64 array")
    return ptr


def _check_shape(a, shape, what):
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")


def _ld(a):
    """Fortran leading dimension of a C-ordered matrix: its row length."""
    return _int(max(1, a.shape[1]))


def potrf(a):
    """Cholesky factor in place: a's lower triangle becomes L with
    a = L L^T; the strict upper triangle is neither read nor written.
    Raises np.linalg.LinAlgError if a leading minor is not positive."""
    ptr = _output(a, "the factored block")
    n = a.shape[0]
    _check_shape(a, (n, n), "the factored block")
    info = ctypes.c_int(0)
    _dpotrf(b"U", _int(n), ptr, _ld(a), info)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"leading minor {info.value} is not positive definite")
    if info.value < 0:
        raise ValueError(f"dpotrf rejected argument {-info.value}")


def trtri(a):
    """Inverse in place: a's lower triangle L becomes L^-1, for a non-unit
    diagonal; the strict upper triangle is neither read nor written.
    Raises np.linalg.LinAlgError if a diagonal entry is exactly zero."""
    ptr = _output(a, "the inverted block")
    n = a.shape[0]
    _check_shape(a, (n, n), "the inverted block")
    info = ctypes.c_int(0)
    # Fortran sees a^T, whose upper triangle is tril(a): (L^T)^-1 = (L^-1)^T
    _dtrtri(b"U", b"N", _int(n), ptr, _ld(a), info)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"diagonal entry {info.value} is zero")
    if info.value < 0:
        raise ValueError(f"dtrtri rejected argument {-info.value}")


def trmm(t, b, right=False, trans=False):
    """b := op(t) b, or b op(t) with `right`, in place; t is lower
    triangular with a non-unit diagonal (its strict upper triangle is not
    read) and op(t) is t, or t^T with `trans`."""
    t, tptr = _operand(t, "the triangular factor")
    bptr = _output(b, "the multiplied block")
    n = t.shape[0]
    _check_shape(t, (n, n), "the triangular factor")
    _check_shape(b, (b.shape[0], n) if right else (n, b.shape[1]),
                 "the multiplied block")
    # Fortran sees b^T and t^T: the side flips, the transpose flag stays
    _dtrmm(b"L" if right else b"R", b"U", b"T" if trans else b"N", b"N",
           _int(b.shape[1]), _int(b.shape[0]), _ONE, tptr,
           _ld(t), bptr, _ld(b))


def syrk(w, c, alpha=-1.0, trans=False):
    """tril(c) += alpha op(w) op(w)^T in place, where op(w) is w, or w^T
    with `trans`; c's strict upper triangle is neither read nor written."""
    w, wptr = _operand(w, "the update factor")
    cptr = _output(c, "the updated block")
    k, n = w.shape if trans else w.shape[::-1]
    _check_shape(c, (n, n), "the updated block")
    # Fortran sees w^T and c^T, whose upper triangle is tril(c): it takes
    # (w^T)^T w^T = w w^T, or w^T (w^T)^T = w^T w with `trans`
    _dsyrk(b"U", b"N" if trans else b"T", _int(n), _int(k),
           ctypes.c_double(alpha), wptr, _ld(w), _ONE, cptr, _ld(c))


def gemm(a, b, c, alpha, trans_a=False, trans_b=False):
    """c += alpha op(a) op(b) in place, where op(x) is x, or x^T with the
    matching `trans_*`."""
    a, aptr = _operand(a, "the left factor")
    b, bptr = _operand(b, "the right factor")
    cptr = _output(c, "the accumulator")
    m, k = a.shape[::-1] if trans_a else a.shape
    kb, n = b.shape[::-1] if trans_b else b.shape
    if kb != k:
        raise ValueError(f"inner dimensions differ: {k} and {kb}")
    _check_shape(c, (m, n), "the accumulator")
    # Fortran sees c^T += alpha op(b)^T op(a)^T: the operands swap, the
    # transpose flags stay
    _dgemm(b"T" if trans_b else b"N", b"T" if trans_a else b"N",
           _int(n), _int(m), _int(k),
           ctypes.c_double(alpha), bptr, _ld(b), aptr, _ld(a), _ONE, cptr,
           _ld(c))
