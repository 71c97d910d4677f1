"""Master-side API for the distributed linear-algebra kernels.

A kernel that writes an object leaves nothing under its output name when it
fails on any rank, so a half-built result is never mistaken for a whole one.
"""

from contextlib import suppress
from dataclasses import replace

import numpy as np

from ..errors import BlockGPError, DimensionMismatch, SingularDiagonal
from ..grid import BlockLayout, default_h
from . import kernels  # noqa: F401  (registers the worker kernels)
from .objects import (UNIT, DistRectangular, DistTriangular, DistVector,
                      LocalPiece, assemble, split_array)


def make_layout(n, grid, h=None):
    """Layout for an n-point dimension on the given grid (h defaults to the
    block-size heuristic)."""
    if h is None:
        h = default_h(n, grid.D)
    return BlockLayout(n, h, grid.D)


def _handle(kind, name, row_layout, col_layout=None):
    if kind == "triangular":
        return DistTriangular(name, row_layout)
    if kind == "rectangular":
        return DistRectangular(name, row_layout, col_layout or row_layout)
    if kind == "vector":
        return DistVector(name, row_layout)
    raise DimensionMismatch(f"kind {kind!r} is not 'triangular', "
                            f"'rectangular' or 'vector'")


_KIND_NAMES = {DistTriangular: "triangular matrix",
               DistRectangular: "rectangular matrix", DistVector: "vector"}


def _check_kind(handle, *kinds):
    """Reject, on the master and before any collective, a handle that is
    none of the handle types `kinds`."""
    if not isinstance(handle, kinds):
        raise DimensionMismatch(
            f"expected a distributed "
            f"{' or '.join(_KIND_NAMES[k] for k in kinds)}, "
            f"got {type(handle).__name__}")


def _run_into(cluster, written, fn_id, **kwargs):
    """cluster.run for a kernel that writes the object or list of objects
    `written`; if it fails, no rank keeps a partial one (nor an input
    consumed into it)."""
    try:
        return cluster.run(fn_id, **kwargs)
    except BlockGPError:
        with suppress(BlockGPError):  # the cluster itself may be down
            cluster.remote_rm(written)
        raise


def construct_distributed(cluster, name, kind, generator, params,
                          inputs_name=None, row_layout=None, col_layout=None):
    """Distributed construction from a registered block generator.

    A vector is the diagonal of a square generator, evaluated on its
    diagonal blocks only.
    """
    handle = _handle(kind, name, row_layout, col_layout)
    _run_into(cluster, name, "distla.construct", name=name, kind=kind,
              generator=generator, params=np.asarray(params, dtype=float),
              inputs_name=inputs_name, row_layout=row_layout,
              col_layout=col_layout)
    return handle


def construct_rnorm_distributed(cluster, name, kind, row_layout,
                                col_layout=None):
    """Distributed i.i.d. N(0,1) object drawn from per-rank streams."""
    handle = _handle(kind, name, row_layout, col_layout)
    _run_into(cluster, name, "distla.rnorm", name=name, kind=kind,
              row_layout=row_layout, col_layout=col_layout)
    return handle


def distribute(cluster, name, array, kind, row_layout, col_layout=None):
    """Split a master-side dense array (1-D for a vector) across the workers.

    The master cuts each rank's owned blocks out of the array, padded by
    `fill_block`, and sends them to all ranks in one dispatch.
    """
    array = np.asarray(array, dtype=float)
    cl = UNIT if kind == "vector" else (col_layout or row_layout)
    handle = _handle(kind, name, row_layout, cl)
    shape = (row_layout.n,) if kind == "vector" else (row_layout.n, cl.n)
    if array.shape != shape:
        raise DimensionMismatch(f"{kind} shape {array.shape} != {shape}")
    blocks = split_array(kind, array.reshape(row_layout.n, cl.n),
                         cluster.grid, row_layout, cl)
    cluster.scatter(name, {rank: LocalPiece(kind, row_layout, cl,
                                            blocks[coord])
                           for rank, coord in enumerate(cluster.grid.coords(),
                                                        1)})
    return handle


def distributed_cholesky(cluster, tri, out_name, rhs=None):
    """Factor a distributed SPD matrix; consumes the input object in place.

    With a distributed vector `rhs` on the matrix's layout, the same sweep
    also forward-solves it in place (rhs becomes L^-1 rhs), with the
    messages of one vector block per step.  On failure neither the factor
    nor the right-hand side is kept.

    Returns (handle to L, per-rank stats in rank order): each rank's
    residency for the memory check ("peak_blocks", "owned_blocks") and its
    sums of log diag(L) ("log_diag") and of the solved rhs's squares
    ("sum_sq", 0 without rhs) over its diagonal blocks.  Summed in rank
    order, log det = 2 * sum(log_diag) and ||L^-1 rhs||^2 = sum(sum_sq).
    """
    _check_kind(tri, DistTriangular)
    written = out_name
    if rhs is not None:
        _check_kind(rhs, DistVector)
        if rhs.layout != tri.layout:
            raise DimensionMismatch("right-hand side rows do not conform to "
                                    "the matrix")
        written = [out_name, rhs.name]
    stats = _run_into(cluster, written, "distla.cholesky", name=tri.name,
                      out_name=out_name,
                      rhs_name=None if rhs is None else rhs.name)
    return DistTriangular(out_name, tri.layout), stats


def _applied(L, rhs, out_name):
    """Handle for L (or its inverse) applied to a conforming vector or
    rectangular right-hand side."""
    _check_kind(L, DistTriangular)
    _check_kind(rhs, DistVector, DistRectangular)
    rows = rhs.layout if isinstance(rhs, DistVector) else rhs.row_layout
    if rows != L.layout:
        raise DimensionMismatch("right-hand side rows do not conform to L")
    return replace(rhs, name=out_name)


def triangular_solve(cluster, L, rhs, out_name, side="forward"):
    """x with L x = b (side="forward") or L^T x = b (side="back").

    With out_name == rhs.name the solve consumes b in place: each block of
    b is overwritten by its solution, and released, as soon as it is
    solved, so no second copy of the operand is kept.  Messages and results
    are those of a solve into a new name.
    """
    if side not in ("forward", "back"):
        raise DimensionMismatch(f"side {side!r} is not 'forward' or 'back'")
    out = _applied(L, rhs, out_name)
    _run_into(cluster, out_name, "distla.solve", l_name=L.name,
              rhs_name=rhs.name, out_name=out_name, forward=side == "forward")
    return out


def mult_chol(cluster, L, x, out_name):
    """L @ x for a distributed vector or rectangular x."""
    out = _applied(L, x, out_name)
    _run_into(cluster, out_name, "distla.mult", l_name=L.name, x_name=x.name,
              out_name=out_name)
    return out


def crossprod_mat_vec(cluster, V, u, out_name):
    """V^T u as a distributed vector on V's column layout."""
    _check_kind(V, DistRectangular)
    _check_kind(u, DistVector)
    if u.layout != V.row_layout:
        raise DimensionMismatch("u layout does not match V's row layout")
    _run_into(cluster, out_name, "distla.xprod", v_name=V.name, u_name=u.name,
              out_name=out_name)
    return DistVector(out_name, V.col_layout)


def crossprod_self(cluster, V, out_name, subtract=False):
    """V^T V (lower storage) on V's column layout.

    With `subtract`, out_name must already name a triangular object S on
    V's column layout, and S becomes S - V^T V in place: each result
    block starts from S's block, and each partial and sum is subtracted
    where V^T V adds it, in V^T V's order and with its messages.
    """
    _check_kind(V, DistRectangular)
    _run_into(cluster, out_name, "distla.xprod", v_name=V.name,
              u_name=V.name, out_name=out_name, subtract=subtract)
    return DistTriangular(out_name, V.col_layout)


def crossprod_self_diag(cluster, V, out_name):
    """diag(V^T V) as a distributed vector."""
    _check_kind(V, DistRectangular)
    _run_into(cluster, out_name, "distla.xprod", v_name=V.name, u_name=None,
              out_name=out_name)
    return DistVector(out_name, V.col_layout)


def _collect(cluster, handle, release=False, diagonal_only=False):
    """The one collect collective, assembled on the master.  The public
    functions below share it rather than call each other, so each of their
    calls is one collective of its own."""
    if diagonal_only:
        _check_kind(handle, DistTriangular)
    vector = diagonal_only or isinstance(handle, DistVector)
    if isinstance(handle, DistRectangular):
        rl, cl = handle.row_layout, handle.col_layout
    else:
        rl = handle.layout
        cl = UNIT if vector else rl
    pieces = cluster.run("distla.collect", name=handle.name, release=release,
                         diagonal_only=diagonal_only)
    A = assemble(pieces, rl, cl)
    return A[:, 0] if vector else A


def collect(cluster, handle, release=False):
    """Reassemble the unpadded dense object on the master.

    Triangular objects come back as dense lower-triangular arrays.  With
    `release` the workers drop the object as they ship it.
    """
    return _collect(cluster, handle, release=release)


def collect_diagonal(cluster, handle):
    """Diagonal of a distributed triangular matrix, unpadded."""
    return _collect(cluster, handle, diagonal_only=True)


def log_det_from_chol(cluster, L):
    """log det C = 2 sum log diag(L), summed on the master from L's
    collected diagonal.  A diagonal entry that is not positive raises
    SingularDiagonal naming its block; the workers keep L as it was."""
    d = _collect(cluster, L, diagonal_only=True)
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        block = bad[0] // L.layout.block_size + 1
        raise SingularDiagonal(f"non-positive diagonal in block {block}")
    return 2.0 * float(np.sum(np.log(d)))


def sum_squares(cluster, vec):
    """Squared Euclidean norm of a distributed vector, computed on the
    master from the collected vector; the workers keep the vector."""
    x = _collect(cluster, vec)
    return float(x @ x)


__all__ = [
    "BlockLayout", "DistRectangular", "DistTriangular", "DistVector",
    "LocalPiece", "collect", "collect_diagonal", "construct_distributed",
    "construct_rnorm_distributed", "crossprod_mat_vec", "crossprod_self",
    "crossprod_self_diag", "distribute", "distributed_cholesky",
    "log_det_from_chol", "make_layout", "mult_chol", "sum_squares",
    "triangular_solve",
]
