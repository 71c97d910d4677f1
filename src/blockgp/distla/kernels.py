"""Worker-side SPMD kernels for the distributed linear algebra.

Every kernel walks the same globally-known schedule on every worker; data
dependencies are enforced purely by tag-matched blocking receives, so results
are deterministic for a fixed (P, h, seed).  Sends are non-blocking.  In
each Cholesky step the owner of a solved column block sends it once to each
rank whose trailing blocks use it, and that rank holds it from its first use
to its last, in the order one pure plan (`_trailing_plan`) gives.

Block ownership comes only from `grid.py`, and `_operand` is the one rule
for addressing an operand: every block is 2-D and keyed (I, c), and a
vector's (I, 1) blocks live on the diagonal workers.  Solves, multiplies
and crossproducts share one schedule with one travel rule: each partial
product runs where the matrix block (L or V) lives, the operand block
travels there ("x" for a vector, "col" otherwise), and each rank sends a
result block's owner one sum of its partials for it ("ps").  The schedule
runs one stage per result block row; in each, every rank first sends the
sums it owes (produce pass), then builds its own blocks of the row
(consume pass), so the ranks do not wait on each other cell by cell.

A kernel whose output name is also its input's (Cholesky, solves, the
subtracting crossproduct) overwrites that input block by block instead of
keeping a second copy; a new result is one allocation (`new_blocks`), and
no kernel replaces a block of an object with a new array.  A block a kernel
sends is final for the rest of the collective: the sender never writes it
again, and the receiver only reads it.

Block arithmetic runs in place through `blas`, on the C-ordered blocks as
they are and without the interpreter lock.  A triangular solve by a
diagonal block L(J, J) is a multiplication by its inverse: the owner of
L(J, J) inverts it once per collective (`_inverse`, `trtri` on a
lower-triangular copy) and sends the inverse ("diag") where the block
itself would travel, and each block solved by L(J, J) is one in-place
`trmm`.  The sweep factors a diagonal block with `potrf`, solves down its
column, and updates trailing blocks with `syrk` (diagonal) and `gemm`
(off-diagonal); given a right-hand side vector it forward-solves that in
the same sweep (u(J) by its diagonal owner, `gemm` updates in the diagonal
tasks).  In the shared schedule one rule accumulates every partial in
place, with `gemm` (`syrk` into a diagonal block of V^T V, column sums for
diag(V^T V)): into the result block if the rank owns it, otherwise into the
zeroed sum it sends; the owner adds the sums it receives, and a solve
finishes each result block by the inverse of its row's diagonal block.
"""

import numpy as np

from .. import registry
from ..errors import (DimensionMismatch, GeneratorError, NotPositiveDefinite,
                      SingularDiagonal)
from ..grid import block_owner, rect_block_owner, residue, vector_block_owner
from . import blas
from .objects import (UNIT, LocalPiece, fill_block, new_blocks,
                      owned_blocks)


# ---------------------------------------------------------------------------
# construction

def _generate(ctx, gen, shape, *args):
    try:
        out = np.asarray(gen(*args), dtype=float)
    except Exception as exc:
        raise GeneratorError(ctx.rank, exc) from exc
    if out.shape != shape:
        raise GeneratorError(ctx.rank, ValueError(
            f"generator returned shape {out.shape}, expected {shape}"))
    return out


def _store_owned(ctx, name, kind, row_layout, col_layout, values):
    """Store the owned blocks, views of one allocation, each written once by
    fill_block from values(key, block shape)."""
    cl = UNIT if kind == "vector" else (col_layout or row_layout)
    shape = (row_layout.block_size, cl.block_size)
    blocks = new_blocks(owned_blocks(kind, ctx.coord, ctx.grid, row_layout,
                                     cl), shape, empty=True)
    for key, block in blocks.items():
        fill_block(kind, key, values(key, shape), row_layout, cl, block)
    ctx.store[name] = LocalPiece(kind, row_layout, cl, blocks)


@registry.register("distla.construct")
def construct(ctx, name, kind, generator, params, inputs_name,
              row_layout, col_layout=None):
    """Fill owned blocks by calling a block generator once per block with
    the 1-based global indices of its live rows and columns.

    A vector holds the diagonal of a square generator, which is called on
    the diagonal blocks (J, J) only.
    """
    gen = registry.lookup(generator)
    inputs = ctx.fetch(inputs_name) if inputs_name else None
    params = np.asarray(params, dtype=float)
    cl = col_layout or row_layout

    def indices(J, layout):
        k = layout.live(J)
        return np.arange(k.start + 1, k.stop + 1)

    def values(key, shape):
        I, J = (key[0], key[0]) if kind == "vector" else key
        i, j = indices(I, row_layout), indices(J, cl)
        ctx.log_event("construct", I, J)
        block = _generate(ctx, gen, (len(i), len(j)), params, inputs, i, j)
        return np.diag(block)[:, None] if kind == "vector" else block
    _store_owned(ctx, name, kind, row_layout, col_layout, values)


@registry.register("distla.rnorm")
def construct_rnorm(ctx, name, kind, row_layout, col_layout=None):
    """Fill owned blocks with i.i.d. N(0,1) draws from this rank's stream.

    Padded positions are drawn too (keeping the stream position a pure
    function of the block size) and then dropped by fill_block.
    """
    def values(key, shape):
        return ctx.normals(shape[0] * shape[1]).reshape(shape, order="F")
    _store_owned(ctx, name, kind, row_layout, col_layout, values)


# ---------------------------------------------------------------------------
# Cholesky

@registry.register("distla.cholesky")
def cholesky(ctx, name, out_name, rhs_name=None):
    """Right-looking block Cholesky over the folded triangular layout.

    Factors in place (the input name is consumed), and with `rhs_name`
    forward-solves that vector in place in the same sweep: it becomes
    L^-1 b.  Column J of each step: the diagonal owner factors and inverts
    L(J, J), column owners multiply their blocks by the inverse and send
    each solved L(X, J) once to every rank that uses it, then every
    trailing block (R, C) is updated with the pair L(R,J), L(C,J) in the
    order of its owner's plan, which holds each received block from its
    first use to its last (see `_trailing_plan`).  Returns this rank's peak
    number of owned plus held blocks, for the memory-bound check (the
    inverse counts while the column solves, on its owner too; blocks
    waiting in the mailbox and vector blocks are not counted), and its sums
    of log diag L(J, J) and of ||u(J)||^2 over the diagonal blocks it owns
    (the latter 0 without a right-hand side).
    """
    piece = ctx.fetch(name)
    rhs = None if rhs_name is None else ctx.fetch(rhs_name).blocks
    if out_name != name:
        ctx.store[out_name] = piece
        del ctx.store[name]
    return _cholesky_sweep(ctx, out_name, piece.blocks, piece.row_layout, rhs)


def _cholesky_sweep(ctx, out_name, blocks, lay, u=None):
    """The step-J sweep over L's blocks, and over the (I, 1) blocks `u` of a
    right-hand side if given.

    u(J) lives with L(J, J), so in step J their owner solves it in place
    once its column blocks are sent, and sends it ("x") once to each other
    diagonal rank with a row block of its residue below J.  That rank
    applies u(I) -= L(I, J) u(J) in its (I, I) task, while it holds L(I, J)
    for the `syrk`; so each u(I) takes its updates in ascending J, then its
    own solve in step I.  Padding adds log 1 = 0 and 0^2 to the local sums.
    """
    grid, me = ctx.grid, ctx.coord
    B, bs = lay.B, lay.block_size
    owned = peak = len(blocks)
    log_diag = sum_sq = 0.0
    for J in range(1, B + 1):
        downer = block_owner(J, J, grid)
        # factor the diagonal block
        if me == downer:
            L = blocks[(J, J)]
            try:
                blas.potrf(L)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(J) from None
            ctx.log_event("factor", J, J)
            inverse = _inverse(L, J)
            peak = max(peak, owned + 1)
            for dest in sorted({block_owner(I, J, grid)
                                for I in range(J + 1, B + 1)}):
                if dest != me:
                    ctx.send(dest, (out_name, "diag", J, J), inverse)
            log_diag += float(np.sum(np.log(np.diag(L))))
        # solves down column J by L(J, J)^-1, each block sent on as soon
        # as it is solved, once to each rank whose trailing blocks use it
        my_rows = [I for I in range(J + 1, B + 1)
                   if block_owner(I, J, grid) == me]
        if my_rows and me != downer:
            inverse = ctx.recv(downer, (out_name, "diag", J, J), (bs, bs))
            peak = max(peak, owned + 1)
        for I in my_rows:
            blas.trmm(inverse, blocks[(I, J)], right=True, trans=True)
            ctx.log_event("solve", I, J)
            for dest in sorted({rect_block_owner(I, X, grid)
                                for X in range(J + 1, B + 1)}):
                if dest != me:
                    ctx.send(dest, (out_name, "col", I, J), blocks[(I, J)])
        # solve u(J) after the column blocks the trailing updates wait for
        uJ = None
        if u is not None and me == downer:
            uJ = u[(J, 1)]
            blas.trmm(inverse, uJ)
            sum_sq += float(np.vdot(uJ, uJ))
            for dest in sorted({vector_block_owner(I, grid)
                                for I in range(J + 1, B + 1)} - {me}):
                ctx.send(dest, (out_name, "x", J, 1), uJ)
        inverse = None  # held only while the column solves
        # trailing updates, walking this rank's plan
        held = {}
        for R, C, receive, done in _trailing_plan(J, B, grid, me):
            for X in receive:
                held[X] = ctx.recv(block_owner(X, J, grid),
                                   (out_name, "col", X, J), (bs, bs))
            peak = max(peak, owned + len(held))
            Lr, Lc = (held[X] if X in held else blocks[(X, J)] for X in (R, C))
            if R == C:
                blas.syrk(Lr, blocks[(R, C)])
                if u is not None:
                    if uJ is None:
                        uJ = ctx.recv(downer, (out_name, "x", J, 1), (bs, 1))
                    blas.gemm(Lr, uJ, u[(R, 1)], -1.0)
            else:
                blas.gemm(Lr, Lc, blocks[(R, C)], -1.0, trans_b=True)
            ctx.log_event("update", R, C)
            for X in done:
                del held[X]
    return {"peak_blocks": peak, "owned_blocks": owned,
            "log_diag": log_diag, "sum_sq": sum_sq}


def _inverse(L, J):
    """L^-1 of the lower-triangular diagonal block L(J, J), as a new block;
    padding's unit diagonal inverts to itself.  Raises SingularDiagonal
    naming J on a zero diagonal entry."""
    inverse = np.tril(L)
    try:
        blas.trtri(inverse)
    except np.linalg.LinAlgError:
        raise SingularDiagonal(f"zero diagonal in block {J}") from None
    return inverse


def _trailing_plan(J, B, grid, coord):
    """The step-J trailing updates of rank `coord`, in the order it runs
    them: one (R, C, receive, done) per block (R, C) it owns, where
    `receive` lists the remote L(X, J) the update receives first and
    `done` those whose last use it is.  Each remote block is received once
    and held from its first use to its last.

    Updates are sorted by their leading remote input, the one of highest
    residue class and then highest index, then by (R, C).  A rank with
    inputs from one class (D = 2, or a diagonal rank) so runs by largest
    input and holds at most that class; an off-diagonal rank at D >= 3 with
    inputs from two classes streams the higher class and holds the lower
    one plus one block.
    """
    tasks = [(R, C, {X for X in (R, C) if block_owner(X, J, grid) != coord})
             for C in range(J + 1, B + 1) for R in range(C, B + 1)
             if block_owner(R, C, grid) == coord]
    tasks.sort(key=lambda t: (max(((residue(X, grid.D), X) for X in t[2]),
                                  default=(0, 0)), t[0], t[1]))
    first, last = {}, {}
    for k, (_, _, xs) in enumerate(tasks):
        for X in xs:
            first.setdefault(X, k)
            last[X] = k
    return [(R, C, sorted(X for X in xs if first[X] == k),
             sorted(X for X in xs if last[X] == k))
            for k, (R, C, xs) in enumerate(tasks)]


# ---------------------------------------------------------------------------
# solves, multiplies and crossproducts: one schedule

@registry.register("distla.solve")
def solve(ctx, l_name, rhs_name, out_name, forward=True):
    """Solve L X = B (forward) or L^T X = B (backward), vector or rectangular B.

    With out_name == rhs_name the solve runs in place: each block of B is
    overwritten by its solution, and released, as soon as it is solved.
    """
    _schedule(ctx, "forward" if forward else "back", l_name, rhs_name,
              out_name)


@registry.register("distla.mult")
def mult(ctx, l_name, x_name, out_name):
    """Y = L X for a distributed vector or rectangular X."""
    _schedule(ctx, "mult", l_name, x_name, out_name)


@registry.register("distla.xprod")
def xprod(ctx, v_name, u_name, out_name, subtract=False):
    """V^T u (a vector u), V^T V in lower storage (u_name == v_name), or
    diag(V^T V) (u_name None), on V's column layout.

    With `subtract` (V^T V only), out_name already holds a triangular object
    S on V's column layout: each accumulator starts from S's block and the
    partials are subtracted from it, so S becomes S - V^T V in place.
    """
    _schedule(ctx, "xprod", v_name, u_name, out_name, subtract)


def _operand(piece, grid):
    """How kernels address the blocks (I, c) of a piece: (owner(I, c),
    block shape, travel phase).

    A vector's (I, 1) blocks live on the diagonal workers and travel in the
    "x" phase; any other piece's blocks travel in the "col" phase.
    """
    shape = (piece.row_layout.block_size, piece.col_layout.block_size)
    if piece.kind == "vector":
        return lambda I, c: vector_block_owner(I, grid), shape, "x"
    return lambda I, c: rect_block_owner(I, c, grid), shape, "col"


def _schedule(ctx, op, m_name, x_name, out_name, subtract=False):
    """Apply a matrix M to an operand X: op "forward" (L^-1 X), "back"
    (L^-T X), "mult" (L X) or "xprod" (V^T X, or diag(V^T V) without X).

    Result block (J, c) takes one partial per K: L(J, K) X(K, c) for K < J
    (forward) or K <= J (mult), L(K, J)^T X(K, c) for K > J (back), and
    V(K, J)^T X(K, c) for every row block K (xprod).  Each partial runs
    where the block of M lives, with the operand block X(K, c) sent there
    per use, and `accumulate` adds it in place: into the result block on
    its owner, or into the one sum ("ps") its rank sends that owner.  The
    owner adds its partials in ascending K, then the sums in the order of
    their senders' first K.  A solve's operand blocks are its own solved
    result blocks; a solve into its own right-hand side accumulates in B's
    block.

    The walk runs in stages, one per result block row J (descending for
    "back", ascending otherwise: a solve's row reads the rows solved
    before it).  A solve's stage opens with the owner of L(J, J) inverting
    it and sending the inverse once to each other owner of a block of row J
    ("diag"), which holds it for the row.  Then two passes walk the row's
    triples (J, c, K):
    - produce: each rank sums its partials for each other rank's block in
      ascending K, and sends the sum when its walk of that cell ends;
    - consume: each rank builds its own blocks of the row, in the blocks of
      the result, and a solve finishes each with a trmm by the inverse.
    So no rank waits for a sum of a row before it has sent all it owes for
    that row.  Nothing can deadlock: within a pass every rank walks the
    same triples in the same order, and a rank waits only for a message
    sent at the same triple of the same pass by a rank that only sends
    there (an operand), or sent earlier in the stage (L(J, J)^-1, and each
    sum, sent when its cell's walk in the produce pass ends, before any
    rank waits in the consume pass), or in an earlier stage (a solved
    operand block).
    """
    M = ctx.fetch(m_name)
    X = None if x_name is None else ctx.fetch(x_name)
    grid, me = ctx.grid, ctx.coord
    solving, square = op in ("forward", "back"), x_name == m_name
    in_place = subtract or (solving and out_name == x_name)
    B, bs = M.row_layout.B, M.row_layout.block_size
    Ks = {"forward": lambda J: range(1, J),
          "back": lambda J: range(J + 1, B + 1),
          "mult": lambda J: range(1, J + 1),
          "xprod": lambda J: range(1, B + 1)}[op]
    if op == "xprod":
        clay = M.col_layout
        if subtract:
            res = ctx.fetch(out_name)
            if not square or res.kind != "triangular" or res.row_layout != clay:
                raise DimensionMismatch("a subtracting crossproduct needs V^T V"
                                        " and a triangular start on V's columns")
        else:
            res = (LocalPiece("triangular", clay, clay, {}) if square
                   else LocalPiece("vector", clay, UNIT, {}))
        rows = range(1, clay.B + 1)
        row_cols = lambda A: range(1, (A if square else 1) + 1)
    else:
        res = LocalPiece(X.kind, M.row_layout, X.col_layout,
                         X.blocks if in_place else {})
        rows = range(B, 0, -1) if op == "back" else range(1, B + 1)
        row_cols = lambda J: range(1, X.col_layout.B + 1)
    res_owner, shape, _ = _operand(res, grid)
    if not in_place:  # a new result is one allocation; a solve's starts as B
        res.blocks = new_blocks(owned_blocks(res.kind, me, grid,
                                             res.row_layout, res.col_layout),
                                shape)
        if solving:
            for key, block in res.blocks.items():
                block[...] = X.blocks[key]
    if X is not None:
        x_owner, x_shape, phase = _operand(X, grid)
        xs = res.blocks if solving else X.blocks  # what the partials multiply
    transposed = op in ("back", "xprod")
    mkey = (lambda J, K: (K, J)) if transposed else (lambda J, K: (J, K))
    sign = -1.0 if solving or subtract else 1.0

    def accumulate(acc, J, c, Mb, xk):
        """The one rule that adds a partial for result block (J, c) to acc:
        a result block on its owner, or a sum for another rank's block."""
        if X is None:
            np.add(acc, np.einsum("ij,ij->j", Mb, Mb)[:, None], out=acc)
        elif square and J == c:  # V^T V's diagonal blocks stay lower
            blas.syrk(Mb, acc, sign, trans=True)
        else:
            blas.gemm(Mb, xk, acc, sign, trans_a=transposed)

    def operand(K, c, where):
        """X(K, c) on the rank `where` (None elsewhere, or without X); its
        owner sends it there."""
        if X is None:
            return None
        xowner, tag = x_owner(K, c), (out_name, phase, K, c)
        if xowner == me and where != me:
            ctx.send(where, tag, xs[(K, c)])
        if where == me:
            return (xs[(K, c)] if xowner == me
                    else ctx.recv(xowner, tag, x_shape))
    for J in rows:
        cells = [(c, res_owner(J, c)) for c in row_cols(J)]
        owners = {towner for _, towner in cells}
        inverse = None
        if solving and block_owner(J, J, grid) == me:
            inverse = _inverse(M.blocks[(J, J)], J)
            for dest in sorted(owners - {me}):
                ctx.send(dest, (out_name, "diag", J, J), inverse)
        for owed in (True, False):  # the produce pass, then the consume pass
            for c, towner in cells:
                tag = (out_name, "ps", J, c)
                acc = res.blocks[(J, c)] if towner == me and not owed else None
                senders = []  # of the sums for this block, by first K
                for K in Ks(J):
                    where = rect_block_owner(*mkey(J, K), grid)
                    if (where != towner) == owed:
                        xk = operand(K, c, where)
                        if where == me:
                            if acc is None:
                                acc = np.zeros(shape)
                            accumulate(acc, J, c, M.blocks[mkey(J, K)], xk)
                    elif not owed and where not in senders:
                        senders.append(where)
                if owed and acc is not None:
                    ctx.send(towner, tag, acc)
                elif not owed and towner == me:
                    for where in senders:
                        np.add(acc, ctx.recv(where, tag, shape), out=acc)
                    if solving:  # acc := op(L(J, J))^-1 acc
                        if inverse is None:
                            inverse = ctx.recv(block_owner(J, J, grid),
                                               (out_name, "diag", J, J),
                                               (bs, bs))
                        blas.trmm(inverse, acc, trans=op == "back")
    ctx.store[out_name] = res


# ---------------------------------------------------------------------------
# collection: the master assembles what is shipped, and finishes the
# log-determinant and sums of squares from a collected diagonal or vector

@registry.register("distla.collect")
def collect_blocks(ctx, name, diagonal_only=False, release=False):
    """Ship owned blocks back to the master, or, with `diagonal_only`, the
    diagonals of the diagonal blocks as (I, 1) vector blocks.  With `release`
    the object leaves the store, so its blocks are shipped without a copy."""
    piece = ctx.fetch(name)
    if release:
        del ctx.store[name]
    if not diagonal_only:
        return {k: v if release else np.array(v)
                for k, v in piece.blocks.items()}
    return {(I, 1): np.diag(block)[:, None].copy()
            for (I, J), block in piece.blocks.items() if I == J}
