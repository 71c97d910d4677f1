"""Block-distributed object model.

A distributed object is a name plus layout metadata on the master, and a
LocalPiece (the owned blocks) in each worker's store.  Every block is a
dense 2-D float64 array of the layouts' full block size under an (I, J)
key: a vector is an n x 1 matrix whose column layout is `UNIT`, so its
blocks are (I, 1) columns, owned by the diagonal workers.
`BlockLayout.live` says which entries of a block are real.  Every block
that enters the system (a slice of a distributed array, a generator's
values, a random draw) is made by `fill_block`, the one padding rule: padded
entries are zero, except that a triangular diagonal block keeps its strict
upper triangle at zero and has ones on its padded diagonal.  The kernels
preserve that pattern, so padding never contaminates factorizations, solves
or products, and `assemble` only has to drop it.

A rank's owned blocks of an object are one allocation: `new_blocks` makes
them as the views slab[k] of one (blocks, rows, cols) array, and
`fill_block` writes each straight into its view.  Construct, rnorm,
`split_array` and every new kernel result build their blocks this way (a
split sent to a socket worker is unpickled block by block).  Kernels update
an object in place and never replace one of its blocks with a new array,
which would keep the whole allocation alive beside it.
"""

from dataclasses import dataclass

import numpy as np

from ..grid import (BlockLayout, rect_blocks, triangular_blocks,
                    vector_blocks)

UNIT = BlockLayout(1, 1, 1)  # a vector's column layout: one block of one


@dataclass
class LocalPiece:
    """One worker's share of a distributed object."""

    kind: str  # "triangular" | "rectangular" | "vector"
    row_layout: BlockLayout
    col_layout: BlockLayout  # UNIT for a vector
    blocks: dict  # (I, J) -> 2-D array of the layouts' block size


@dataclass(frozen=True)
class DistTriangular:
    """Master-side handle to a lower-triangular distributed matrix."""

    name: str
    layout: BlockLayout


@dataclass(frozen=True)
class DistRectangular:
    name: str
    row_layout: BlockLayout
    col_layout: BlockLayout


@dataclass(frozen=True)
class DistVector:
    name: str
    layout: BlockLayout


def owned_blocks(kind, coord, grid, row_layout, col_layout):
    if kind == "triangular":
        return triangular_blocks(coord, row_layout, grid)
    if kind == "rectangular":
        return rect_blocks(coord, row_layout, col_layout, grid)
    return [(I, 1) for I in vector_blocks(coord, row_layout, grid)]


def new_blocks(keys, shape, empty=False):
    """{key: block} of the given block shape for each of `keys`, each block
    the C-contiguous view slab[k] of one (len(keys), *shape) array, zeroed
    unless `empty`."""
    slab = (np.empty if empty else np.zeros)((len(keys), *shape))
    return dict(zip(keys, slab))


def fill_block(kind, key, values, rows, cols, block):
    """Write block key of a `kind` object into `block`: the live part of
    `values` and the padding.

    `values` is the block's live part or a whole padded block.  A triangular
    diagonal block keeps only its lower triangle and gets ones on its padded
    diagonal; every other padded entry is zero.
    """
    I, J = key
    r, c = rows.live(I), cols.live(J)
    kr, kc = r.stop - r.start, c.stop - c.start
    live, values = block[:kr, :kc], values[:kr, :kc]
    diagonal = kind == "triangular" and I == J
    if diagonal:
        lower = np.tri(kr, kc, dtype=bool)
        np.copyto(live, values, where=lower)
        np.copyto(live, 0.0, where=~lower)
    else:
        live[...] = values
    block[:kr, kc:] = 0.0
    block[kr:] = 0.0
    if diagonal:
        pad = np.arange(kr, rows.block_size)
        block[pad, pad] = 1.0


def split_array(kind, array, grid, row_layout, col_layout):
    """Owned blocks of a master-side dense 2-D array for every coordinate
    of the grid, {coord: blocks}, each coordinate's blocks views of one
    allocation."""
    shape = (row_layout.block_size, col_layout.block_size)
    split = {}
    for coord in grid.coords():
        split[coord] = new_blocks(owned_blocks(kind, coord, grid, row_layout,
                                               col_layout), shape, empty=True)
        for (I, J), block in split[coord].items():
            fill_block(kind, (I, J), array[row_layout.live(I),
                                           col_layout.live(J)],
                       row_layout, col_layout, block)
    return split


def assemble(pieces, row_layout, col_layout):
    """Master-side reassembly of collected blocks as a 2-D array, without
    their padding."""
    A = np.zeros((row_layout.n, col_layout.n))
    for blocks in pieces:
        for (I, J), v in blocks.items():
            r, c = row_layout.live(I), col_layout.live(J)
            A[r, c] = v[:r.stop - r.start, :c.stop - c.start]
    return A
