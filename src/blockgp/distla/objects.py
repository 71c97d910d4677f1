"""Block-distributed object model.

A distributed object is a name plus layout metadata on the master, and a
LocalPiece (the owned blocks) in each worker's store.  Blocks are dense
float64 arrays; diagonal blocks of triangular objects keep their strict upper
triangle at zero.  Padded trailing entries hold the identity pattern for
triangular objects and zeros for rectangular/vector objects, so padding never
contaminates factorizations, solves, or products.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..grid import (BlockLayout, rect_blocks, triangular_blocks,
                    vector_blocks)


@dataclass
class LocalPiece:
    """One worker's share of a distributed object."""

    kind: str  # "triangular" | "rectangular" | "vector"
    row_layout: BlockLayout
    col_layout: Optional[BlockLayout]
    blocks: dict  # (I, J) -> 2-D array, or J -> 1-D array for vectors


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


def owned_blocks(kind, coord, grid, row_layout, col_layout=None):
    if kind == "triangular":
        return triangular_blocks(coord, row_layout, grid)
    if kind == "rectangular":
        return rect_blocks(coord, row_layout, col_layout, grid)
    return vector_blocks(coord, row_layout, grid)


def pad_block(kind, block, I, J, row_layout, col_layout=None):
    """Overwrite the padded tail of a block with its neutral pattern, in place."""
    col_layout = col_layout or row_layout
    bs_r = row_layout.block_size
    bs_c = col_layout.block_size
    r0 = (I - 1) * bs_r  # 0-based global offset of the block
    if kind == "vector":
        k = row_layout.n - r0
        if k < bs_r:
            block[max(k, 0):] = 0.0
        return block
    c0 = (J - 1) * bs_c
    kr = max(min(row_layout.n - r0, bs_r), 0)
    kc = max(min(col_layout.n - c0, bs_c), 0)
    if kr < bs_r or kc < bs_c:
        block[kr:, :] = 0.0
        block[:, kc:] = 0.0
        if kind == "triangular" and I == J:
            for t in range(kr, bs_r):
                block[t, t] = 1.0
    return block


def split_array(kind, array, grid, row_layout, col_layout=None):
    """Owned blocks of a master-side dense array for every coordinate of the
    grid, {coord: blocks}; the array is padded once."""
    bs_r = row_layout.block_size
    if kind == "vector":
        A = np.zeros(row_layout.padded_n)
        A[:row_layout.n] = array

        def cut(J):
            return A[(J - 1) * bs_r:J * bs_r].copy()
    else:
        cl = col_layout or row_layout
        bs_c = cl.block_size
        A = np.zeros((row_layout.padded_n, cl.padded_n))
        if kind == "triangular":
            A[:row_layout.n, :row_layout.n] = np.tril(array)
            for t in range(row_layout.n, row_layout.padded_n):
                A[t, t] = 1.0
        else:
            A[:row_layout.n, :cl.n] = array

        def cut(key):
            I, J = key
            return A[(I - 1) * bs_r:I * bs_r, (J - 1) * bs_c:J * bs_c].copy()
    return {coord: {key: cut(key) for key in owned_blocks(
                kind, coord, grid, row_layout, col_layout)}
            for coord in grid.coords()}


def assemble(kind, pieces, row_layout, col_layout=None):
    """Master-side reassembly of collected blocks; strips padding."""
    if kind == "vector":
        bs = row_layout.block_size
        x = np.zeros(row_layout.padded_n)
        for blocks in pieces:
            for J, v in blocks.items():
                x[(J - 1) * bs:J * bs] = v
        return x[:row_layout.n]
    cl = col_layout or row_layout
    bs_r, bs_c = row_layout.block_size, cl.block_size
    A = np.zeros((row_layout.padded_n, cl.padded_n))
    for blocks in pieces:
        for (I, J), v in blocks.items():
            A[(I - 1) * bs_r:I * bs_r, (J - 1) * bs_c:J * bs_c] = v
    return A[:row_layout.n, :cl.n]
