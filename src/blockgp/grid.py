"""Triangular process grid and block-cyclic layout arithmetic.

Everything here is pure index bookkeeping: which worker owns which block of a
triangular / rectangular / vector object.  This is the only place that
ownership is computed.  All external indices are 1-based.
"""

from dataclasses import dataclass
from math import ceil, isqrt

from .errors import DimensionMismatch, NotTriangularNumber, OutOfTriangle

DEFAULT_BLOCK_TARGET = 1000


def triangular_order(P):
    """Return D with P = D(D+1)/2, or raise NotTriangularNumber."""
    if P < 1:
        raise NotTriangularNumber(f"P must be >= 1, got {P}")
    D = (isqrt(8 * P + 1) - 1) // 2
    if D * (D + 1) // 2 != P:
        raise NotTriangularNumber(f"{P} is not a triangular number")
    return D


@dataclass(frozen=True)
class ProcessGrid:
    """D x D lower-triangular grid of P = D(D+1)/2 workers.

    Ranks 1..P run column-major down the lower triangle, so for D=4 the
    diagonal coordinates (1,1),(2,2),(3,3),(4,4) carry ranks 1, 5, 8, 10.
    """

    D: int

    def __post_init__(self):
        if self.D < 1:
            raise NotTriangularNumber(f"grid order must be >= 1, got {self.D}")

    @property
    def P(self):
        return self.D * (self.D + 1) // 2

    def coord_to_rank(self, y, z):
        D = self.D
        if not (1 <= z <= y <= D):
            raise OutOfTriangle(f"({y},{z}) not in lower triangle of order {D}")
        # blocks in columns 1..z-1, then position within column z
        before = (z - 1) * D - (z - 1) * (z - 2) // 2
        return before + (y - z + 1)

    def rank_to_coord(self, rank):
        if not (1 <= rank <= self.P):
            raise OutOfTriangle(f"rank {rank} outside 1..{self.P}")
        z = 1
        r = rank
        while r > self.D - z + 1:
            r -= self.D - z + 1
            z += 1
        return (z + r - 1, z)

    def coords(self):
        """All coordinates in rank order."""
        return [self.rank_to_coord(r) for r in range(1, self.P + 1)]


def grid_from_process_count(P):
    """Build the ProcessGrid for a triangular worker count."""
    return ProcessGrid(triangular_order(P))


@dataclass(frozen=True)
class BlockLayout:
    """One-dimensional blocking of an index range 1..n into B = h*D blocks."""

    n: int
    h: int
    D: int

    def __post_init__(self):
        if self.n < 1 or self.h < 1 or self.D < 1:
            raise DimensionMismatch(
                f"invalid layout n={self.n} h={self.h} D={self.D}")

    @property
    def B(self):
        return self.h * self.D

    @property
    def block_size(self):
        return ceil(self.n / self.B)

    @property
    def padded_n(self):
        return self.B * self.block_size

    def live(self, J):
        """0-based global slice of block J's unpadded entries; only trailing
        blocks are short, and a block past n is empty."""
        bs = self.block_size
        return slice(min((J - 1) * bs, self.n), min(J * bs, self.n))


def default_h(n, D):
    """Smallest h whose block size ceil(n/(hD)) is at most
    DEFAULT_BLOCK_TARGET."""
    h = 1
    while ceil(n / (h * D)) > DEFAULT_BLOCK_TARGET:
        h += 1
    return h


def residue(I, D):
    """The grid row or column, 1..D, that block index I folds onto."""
    return (I - 1) % D + 1


def block_owner(I, J, grid):
    """Owner coordinate of lower-triangular block (I, J) under residue folding."""
    if J > I:
        raise OutOfTriangle(f"block ({I},{J}) above the diagonal")
    return rect_block_owner(I, J, grid)


def rect_block_owner(I, J, grid):
    """Owner coordinate of rectangular block (I, J); folds above-diagonal residues."""
    a = residue(I, grid.D)
    b = residue(J, grid.D)
    return (a, b) if a >= b else (b, a)


def vector_block_owner(J, grid):
    """Vector blocks live block-cyclically on the diagonal workers."""
    c = residue(J, grid.D)
    return (c, c)


def triangular_blocks(coord, layout, grid):
    """Blocks of a lower-triangular object owned by `coord`, sorted by (J, I)."""
    out = [(I, J)
           for J in range(1, layout.B + 1)
           for I in range(J, layout.B + 1)
           if block_owner(I, J, grid) == coord]
    return out


def rect_blocks(coord, row_layout, col_layout, grid):
    """Blocks of a rectangular object owned by `coord`, sorted by (J, I)."""
    return [(I, J)
            for J in range(1, col_layout.B + 1)
            for I in range(1, row_layout.B + 1)
            if rect_block_owner(I, J, grid) == coord]


def vector_blocks(coord, layout, grid):
    """Vector blocks owned by `coord`, ascending."""
    return [J for J in range(1, layout.B + 1)
            if vector_block_owner(J, grid) == coord]
