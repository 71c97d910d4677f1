"""Layout arithmetic: grid bijections, block ownership, padding."""

import ast
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockgp
from blockgp.errors import NotTriangularNumber, OutOfTriangle
from blockgp.grid import (BlockLayout, ProcessGrid, block_owner, default_h,
                          grid_from_process_count, rect_block_owner,
                          rect_blocks, triangular_blocks, vector_block_owner,
                          vector_blocks)


class TestProcessGrid:
    def test_degenerate_single_worker(self):
        assert grid_from_process_count(1).D == 1

    def test_ten_workers_is_order_four(self):
        assert grid_from_process_count(10).D == 4

    @pytest.mark.parametrize("P", [2, 4, 7, 8, 11])
    def test_non_triangular_count_rejected(self, P):
        with pytest.raises(NotTriangularNumber):
            grid_from_process_count(P)

    def test_diagonal_ranks_for_order_four(self):
        grid = ProcessGrid(4)
        assert [grid.coord_to_rank(c, c) for c in range(1, 5)] == [1, 5, 8, 10]

    def test_rank_coord_round_trip_all_small_orders(self):
        for D in range(1, 21):
            grid = ProcessGrid(D)
            for rank in range(1, grid.P + 1):
                assert grid.coord_to_rank(*grid.rank_to_coord(rank)) == rank
            seen = {grid.rank_to_coord(r) for r in range(1, grid.P + 1)}
            assert seen == {(y, z) for y in range(1, D + 1)
                            for z in range(1, y + 1)}

    @given(st.integers(1, 40), st.data())
    def test_coord_rank_inverse_property(self, D, data):
        grid = ProcessGrid(D)
        y = data.draw(st.integers(1, D))
        z = data.draw(st.integers(1, y))
        assert grid.rank_to_coord(grid.coord_to_rank(y, z)) == (y, z)

    def test_coord_outside_triangle_rejected(self):
        with pytest.raises(OutOfTriangle):
            ProcessGrid(3).coord_to_rank(1, 2)


class TestBlockOwnership:
    def test_fig_layout_single_block_per_process(self):
        # h=1, D=4: block (I, J) is owned by coordinate (I, J) itself
        grid = ProcessGrid(4)
        assert block_owner(3, 2, grid) == (3, 2)
        assert grid.coord_to_rank(3, 2) == 6

    def test_above_diagonal_block_rejected(self):
        with pytest.raises(OutOfTriangle):
            block_owner(2, 3, ProcessGrid(4))

    def test_order_two_h_two_ownership_counts(self):
        grid = ProcessGrid(2)
        assert block_owner(1, 1, grid) == (1, 1)
        counts = Counter(block_owner(I, J, grid)
                         for J in range(1, 5) for I in range(J, 5))
        assert counts == {(1, 1): 3, (2, 1): 4, (2, 2): 3}

    @pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_partition_and_block_count_formula(self, D, h):
        grid = ProcessGrid(D)
        layout = BlockLayout(n=h * D * 3, h=h, D=D)
        all_blocks = [b for c in grid.coords()
                      for b in triangular_blocks(c, layout, grid)]
        want = [(I, J) for J in range(1, layout.B + 1)
                for I in range(J, layout.B + 1)]
        assert sorted(all_blocks) == sorted(want)  # full cover, no overlap
        for coord in grid.coords():
            n_blocks = len(triangular_blocks(coord, layout, grid))
            if coord[0] == coord[1]:
                assert n_blocks == h * (h + 1) // 2
            else:
                assert n_blocks == h * h

    def test_rect_owner_folds_above_diagonal(self):
        grid = ProcessGrid(4)
        assert rect_block_owner(1, 2, grid) == (2, 1)
        assert rect_block_owner(2, 2, grid) == (2, 2)

    def test_rect_counts_order_two(self):
        grid = ProcessGrid(2)
        counts = Counter(rect_block_owner(I, J, grid)
                         for I in range(1, 5) for J in range(1, 5))
        assert counts == {(1, 1): 4, (2, 1): 8, (2, 2): 4}

    def test_vector_blocks_live_on_diagonal(self):
        grid = ProcessGrid(4)
        assert vector_block_owner(1, grid) == (1, 1)
        layout = BlockLayout(n=12, h=3, D=4)
        for c in range(1, 5):
            assert len(vector_blocks((c, c), layout, grid)) == 3
        assert vector_blocks((2, 1), layout, grid) == []

    def test_single_worker_owns_every_vector_block(self):
        grid = ProcessGrid(1)
        assert all(vector_block_owner(J, grid) == (1, 1) for J in range(1, 9))

    def test_rect_blocks_cover_grid(self):
        grid = ProcessGrid(3)
        rows = BlockLayout(n=10, h=2, D=3)
        cols = BlockLayout(n=4, h=1, D=3)
        all_blocks = [b for c in grid.coords()
                      for b in rect_blocks(c, rows, cols, grid)]
        assert sorted(all_blocks) == sorted((I, J) for J in range(1, 4)
                                            for I in range(1, 7))


class TestPadding:
    @given(st.integers(1, 5000), st.integers(1, 4), st.integers(1, 5))
    def test_padding_bounds(self, n, h, D):
        layout = BlockLayout(n=n, h=h, D=D)
        assert layout.padded_n >= n
        assert layout.padded_n - n < layout.B  # at most B-1 padded rows
        assert layout.padded_n == layout.B * layout.block_size
        if n >= layout.B ** 2:  # the regime the block-size bound targets
            assert layout.padded_n - n < layout.block_size

    @given(st.integers(400, 200000), st.integers(1, 6))
    @settings(max_examples=60)
    def test_default_h_keeps_relative_padding_small(self, n, D):
        h = default_h(n, D)
        if n < (h * D) ** 2:
            return
        layout = BlockLayout(n=n, h=h, D=D)
        assert layout.block_size <= 1000
        assert layout.padded_n / n <= 1 + 1 / layout.B

    def test_default_h_is_smallest(self):
        assert default_h(1000, 1) == 1
        assert default_h(1001, 1) == 2
        assert default_h(6000, 2) == 3

    def test_block_range(self):
        layout = BlockLayout(n=5, h=1, D=2)  # block size 3
        assert layout.live(1) == slice(0, 3)
        assert layout.live(2) == slice(3, 5)

    @given(st.integers(1, 5000), st.integers(1, 4), st.integers(1, 5))
    def test_live_extents_tile_the_index_range(self, n, h, D):
        layout = BlockLayout(n=n, h=h, D=D)
        spans = [layout.live(J) for J in range(1, layout.B + 1)]
        sizes = [s.stop - s.start for s in spans]
        assert sum(sizes) == n
        assert max(sizes) <= layout.block_size
        assert spans[0].start == 0
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        short = [J for J, k in enumerate(sizes) if k < layout.block_size]
        assert short == list(range(len(sizes) - len(short), len(sizes)))


def _is_grid_order(node):
    return ((isinstance(node, ast.Name) and node.id == "D")
            or (isinstance(node, ast.Attribute) and node.attr == "D"))


def test_ownership_arithmetic_only_in_grid():
    """No module but grid.py takes a residue by the grid order (`D` or
    `grid.D`): block ownership has one source."""
    root = pathlib.Path(blockgp.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.BinOp):
                divisor = node.right
            elif isinstance(node, ast.AugAssign):
                divisor = node.value
            else:
                continue
            if isinstance(node.op, ast.Mod) and _is_grid_order(divisor):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []
