"""Per-rank random streams: determinism, marginals, independence."""

import numpy as np

from blockgp import distla, registry
from blockgp.rng import RankStream


class TestRankStream:
    def test_determinism_across_runs(self):
        for rank in (1, 2, 7):
            a = RankStream(42, rank).standard_normals(1000)
            b = RankStream(42, rank).standard_normals(1000)
            np.testing.assert_array_equal(a, b)

    def test_different_ranks_differ(self):
        a = RankStream(42, 1).standard_normals(100)
        b = RankStream(42, 2).standard_normals(100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RankStream(0, 1).standard_normals(100)
        b = RankStream(1, 1).standard_normals(100)
        assert not np.array_equal(a, b)

    def test_marginal_moments(self):
        # CLT bounds at roughly 4 sigma for 1e5 draws
        x = RankStream(42, 1).standard_normals(100_000)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.03

    def test_cross_rank_independence(self):
        a = RankStream(42, 1).standard_normals(100_000)
        b = RankStream(42, 2).standard_normals(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_draws_are_finite(self):
        x = RankStream(123, 3).standard_normals(50_000)
        assert np.all(np.isfinite(x))


@registry.register("test.rng.normals")
def _worker_normals(ctx, count):
    return ctx.normals(count)


class TestWorkerStream:
    def test_each_rank_draws_its_own_stream(self, cluster_factory):
        cl = cluster_factory(3, seed=7)
        got = cl.run("test.rng.normals", count=64)
        for rank, draws in enumerate(got, 1):
            np.testing.assert_array_equal(
                draws, RankStream(7, rank).standard_normals(64))

    def test_worker_stream_advances(self, cluster_factory):
        cl = cluster_factory(3, seed=7)
        first = cl.run("test.rng.normals", count=10)
        second = cl.run("test.rng.normals", count=10)
        for rank in range(1, 4):
            np.testing.assert_array_equal(
                np.concatenate([first[rank - 1], second[rank - 1]]),
                RankStream(7, rank).standard_normals(20))


class TestDistributedNormals:
    def test_collected_vector_moments(self, cluster_factory):
        cl = cluster_factory(3, seed=11)
        layout = distla.make_layout(100_000, cl.grid, h=1)
        z = distla.construct_rnorm_distributed(cl, "z", "vector", layout)
        x = distla.collect(cl, z)
        assert x.shape == (100_000,)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.03

    def test_bit_identical_across_runs(self, cluster_factory):
        got = []
        for _ in range(2):
            cl = cluster_factory(6, seed=5)
            rows = distla.make_layout(37, cl.grid, h=2)
            cols = distla.make_layout(9, cl.grid, h=1)
            z = distla.construct_rnorm_distributed(cl, "z", "rectangular",
                                                   rows, cols)
            got.append(distla.collect(cl, z))
        np.testing.assert_array_equal(got[0], got[1])

    def test_h_changes_realized_draws(self, cluster_factory):
        # documented: draws are a function of (seed, P, h), not of n alone
        cl = cluster_factory(3, seed=5)
        a = distla.collect(cl, distla.construct_rnorm_distributed(
            cl, "a", "vector", distla.make_layout(50, cl.grid, h=1)))
        b = distla.collect(cl, distla.construct_rnorm_distributed(
            cl, "b", "vector", distla.make_layout(50, cl.grid, h=2)))
        assert a.shape == b.shape == (50,)
        assert not np.array_equal(a, b)

    def test_rectangular_draw_defaults_to_square(self, cluster_factory):
        # without a column layout the workers draw on the row layout, and
        # the handle says so
        cl = cluster_factory(3, seed=5)
        layout = distla.make_layout(7, cl.grid, h=1)
        z = distla.construct_rnorm_distributed(cl, "z", "rectangular", layout)
        assert z.col_layout == layout
        assert distla.collect(cl, z).shape == (7, 7)

    def test_triangular_draw_is_lower_triangular(self, cluster_factory):
        cl = cluster_factory(3, seed=5)
        layout = distla.make_layout(7, cl.grid, h=1)  # 2 blocks of 4, padded
        z = distla.construct_rnorm_distributed(cl, "z", "triangular", layout)
        got = distla.collect(cl, z)
        assert np.count_nonzero(np.triu(got, 1)) == 0
        assert np.count_nonzero(got) == 7 * 8 // 2
        last = cl.pull("z", cl.grid.coord_to_rank(2, 2)).blocks[(2, 2)]
        np.testing.assert_array_equal(last[3], [0.0, 0.0, 0.0, 1.0])

    def test_draws_fill_blocks_in_column_major_order(self, cluster_factory):
        # rows: 2 blocks of 3 with one padded row; the padded draw is dropped
        cl = cluster_factory(1, seed=5)
        rows, cols = (distla.make_layout(5, cl.grid, h=2),
                      distla.make_layout(3, cl.grid, h=1))
        got = distla.collect(cl, distla.construct_rnorm_distributed(
            cl, "z", "rectangular", rows, cols))
        draws = RankStream(5, 1).standard_normals(18)
        blocks = [draws[k:k + 9].reshape((3, 3), order="F") for k in (0, 9)]
        np.testing.assert_array_equal(got, np.vstack(blocks)[:5])
