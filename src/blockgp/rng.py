"""Reproducible per-rank random streams.

Each rank gets a counter-based Philox stream keyed by (master seed, rank), so
stream creation is O(1), ranks are independent by construction, and the same
(seed, P) yields bit-identical draws on every run and backend.  Normal
deviates come from the inverse normal CDF applied to the uniform stream,
which is bit-stable across platforms.
"""

import numpy as np
from scipy.special import ndtri

_TINY = 2.0 ** -54  # replaces an exact 0.0 uniform so ndtri stays finite


class RankStream:
    """Sequential N(0,1) stream for one rank."""

    def __init__(self, master_seed, rank):
        self._key = (int(master_seed) << 64) + int(rank)
        self._gen = None

    def standard_normals(self, count):
        if self._gen is None:
            # built at the first draw: every worker gets a stream at spawn,
            # and most clusters (fits) never draw
            self._gen = np.random.Generator(np.random.Philox(key=self._key))
        u = self._gen.random(int(count))
        u[u == 0.0] = _TINY
        return ndtri(u)
