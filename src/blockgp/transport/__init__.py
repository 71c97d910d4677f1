"""Worker runtime: cluster spawning, messaging, and remote object stores."""

import numpy as np

from ..errors import BackendUnavailable, ConfigError
from ..grid import grid_from_process_count
from .base import Cluster, WorkerContext

BACKENDS = ("in-process", "multi-process-socket")


def is_integer(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def spawn(P, backend="in-process", seed=0, blas_threads=None):
    """Start P workers plus the master and return the Cluster handle.

    P must be a triangular number D(D+1)/2 and `seed` an integer in
    [0, 2**64), the master half of every rank's Philox key.  The in-process
    backend runs each worker on its own thread and hands each sent block to
    its receiver as a read-only view (any other payload as a C-ordered
    float64 copy); the socket backend (POSIX only) spawns one subprocess
    per worker, connected to the master by its own socket pair, each with
    `blas_threads` BLAS threads when it is not None.  `blas_threads` must
    be None or an integer >= 1 on every backend; the in-process backend
    does not use it.  The two backends give bit-identical results only when
    the socket workers run as many BLAS threads as the master process,
    whose BLAS the in-process workers share.
    """
    if not (is_integer(seed) and 0 <= int(seed) < 2 ** 64):
        raise ConfigError(f"seed must be an integer in [0, 2**64), "
                          f"got {seed!r}")
    if not (blas_threads is None
            or (is_integer(blas_threads) and blas_threads >= 1)):
        raise ConfigError(f"blas_threads must be None or an integer >= 1, "
                          f"got {blas_threads!r}")
    seed = int(seed)
    grid = grid_from_process_count(P)
    if backend == "in-process":
        from .inprocess import InProcessCluster
        return InProcessCluster(grid, seed)
    if backend == "multi-process-socket":
        from .socketbackend import SocketCluster
        return SocketCluster(grid, seed, blas_threads=blas_threads)
    raise BackendUnavailable(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")


__all__ = ["spawn", "Cluster", "WorkerContext", "BACKENDS"]
