"""blockgp: Gaussian process kriging on a triangular block-cyclic process grid.

The package distributes covariance matrices over P = D(D+1)/2 workers in a
folded block-cyclic layout, runs Cholesky / solve / crossproduct kernels on
the distributed blocks, and builds likelihood evaluation, maximum-likelihood
fitting, prediction, and simulation on top, so only small results ever reach
the master.
"""

from . import distla, gp  # noqa: F401  (register worker kernels and builtins)
from .errors import *  # noqa: F401,F403
from .grid import (BlockLayout, ProcessGrid, block_owner, default_h,
                   grid_from_process_count, rect_block_owner,
                   vector_block_owner)
from .transport import spawn

__version__ = "0.1.0"
