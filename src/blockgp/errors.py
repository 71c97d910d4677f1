"""Exception types shared across the package."""


class BlockGPError(Exception):
    """Base class for all package errors."""


class NotTriangularNumber(BlockGPError):
    """Worker count P has no integer D with P = D(D+1)/2."""


class OutOfTriangle(BlockGPError):
    """Block coordinate lies strictly above the diagonal of a triangular object."""


class BackendUnavailable(BlockGPError):
    """Requested transport backend cannot be started."""


class ClusterDown(BlockGPError):
    """Operation issued against a cluster that has been shut down."""


class NoSuchObject(BlockGPError):
    """Named object absent from a worker's store."""

    def __init__(self, name, rank=None):
        self.name = name
        self.rank = rank
        where = f" on rank {rank}" if rank is not None else ""
        super().__init__(f"no object named {name!r}{where}")

    def __reduce__(self):
        return (NoSuchObject, (self.name, self.rank))


class UnknownFunction(BlockGPError):
    """Function id not present in the registry."""


class WorkerFailure(BlockGPError):
    """A worker raised during a collective; carries rank attribution."""

    def __init__(self, rank, cause):
        self.rank = rank
        self.cause = cause
        super().__init__(f"rank {rank} failed: {cause!r}")

    def __reduce__(self):
        return (WorkerFailure, (self.rank, self.cause))


class DimensionMismatch(BlockGPError):
    """Operand shapes or layouts do not conform."""


class NotPositiveDefinite(BlockGPError):
    """Cholesky hit a non-positive pivot; no pivoting is attempted."""

    def __init__(self, block_index, detail=""):
        self.block_index = block_index
        self.detail = detail
        msg = f"matrix not positive definite at diagonal block {block_index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):
        return (NotPositiveDefinite, (self.block_index, self.detail))


class SingularDiagonal(BlockGPError):
    """Zero diagonal entry encountered in a triangular solve or log-det."""


class GeneratorError(BlockGPError):
    """A generator raised, or returned a block of the wrong shape, during
    construction."""

    def __init__(self, rank, cause):
        self.rank = rank
        self.cause = cause
        super().__init__(f"generator failed on rank {rank}: {cause!r}")

    def __reduce__(self):
        return (GeneratorError, (self.rank, self.cause))


class UnsupportedSmoothness(BlockGPError):
    """Matern smoothness outside the supported half-integer set."""


class NonFiniteObjective(BlockGPError):
    """Log density non-finite at the optimizer's starting point."""


class ConfigError(BlockGPError):
    """Invalid or unreadable job configuration."""


class _CollectiveAborted(BlockGPError):
    """Internal: another worker aborted the current collective."""
