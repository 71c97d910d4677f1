"""Covariance kernels and the built-in block generators.

A generator is called once per block as `gen(params, inputs, i, j)`, where
`i` and `j` are the 1-based global row and column indices of the block's
live part, and returns the len(i) x len(j) block; a vector is built as the
diagonal of a square generator's diagonal blocks.  Means are not generators:
they are master-side callables of a CovarianceSpec.

Matern smoothness is restricted to the half-integer values 1/2, 3/2, 5/2,
which have closed forms; distances are scaled by sqrt(2*nu)/rho so that
nu = 1/2 reduces to exp(-d/rho).
"""

import numpy as np
from scipy.spatial.distance import cdist

from .. import registry
from ..errors import DimensionMismatch, UnsupportedSmoothness

HALF_INTEGER_NU = (0.5, 1.5, 2.5)
DEFAULT_NU = 0.5


def _matern_in_place(s, rho, nu):
    """Turn the distances in the float array `s` into half-integer Matern
    correlations in place, in the elementwise order of the closed forms
    exp(-s), (1 + s) exp(-s) and (1 + s + s*s/3) exp(-s) of the scaled
    distance; returns s."""
    if rho <= 0:
        raise ValueError(f"range must be positive, got {rho}")
    if nu not in HALF_INTEGER_NU:
        raise UnsupportedSmoothness(
            f"nu={nu} not supported; use one of {HALF_INTEGER_NU}")
    if nu == 0.5:  # sqrt(2 nu) = 1, and s / -rho is -(s / rho) exactly
        np.divide(s, -rho, out=s)
        return np.exp(s, out=s)
    np.multiply(s, np.sqrt(2.0 * nu), out=s)
    np.divide(s, rho, out=s)
    e = np.negative(s, out=np.empty_like(s))
    np.exp(e, out=e)
    if nu == 2.5:
        q = np.multiply(s, s, out=np.empty_like(s))
        np.divide(q, 3.0, out=q)
        np.add(s, 1.0, out=s)
        np.add(s, q, out=s)
    else:
        np.add(s, 1.0, out=s)
    return np.multiply(s, e, out=s)


def _sqexp_in_place(s, rho):
    """exp(-0.5 (s / rho)^2) of the distances in `s`, in place; returns s."""
    np.divide(s, rho, out=s)
    np.square(s, out=s)
    np.multiply(s, -0.5, out=s)
    return np.exp(s, out=s)


def matern_correlation(d, rho, nu):
    """Half-integer Matern correlation of a distance (array); in (0, 1].
    Works on a copy of d: a scalar distance gives a numpy scalar."""
    return _matern_in_place(np.array(d, dtype=float), rho, nu)[()]


def sqexp_correlation(d, rho):
    return _sqexp_in_place(np.array(d, dtype=float), rho)[()]


def _points(inputs, key, idx):
    """Rows idx (1-based) of a point set, as a 2-D array."""
    pts = np.asarray(inputs[key], dtype=float)
    return (pts[:, None] if pts.ndim == 1 else pts)[idx - 1]


# Correlations of two point sets X (rows) and Y (columns), each computed
# in the array cdist returns.

def _sqexp_corr(params, inputs, X, Y):
    return _sqexp_in_place(cdist(X, Y), params[1])


def _matern_corr(params, inputs, X, Y):
    return _matern_in_place(cdist(X, Y), params[1],
                            inputs.get("nu", DEFAULT_NU))


def _product_corr(params, inputs, X, Y):
    """One Matern per coordinate axis of 2-D points."""
    k = _matern_in_place(cdist(X[:, :1], Y[:, :1], "cityblock"), params[1],
                         inputs.get("nu1", DEFAULT_NU))
    return np.multiply(k, _matern_in_place(
        cdist(X[:, 1:2], Y[:, 1:2], "cityblock"), params[2],
        inputs.get("nu2", DEFAULT_NU)), out=k)


def _no_corr(params, inputs, X, Y):
    return np.zeros((len(X), len(Y)))


# kernel id -> (theta length, correlation, generators that add theta[-1]
# where the row and column index agree, the smoothness inputs the correlation
# reads, the coordinate columns it needs or None for any).  theta[0] is always
# the marginal variance.
_KERNELS = {
    "sqexp": (2, _sqexp_corr, (), (), None),         # sigma2, rho
    "matern": (2, _matern_corr, (), ("nu",), None),  # sigma2, rho
    "matern-nugget": (3, _matern_corr, ("cov",), ("nu",), None),  # + tau2
    "matern-product-nugget": (  # sigma2, rho1, rho2, tau2
        4, _product_corr, ("cov",), ("nu1", "nu2"), 2),
    "white": (1, _no_corr, ("cov", "pred"), (), None),  # sigma2: pure noise
}

# generator kind -> (row point set, column point set)
_POINT_SETS = {"cov": ("coords", "coords"),
               "cross": ("coords", "pred_coords"),
               "pred": ("pred_coords", "pred_coords")}


def _block_generator(corr, rows, cols, add_delta):
    """The generator of one kernel and point-set pair: theta[0] times the
    correlation block, plus theta[-1] where the row and column index agree
    if `add_delta`, finished in the correlation's own array."""
    def gen(params, inputs, i, j):
        k = corr(params, inputs, _points(inputs, rows, i),
                 _points(inputs, cols, j))
        np.multiply(k, params[0], out=k)
        if add_delta:
            _, r, c = np.intersect1d(i, j, assume_unique=True,
                                     return_indices=True)
            k[r, c] += params[-1]
        return k
    return gen


def _register_builtins():
    for kernel, (_, corr, delta_kinds, _, _) in _KERNELS.items():
        for kind, (rows, cols) in _POINT_SETS.items():
            registry.register(f"gen.{kernel}.{kind}", _block_generator(
                corr, rows, cols, kind in delta_kinds))


_register_builtins()

BUILTIN_KERNELS = {kernel: spec[0] for kernel, spec in _KERNELS.items()}


def _columns(points):
    return points.shape[1] if points.ndim > 1 else 1


def check_builtin_inputs(kernel, coords, pred_coords, inputs):
    """Reject, on the master, inputs a built-in kernel's generators would
    fail on or silently misread.  Reads shapes and scalars only, never the
    point sets' values."""
    if kernel not in _KERNELS:
        raise DimensionMismatch(
            f"unknown kernel {kernel!r}; built-ins: {sorted(_KERNELS)}")
    _, _, _, smoothness, columns = _KERNELS[kernel]
    for key in smoothness:
        if inputs.get(key, DEFAULT_NU) not in HALF_INTEGER_NU:
            raise UnsupportedSmoothness(
                f"{key}={inputs[key]} not supported; use one of "
                f"{HALF_INTEGER_NU}")
    dim = _columns(coords)
    if columns is not None and dim != columns:
        raise DimensionMismatch(f"kernel {kernel!r} needs {columns}-column "
                                f"coordinates, got {dim}")
    if pred_coords is not None and _columns(pred_coords) != dim:
        raise DimensionMismatch(
            f"prediction points have {_columns(pred_coords)} coordinate "
            f"columns, the data {dim}")
