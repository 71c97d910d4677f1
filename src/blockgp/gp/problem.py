"""The kriging engine: likelihood, MLE, prediction, and simulation.

A KrigeProblem keeps the observations, the O(n) and O(m) prior means and
collected small results on the master; covariance matrices, Cholesky
factors, and solved systems stay distributed under a per-problem name
prefix.  One state slot records the single theta the distributed objects
were built for, so repeated calls at that theta issue no distributed work
beyond fresh random draws.
"""

import logging
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from .. import distla
from ..errors import (BlockGPError, DimensionMismatch, NonFiniteObjective,
                      NotPositiveDefinite)
from ..transport import is_integer
from .kernels import BUILTIN_KERNELS, check_builtin_inputs

log = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))

XATOL, FATOL = 1e-6, 1e-9  # Nelder-Mead stopping rules on log theta


@dataclass
class CovarianceSpec:
    """Declarative mean/covariance description for one problem.

    The three covariance generators are registry ids sharing one theta
    layout, called block by block on the workers; `inputs` is pushed to the
    workers once and handed to every generator call.  Standard errors
    evaluate `pred_cov_fn` on the diagonal blocks of the prediction layout
    only, and keep its diagonal as the prior variances.  The means run on
    the master only: `mean_fn(theta, inputs)` returns the n values at the
    observations and `pred_mean_fn(theta, inputs)` the m values at the
    prediction points; None is a zero mean.
    """

    cov_fn: str
    cross_cov_fn: str
    pred_cov_fn: str
    mean_fn: Optional[Callable] = None
    pred_mean_fn: Optional[Callable] = None
    inputs: dict = field(default_factory=dict)
    n_params: int = 1


def builtin_spec(kernel, coords, pred_coords=None, **kernel_inputs):
    """CovarianceSpec for a built-in kernel id (see BUILTIN_KERNELS); inputs
    the kernel cannot use raise here (`check_builtin_inputs`)."""
    inputs = {"coords": np.asarray(coords, dtype=float)}
    if pred_coords is not None:
        inputs["pred_coords"] = np.asarray(pred_coords, dtype=float)
    check_builtin_inputs(kernel, inputs["coords"], inputs.get("pred_coords"),
                         kernel_inputs)
    inputs.update(kernel_inputs)
    return CovarianceSpec(
        cov_fn=f"gen.{kernel}.cov",
        cross_cov_fn=f"gen.{kernel}.cross",
        pred_cov_fn=f"gen.{kernel}.pred",
        inputs=inputs,
        n_params=BUILTIN_KERNELS[kernel])


@dataclass
class OptResult:
    theta: np.ndarray
    log_density: float
    trace: list            # list of (theta, log density) in evaluation order
    converged: bool
    n_evals: int


class KrigeProblem:
    """Master-side metadata and drivers for one GP regression problem.

    `y` and the prior means stay on the master.  The workers hold the
    derived objects of one theta under fixed names, and `_state` is the one
    slot saying which theta that is and how far it has been built, with
    what was computed on the master:
      - "ll": L and u = L^{-1}(y - mu) exist (any successful call), and
        "mu" is the prior mean at the observations;
      - "pred_mean": V exists too (predict, prediction_variance, simulate);
      - "se2": the prediction variances, kept on the master;
      - "Sigma": the lower triangle of the posterior covariance, collected
        to the master;
      - "LSigma": the posterior factor LSigma exists too.
    Besides these only `inputs` stays on the workers.  Each factor is built
    under the name it ends as (L, V, LSigma) and factored or solved in
    place, every other result is released as it is collected, and a new
    theta, like a failed call, first removes every object but `inputs`.
    """

    # every name a problem makes on the workers, as suffixes of its own name
    _NAMES = ("inputs", "L", "u", "V", "w", "pv", "vtv_diag", "Sigma",
              "LSigma", "Z")

    def __init__(self, cluster, name, spec, y, theta0, m=0,
                 h_n=None, h_m=None, h_r=None):
        self.cluster = cluster
        self.name = name
        self.spec = spec
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1:
            raise DimensionMismatch(f"y must be 1-D, got shape {self.y.shape}")
        for fn in (spec.mean_fn, spec.pred_mean_fn):
            if fn is not None and not callable(fn):
                raise TypeError(f"a mean must be a callable fn(theta, inputs) "
                                f"or None, got {fn!r}")
        self.n = len(self.y)
        self.m = int(m)
        for key, size, what in (("coords", self.n, "len(y)"),
                                ("pred_coords", self.m, "m")):
            points = spec.inputs.get(key)
            if points is not None and np.shape(points)[:1] != (size,):
                raise DimensionMismatch(f"{what} is {size} but inputs[{key!r}]"
                                        f" has shape {np.shape(points)}")
        self.theta = self._check_theta(theta0)
        self.h_r = h_r
        grid = cluster.grid
        self.row_layout = distla.make_layout(self.n, grid, h_n)
        self.col_layout = (distla.make_layout(self.m, grid, h_m)
                           if self.m > 0 else None)
        cluster.push(self._nm("inputs"), spec.inputs)
        rows, cols = self.row_layout, self.col_layout
        self._L = distla.DistTriangular(self._nm("L"), rows)
        self._u = distla.DistVector(self._nm("u"), rows)
        self._V = distla.DistRectangular(self._nm("V"), rows, cols)
        self._state = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- plumbing --------------------------------------------------------
    def _nm(self, suffix):
        return f"{self.name}.{suffix}"

    def _check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.spec.n_params,):
            raise DimensionMismatch(
                f"theta has {theta.shape} entries; kernel expects "
                f"{self.spec.n_params}")
        if np.any(theta <= 0) or not np.all(np.isfinite(theta)):
            raise DimensionMismatch("theta entries must be finite and positive")
        return theta

    def _check_grid(self):
        if self.m <= 0:
            raise DimensionMismatch("problem has no prediction points")

    def _mean(self, fn, theta, size):
        """fn(theta, inputs), checked to be `size` values; zeros for None."""
        if fn is None:
            return np.zeros(size)
        mean = np.asarray(fn(theta, self.spec.inputs), dtype=float)
        if mean.shape != (size,):
            raise DimensionMismatch(f"mean function returned shape "
                                    f"{mean.shape}, expected ({size},)")
        return mean

    def _construct(self, suffix, kind, generator, theta, rows, cols=None):
        return distla.construct_distributed(
            self.cluster, self._nm(suffix), kind, generator, theta,
            inputs_name=self._nm("inputs"), row_layout=rows, col_layout=cols)

    def _remove(self, keep=()):
        """Remove this problem's objects, except `keep`, from every worker in
        one dispatch."""
        self.cluster.remote_rm([self._nm(suffix) for suffix in self._NAMES
                                if suffix not in keep])

    @contextmanager
    def _clean_failure(self):
        """Worker work that fails leaves no theta current and only `inputs`
        on the workers, the state a new theta starts from, so nothing
        half-built is reused or left behind.  The means are evaluated before
        it starts, so a failing mean changes nothing."""
        try:
            yield
        except BlockGPError:
            self._state = {}
            with suppress(BlockGPError):  # the cluster itself may be down
                self._remove(keep=("inputs",))
            raise

    # -- the state slot ----------------------------------------------------
    def _ensure_chol(self, theta):
        """L and u = L^{-1}(y - mu) built for theta on the workers, mu kept
        on the master; returns the slot."""
        fp = theta.tobytes()
        if self._state.get("fp") == fp:
            return self._state
        mu = self._mean(self.spec.mean_fn, theta, self.n)
        with self._clean_failure():
            self._state = {}
            self._remove(keep=("inputs",))
            cov = self._construct("L", "triangular", self.spec.cov_fn, theta,
                                  self.row_layout)
            u = distla.distribute(self.cluster, self._u.name, self.y - mu,
                                  "vector", self.row_layout)
            _, stats = distla.distributed_cholesky(self.cluster, cov,
                                                   cov.name, rhs=u)
            logdet = 2.0 * sum(s["log_diag"] for s in stats)
            ssq = sum(s["sum_sq"] for s in stats)
            self._state = {"fp": fp, "mu": mu,
                           "ll": -0.5 * self.n * LOG_2PI - 0.5 * logdet
                           - 0.5 * ssq}
        return self._state

    def _ensure_prediction_basis(self, theta):
        """V = L^{-1} C_cross and the predicted mean, built for theta."""
        state = self._ensure_chol(theta)
        if "pred_mean" in state:
            return state
        pred_mu = self._mean(self.spec.pred_mean_fn, theta, self.m)
        with self._clean_failure():
            cross = self._construct("V", "rectangular", self.spec.cross_cov_fn,
                                    theta, self.row_layout, self.col_layout)
            distla.triangular_solve(self.cluster, self._L, cross,
                                    self._V.name, side="forward")
            w = distla.crossprod_mat_vec(self.cluster, self._V, self._u,
                                         self._nm("w"))
            state["pred_mean"] = pred_mu + distla.collect(self.cluster, w,
                                                          True)
        return state

    def _ensure_posterior_factor(self, theta):
        """LSigma, the Cholesky factor of Sigma*, built for theta."""
        state = self._ensure_prediction_basis(theta)
        if "LSigma" in state:
            return state
        with self._clean_failure():
            sigma = self._posterior_cov(theta, "LSigma")
            try:
                state["LSigma"], _ = distla.distributed_cholesky(
                    self.cluster, sigma, sigma.name)
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(
                    exc.block_index,
                    "posterior covariance not numerically PD") from exc
        return state

    def _posterior_cov(self, theta, suffix):
        """Sigma* = C_pred - V^T V, built in C_pred's blocks as `suffix`."""
        sigma = self._construct(suffix, "triangular", self.spec.pred_cov_fn,
                                theta, self.col_layout)
        return distla.crossprod_self(self.cluster, self._V, sigma.name,
                                     subtract=True)

    # -- public API --------------------------------------------------------
    def log_density(self, theta=None):
        """Gaussian log likelihood at theta (defaults to the current vector)."""
        theta = self.theta if theta is None else self._check_theta(theta)
        ll = self._ensure_chol(theta)["ll"]
        self.theta = theta
        return ll

    def close(self):
        """Remove this problem's objects from every worker in one dispatch;
        a later call then fails on the missing inputs instead of reusing a
        result."""
        self._state = {}
        self._remove()

    def optimize_log_dens(self, theta0=None, max_evals=500):
        """Maximize the log density with Nelder-Mead on log-transformed theta.

        The log transform keeps every iterate in the positive orthant and
        makes the simplex-diameter stopping rule (`XATOL`) relative in theta.
        Returns the best point found, flagged unconverged when the evaluation
        budget runs out; the trace records every evaluation.
        """
        theta0 = self.theta if theta0 is None else self._check_theta(theta0)
        trace = []

        def neg_ll(log_theta):
            theta = np.exp(log_theta)
            try:
                ll = self.log_density(theta)
            except NotPositiveDefinite:
                trace.append((theta, -np.inf))
                return np.inf
            trace.append((theta, ll))
            return -ll

        first = neg_ll(np.log(theta0))
        if not np.isfinite(first):
            raise NonFiniteObjective(
                f"log density not finite at starting theta {theta0}")
        res = minimize(neg_ll, np.log(theta0), method="Nelder-Mead",
                       options={"xatol": XATOL, "fatol": FATOL,
                                "maxfev": max_evals, "adaptive": True})
        best_theta, best_ll = max(trace, key=lambda t: t[1])
        if not res.success:
            log.warning("optimizer budget exhausted after %d evaluations; "
                        "returning best-so-far", len(trace))
        self.theta = np.asarray(best_theta, dtype=float)
        return OptResult(theta=self.theta, log_density=best_ll, trace=trace,
                         converged=bool(res.success), n_evals=len(trace))

    def predict(self, se_fit=False):
        """Kriging means at the prediction points (and standard errors)."""
        self._check_grid()
        state = self._ensure_prediction_basis(self.theta)
        if se_fit and "se2" not in state:
            with self._clean_failure():
                state["se2"] = self._prediction_variances()
        if not se_fit:
            return state["pred_mean"].copy()
        return state["pred_mean"].copy(), np.sqrt(state["se2"])

    def _prediction_variances(self):
        """diag(C_pred) - diag(V^T V), clamped at zero; the prediction
        covariance is evaluated on its diagonal blocks only."""
        pv = self._construct("pv", "vector", self.spec.pred_cov_fn,
                             self.theta, self.col_layout)
        prior_var = distla.collect(self.cluster, pv, True)
        vtv = distla.crossprod_self_diag(self.cluster, self._V,
                                         self._nm("vtv_diag"))
        se2 = prior_var - distla.collect(self.cluster, vtv, True)
        if np.any(se2 < 0):
            warnings.warn("negative prediction variances clamped to zero "
                          "(round-off)", stacklevel=3)
            se2 = np.maximum(se2, 0.0)
        return se2

    def prediction_variance(self):
        """Full posterior covariance at the prediction points (dense,
        symmetric); each call returns a new array."""
        self._check_grid()
        state = self._ensure_prediction_basis(self.theta)
        if "Sigma" not in state:
            with self._clean_failure():
                sigma = self._posterior_cov(self.theta, "Sigma")
                state["Sigma"] = distla.collect(self.cluster, sigma, True)
        lower = state["Sigma"]
        return lower + np.tril(lower, -1).T

    def simulate_realizations(self, r, post=True):
        """r >= 1 realizations: rows are points, columns are draws.

        Unconditional draws are mu + L z; conditional draws are the posterior
        mean plus L_Sigma z with L_Sigma the Cholesky factor of the posterior
        covariance (no jitter is applied if that factorization fails).
        """
        if not (is_integer(r) and r >= 1):
            raise DimensionMismatch(f"r must be an integer >= 1, got {r!r}")
        r_layout = distla.make_layout(int(r), self.cluster.grid, self.h_r)
        if post:
            self._check_grid()
            state = self._ensure_posterior_factor(self.theta)
            factor, base = state["LSigma"], state["pred_mean"]
        else:
            factor, base = self._L, self._ensure_chol(self.theta)["mu"]
        with self._clean_failure():
            z = distla.construct_rnorm_distributed(
                self.cluster, self._nm("Z"), "rectangular", factor.layout,
                r_layout)
            lz = distla.mult_chol(self.cluster, factor, z, z.name)
            return base[:, None] + distla.collect(self.cluster, lz, True)
