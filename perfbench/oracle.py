"""Dense serial oracle: the same kriging problem solved with numpy/scipy.

Every timed operation of the benchmark is checked against these formulas on
the same inputs.  The kernel is `matern-nugget` with the library's default
smoothness nu = 1/2, i.e. C(d) = sigma2 * exp(-d / rho), plus tau2 on the
observation diagonal.  Nothing here calls into blockgp.

The oracle runs as a child process (`python3 oracle.py`, see `serve`): its
dense n x n arrays stay out of the benchmark's peak RSS, and it is timed
right after each distributed op, so the oracle ratio pairs samples taken at
the same moment.
"""

import pickle
import sys
import time

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.spatial.distance import cdist

LOG_2PI = float(np.log(2.0 * np.pi))

# Relative tolerance of log density, predicted means and variances against
# the oracle.  Both sides factor the same matrix in float64; the block order
# changes only the rounding, which stays many orders of magnitude below this.
REL_TOL = 1e-8
# A conditional draw is mean + L_Sigma z with z i.i.d. N(0, 1).  Whitening it
# with the oracle's L_Sigma must give entries whose sample mean and variance
# sit within this many standard errors of 0 and 1.
WHITE_SIGMAS = 6.0


def covariance(A, B, theta):
    return theta[0] * np.exp(-cdist(A, B) / theta[1])


def log_density(X, y, theta):
    """(log density, L, u) with C = L L^T and u = L^{-1} y."""
    C = covariance(X, X, theta)
    C[np.diag_indices_from(C)] += theta[2]
    L = cholesky(C, lower=True, check_finite=False)
    u = solve_triangular(L, y, lower=True, check_finite=False)
    ll = (-0.5 * len(y) * LOG_2PI - float(np.sum(np.log(np.diag(L))))
          - 0.5 * float(u @ u))
    return ll, L, u


def predict(X, Xp, L, u, theta):
    """(mean, standard error, V) with V = L^{-1} C(X, Xp)."""
    V = solve_triangular(L, covariance(X, Xp, theta), lower=True,
                         check_finite=False)
    mean = V.T @ u
    se2 = theta[0] - np.einsum("ij,ij->j", V, V)
    return mean, np.sqrt(np.maximum(se2, 0.0)), V


def posterior_chol(Xp, V, theta):
    """Cholesky factor of Sigma* = C(Xp, Xp) - V^T V."""
    S = covariance(Xp, Xp, theta) - V.T @ V
    return cholesky(S, lower=True, check_finite=False)


def close(got, want, tol=REL_TOL):
    """Max-norm agreement relative to the oracle's scale."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) <= tol * scale


def white(draws, mean, L_sigma):
    """True when L_sigma^{-1} (draws - mean) looks like i.i.d. N(0, 1)."""
    z = solve_triangular(L_sigma, draws - mean[:, None], lower=True,
                         check_finite=False)
    count = z.size
    return (abs(float(z.mean())) <= WHITE_SIGMAS / np.sqrt(count)
            and abs(float(z.var()) - 1.0)
            <= WHITE_SIGMAS * np.sqrt(2.0 / count))


def serve(inp, out):
    """Answer pickled requests from `inp` on `out` until `inp` closes.

    The first object read is (X, y, Xp); "ready" answers it.  Then
    ("loglik", theta)            -> ("ok", ll, seconds)
    ("iteration", theta, draws)  -> ("ok", ll, mean, se, white, seconds)
    where the seconds of an iteration cover predict + simulate only.
    """
    X, y, Xp = pickle.load(inp)
    _send(out, "ready")
    while True:
        try:
            req = pickle.load(inp)
        except EOFError:
            return
        try:
            ans = _answer(req, X, y, Xp)
        except Exception as exc:  # reported as a failed check by the caller
            ans = ("error", repr(exc))
        _send(out, ans)


def _send(out, obj):
    pickle.dump(obj, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()


def _answer(req, X, y, Xp):
    kind, theta = req[0], np.asarray(req[1], float)
    t0 = time.perf_counter()
    ll, L, u = log_density(X, y, theta)
    if kind == "loglik":
        return ("ok", ll, time.perf_counter() - t0)
    draws = req[2]
    z = np.random.default_rng(0).standard_normal(draws.shape)
    t0 = time.perf_counter()
    mean, se, V = predict(X, Xp, L, u, theta)
    L_sigma = posterior_chol(Xp, V, theta)
    _oracle_draws = mean[:, None] + L_sigma @ z
    seconds = time.perf_counter() - t0
    return ("ok", ll, mean, se, white(draws, mean, L_sigma), seconds)


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
