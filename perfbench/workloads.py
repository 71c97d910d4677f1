"""The benchmark workloads: seeded inputs, set-up, the timed closed loop,
and the oracle checks.

One caller, the master, issues each operation only after the previous one
returned (a closed loop with one client).  Every workload runs on P = 3
workers (D = 2), the smallest real triangular grid: on a 2-core machine a
larger grid would only measure oversubscription.
"""

import hashlib
import os
import pickle
import resource
import subprocess
import sys
import time

import numpy as np

import blockgp
from blockgp.gp import KrigeProblem, builtin_spec

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
P = 3
KERNEL = "matern-nugget"
TRUE_THETA = np.array([1.0, 2.0, 0.1])  # (sigma2, rho, tau2) of the data
THETA_LO = np.log([0.5, 1.0, 0.05])     # fresh thetas are log-uniform here
THETA_HI = np.log([2.0, 3.0, 0.3])

SOCKET = "multi-process-socket"
CONFIGS = {
    # the paper's main loop: capped Nelder-Mead fits, n-side kernels only
    "fit-inproc": {"backend": "in-process", "n": 2000, "h_n": 4,
                   "max_evals": 10, "setups": 41},
    # m >> n: cross and prediction covariances, solve_rect, crossproducts,
    # the m x m posterior Cholesky, rnorm and mult_rect
    "predict-sim": {"backend": "in-process", "n": 800, "m": 2000, "h_n": 2,
                    "h_m": 6, "r": 100, "setups": 41},
    # fine blocks over loopback TCP: per-message transport cost dominates
    "loglik-socket": {"backend": SOCKET, "n": 2000, "h_n": 8, "setups": 3},
}


class Inputs:
    """Coordinates, data and the fresh thetas, all made from the seed."""

    def __init__(self, cfg, seed):
        data_seq, theta_seq = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(data_seq)
        self.X = rng.uniform(0.0, 10.0, (cfg["n"], 2))
        self.Xp = (rng.uniform(0.0, 10.0, (cfg["m"], 2)) if cfg.get("m")
                   else None)
        self.y = _gp_sample(rng, self.X, TRUE_THETA)
        self._thetas = np.random.default_rng(theta_seq)

    def theta(self):
        return np.exp(self._thetas.uniform(THETA_LO, THETA_HI))


def _gp_sample(rng, X, theta, features=256):
    """Approximate draw of the GP by random Fourier features.

    exp(-d / rho) in 2-D has a bivariate Cauchy spectral density (Student t
    with one degree of freedom, scale 1/rho).  This keeps input generation
    at O(n) memory, so it does not set the master's peak RSS.
    """
    scale = theta[1] * np.sqrt(rng.chisquare(1.0, features))
    omega = rng.standard_normal((features, 2)) / scale[:, None]
    phase = rng.uniform(0.0, 2.0 * np.pi, features)
    f = np.sqrt(2.0 * theta[0] / features) * np.cos(X @ omega.T + phase).sum(1)
    return f + np.sqrt(theta[2]) * rng.standard_normal(len(X))


def new_problem(cluster, cfg, inputs, name):
    spec = builtin_spec(KERNEL, inputs.X, inputs.Xp)
    return KrigeProblem(cluster, name, spec, inputs.y, TRUE_THETA,
                        m=cfg.get("m", 0), h_n=cfg["h_n"], h_m=cfg.get("h_m"))


def spawn(cfg, seed):
    blas = 1 if cfg["backend"] == SOCKET else None
    return blockgp.spawn(P, cfg["backend"], seed=seed, blas_threads=blas)


def setup(cfg, inputs, seed, name, spawn_fn=spawn):
    """spawn + KrigeProblem (push inputs, distribute y); returns the time."""
    t0 = time.perf_counter()
    cluster = spawn_fn(cfg, seed)
    try:
        problem = new_problem(cluster, cfg, inputs, name)
    except BaseException:
        cluster.shutdown()
        raise
    return cluster, problem, time.perf_counter() - t0


def record_evals(problem, sink):
    """Time every log_density evaluation from outside the problem.

    Appends [theta, log density or exception, seconds] for each theta the
    problem has not seen; repeats are answered from its cache and skipped.
    """
    inner = problem.log_density
    seen = set()

    def timed(theta=None):
        th = np.array(problem.theta if theta is None else theta, dtype=float)
        fresh = th.tobytes() not in seen
        seen.add(th.tobytes())
        t0 = time.perf_counter()
        try:
            ll = inner(theta)
        except Exception as exc:
            if fresh:
                sink.append([th, exc, time.perf_counter() - t0])
            raise
        if fresh:
            sink.append([th, ll, time.perf_counter() - t0])
        return ll
    problem.log_density = timed


# -- one operation of each workload ------------------------------------------

def run_fit(problem, theta0, cfg):
    t0 = time.perf_counter()
    try:
        res = problem.optimize_log_dens(theta0, max_evals=cfg["max_evals"])
    except Exception as exc:  # counted as a failed op, reported at the end
        return {"error": exc, "t": time.perf_counter() - t0}
    return {"res": res, "t": time.perf_counter() - t0}


def run_iteration(problem, theta, cfg):
    """log_density(theta), then predict(se_fit=True), then a conditional
    simulate; times each step."""
    out = {"theta": theta}
    try:
        t0 = time.perf_counter()
        out["ll"] = problem.log_density(theta)
        t1 = time.perf_counter()
        out["mean"], out["se"] = problem.predict(se_fit=True)
        t2 = time.perf_counter()
        out["sim"] = problem.simulate_realizations(cfg["r"], post=True)
        t3 = time.perf_counter()
    except Exception as exc:  # counted as a failed op, reported at the end
        out["error"] = exc
        return out
    out.update(t_ll=t1 - t0, t_pred=t2 - t1, t_sim=t3 - t2)
    return out


def run_loglik(problem, theta):
    t0 = time.perf_counter()
    try:
        ll = problem.log_density(theta)
    except Exception as exc:  # counted as a failed op, reported at the end
        return {"theta": theta, "error": exc}
    return {"theta": theta, "ll": ll, "t": time.perf_counter() - t0}


def checksum(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# -- oracle checks ------------------------------------------------------------

class Checker:
    """Checks ops against the dense oracle, which runs in a child process.

    Counts attempted and failed checks, caches oracle answers per theta, and
    keeps the oracle's own times (the oracle_ratio denominator).
    """

    def __init__(self, inputs, cfg):
        self.cfg = cfg
        self.attempted = 0
        self.failures = []
        self.oracle_ll_s = []
        self.oracle_main_s = []
        self._ll = {}
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "oracle.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.pid = self._proc.pid
        self._ask(inputs.X, inputs.y, inputs.Xp)  # waits for "ready"

    def close(self):
        try:
            self._proc.stdin.close()  # EOF ends the server
            self._proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def fail(self, what):
        self.attempted += 1
        self.failures.append(what)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def _ask(self, *req):
        pickle.dump(req, self._proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def loglik(self, theta, ll, what):
        if isinstance(ll, Exception):
            self.fail(f"{what}: raised {ll!r}")
            return
        key = np.asarray(theta, float).tobytes()
        if key not in self._ll:
            self._ll[key] = self._ask("loglik", theta)
            if self._ll[key][0] == "ok":
                self.oracle_ll_s.append(self._ll[key][2])
        ans = self._ll[key]
        if ans[0] != "ok":
            self.fail(f"{what}: oracle failed: {ans[1]}")
            return
        self.check(abs(ll - ans[1]) <= oracle.REL_TOL * abs(ans[1]),
                   f"{what}: log density {ll!r} vs oracle {ans[1]!r}")

    def iteration(self, it, what):
        """Checks of one log_density + predict + simulate iteration."""
        if "error" in it:
            self.fail(f"{what}: raised {it['error']!r}")
            return
        sim = it["sim"]
        if not (sim.shape == (self.cfg["m"], self.cfg["r"])
                and np.all(np.isfinite(sim))):
            self.fail(f"{what}: simulate gave shape {sim.shape} or non-finite")
            return
        ans = self._ask("iteration", it["theta"], sim)
        if ans[0] != "ok":
            self.fail(f"{what}: oracle failed: {ans[1]}")
            return
        _, ll, mean, se, white, seconds = ans
        self.oracle_main_s.append(seconds)
        self.check(abs(it["ll"] - ll) <= oracle.REL_TOL * abs(ll),
                   f"{what}: log density {it['ll']!r} vs oracle {ll!r}")
        self.check(oracle.close(it["mean"], mean)
                   and oracle.close(it["se"] ** 2, se ** 2),
                   f"{what}: predict mean/se off the oracle")
        self.check(white, f"{what}: simulate not a draw of the posterior")


# -- measurement helpers ------------------------------------------------------

def tail(xs):
    """(value, percentile) of the highest percentile with >= 10 samples
    above it; (None, None) when that would not reach the median."""
    xs = sorted(xs)
    if len(xs) < 20:
        return None, None
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def steal_s():
    """CPU time the hypervisor has taken from the vCPUs so far (steal)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(exclude=()):
    """Peak RSS of this process plus every live child (socket workers)
    except the pids in `exclude` (the oracle)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                children += f.read().split()
        except OSError:
            pass
    for pid in children:
        if int(pid) in exclude:
            continue
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass
    return kb / 1024.0
