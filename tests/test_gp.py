"""Kriging engine: likelihood, MLE, prediction, simulation, freshness."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule,
                                 run_state_machine_as_test)

from blockgp import distla, registry, spawn
from blockgp.distla import LocalPiece
from blockgp.errors import (BlockGPError, DimensionMismatch,
                            NonFiniteObjective, NotPositiveDefinite,
                            UnsupportedSmoothness)
from blockgp.gp import (BUILTIN_KERNELS, KrigeProblem, builtin_spec,
                        matern_correlation, sqexp_correlation)
from blockgp.rng import RankStream
from scipy.spatial.distance import cdist

from conftest import exp_cov, relerr

LOG_2PI = np.log(2.0 * np.pi)


def _serial_loglik(C, y, mu=None):
    resid = y if mu is None else y - mu
    L = np.linalg.cholesky(C)
    u = np.linalg.solve(L, resid)
    return (-0.5 * len(y) * LOG_2PI - np.sum(np.log(np.diag(L)))
            - 0.5 * u @ u)


def _problem(cl, coords, y, theta, kernel="matern-nugget", pred=None, h=1,
             **inputs):
    spec = builtin_spec(kernel, coords, pred, **inputs)
    m = 0 if pred is None else len(pred)
    return KrigeProblem(cl, "t", spec, y, theta, m=m, h_n=h, h_m=h, h_r=h)


def _zero_draws(monkeypatch):
    """Make every in-process rank's stream draw zeros, so a simulation
    returns its mean exactly."""
    monkeypatch.setattr(RankStream, "standard_normals",
                        lambda self, count: np.zeros(int(count)))


THETAS = {"A": np.array([1.0, 1.0, 0.1]), "B": np.array([1.3, 0.7, 0.2]),
          "bad": np.array([6.0, 1.0, 0.1])}


@registry.register("test.negated-above-5.cov")
def _negated_above_five(params, inputs, i, j):
    """matern-nugget covariance, negated (so not positive definite) when
    theta[0] > 5."""
    k = registry.lookup("gen.matern-nugget.cov")(params, inputs, i, j)
    return -k if params[0] > 5 else k


@registry.register("test.zero.pred")
def _zero_pred(params, inputs, i, j):
    """A prior prediction covariance of zero, so the posterior covariance
    -V^T V is not positive definite."""
    return np.zeros((len(i), len(j)))


_PRED_CALLS = []


@registry.register("test.counted.pred")
def _counted_pred(params, inputs, i, j):
    """The built-in matern-nugget prediction covariance, recording the
    shape of every block it is asked for."""
    _PRED_CALLS.append((len(i), len(j)))
    return registry.lookup("gen.matern-nugget.pred")(params, inputs, i, j)


def _trend(params, x):
    """A mean that depends on the coordinates and on theta."""
    return params[0] * np.sin(x) + params[1] * x


def _trend_obs(theta, inputs):
    return _trend(theta, inputs["coords"])


def _trend_pred(theta, inputs):
    return _trend(theta, inputs["pred_coords"])


def _small_problem(cl, name="t"):
    """n=15, m=4 problem at theta A whose Cholesky fails at theta "bad"."""
    rng = np.random.default_rng(6)
    coords = np.sort(rng.uniform(0, 5, 15))
    y = rng.standard_normal(15)
    spec = builtin_spec("matern-nugget", coords, np.linspace(0.5, 4.5, 4))
    spec.cov_fn = "test.negated-above-5.cov"
    return KrigeProblem(cl, name, spec, y, THETAS["A"], m=4, h_n=2, h_m=1,
                        h_r=1)


class TestMaternCorrelation:
    def test_zero_distance_is_one(self):
        for nu in (0.5, 1.5, 2.5):
            assert matern_correlation(0.0, 2.0, nu) == 1.0

    def test_exponential_special_case(self):
        assert abs(matern_correlation(2.0, 2.0, 0.5) - np.exp(-1)) < 1e-15

    def test_unsupported_smoothness(self):
        with pytest.raises(UnsupportedSmoothness):
            matern_correlation(1.0, 1.0, 2.0)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            matern_correlation(1.0, 0.0, 0.5)

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_matches_general_bessel_form(self, nu):
        # independent oracle: the general Matern via modified Bessel K
        from scipy.special import gamma, kv
        rho = 1.7
        d = np.linspace(0.05, 6.0, 10)
        s = np.sqrt(2 * nu) * d / rho
        want = (2 ** (1 - nu) / gamma(nu)) * s ** nu * kv(nu, s)
        got = matern_correlation(d, rho, nu)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @given(st.floats(0.0, 50.0), st.floats(0.01, 10.0),
           st.sampled_from([0.5, 1.5, 2.5]))
    def test_in_unit_interval(self, d, rho, nu):
        c = matern_correlation(d, rho, nu)
        assert 0.0 <= c <= 1.0
        if d / rho < 100:  # positive whenever exp(-s) does not underflow
            assert c > 0.0

    @given(st.floats(0.0, 10.0), st.floats(0.1, 10.0),
           st.sampled_from([0.5, 1.5, 2.5]))
    def test_strictly_decreasing(self, d, rho, nu):
        assert matern_correlation(d + 0.1, rho, nu) < \
            matern_correlation(d, rho, nu) + 1e-12

    def test_sqexp(self):
        assert sqexp_correlation(0.0, 1.0) == 1.0
        assert abs(sqexp_correlation(2.0, 2.0) - np.exp(-0.5)) < 1e-15

    @pytest.mark.parametrize("corr", [
        lambda d: matern_correlation(d, 1.7, 0.5),
        lambda d: matern_correlation(d, 1.7, 1.5),
        lambda d: matern_correlation(d, 1.7, 2.5),
        lambda d: sqexp_correlation(d, 1.7)],
        ids=["matern-0.5", "matern-1.5", "matern-2.5", "sqexp"])
    def test_public_correlations_are_pure(self, corr):
        # the generators work in the distance array in place; the public
        # functions never write the caller's array, and a scalar distance
        # still gives a numpy scalar
        d = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        keep = d.copy()
        got = corr(d)
        np.testing.assert_array_equal(d, keep)
        assert got.shape == d.shape and not np.shares_memory(got, d)
        for scalar in (1.25, np.float64(1.25), np.array(1.25)):
            c = corr(scalar)
            assert type(c) is np.float64
            assert c == corr(np.array([1.25]))[0]


class TestGeneratorAllocations:
    """A built-in generator finishes its block in the array cdist returns:
    one 250 x 250 call allocates, at its peak, at most `bound` blocks,
    the block it returns included (the out-of-place formulas took 4.02,
    3.02, 5.02 and 6.02)."""

    @pytest.mark.parametrize("gen,theta,inputs,bound", [
        ("gen.matern-nugget.cov", [1.0, 2.0, 0.1], {"nu": 0.5}, 1.1),
        ("gen.sqexp.cov", [1.0, 2.0], {}, 1.1),
        ("gen.matern.cov", [1.0, 2.0], {"nu": 2.5}, 3.1),
        ("gen.matern-product-nugget.cov", [1.0, 2.0, 1.5, 0.1], {}, 3.1)],
        ids=["matern-nugget-0.5", "sqexp", "matern-2.5",
             "matern-product-nugget"])
    def test_peak_blocks_of_one_call(self, gen, theta, inputs, bound):
        X = np.random.default_rng(0).uniform(0.0, 10.0, (250, 2))
        idx = np.arange(1, 251)
        args = (np.asarray(theta, dtype=float), {"coords": X, **inputs},
                idx, idx)
        fn = registry.lookup(gen)
        fn(*args)  # one-time allocations of a first call are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (250, 250)
        assert (peak - base) / out.nbytes <= bound


class TestLogDensity:
    def test_single_point_unit_variance(self, cluster_factory):
        cl = cluster_factory(1)
        prob = _problem(cl, [0.0], [0.0], [1.0], kernel="white")
        assert abs(prob.log_density() - (-0.9189385332046727)) < 1e-12

    def test_white_noise_closed_form(self, cluster_factory):
        cl = cluster_factory(3)
        y = np.random.default_rng(1).standard_normal(20)
        prob = _problem(cl, np.arange(20.0), y, [1.0], kernel="white")
        want = -10.0 * LOG_2PI - 0.5 * y @ y
        assert abs(prob.log_density() - want) < 1e-10

    @pytest.mark.parametrize("P,h", [(1, 1), (3, 2), (6, 1)])
    def test_exponential_kernel_vs_serial_oracle(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        rng = np.random.default_rng(2)
        coords = np.sort(rng.uniform(0, 10, 50))
        theta = np.array([1.5, 2.0, 0.1])
        C = exp_cov(coords, *theta)
        y = np.linalg.cholesky(C) @ rng.standard_normal(50)
        prob = _problem(cl, coords, y, theta, h=h, nu=0.5)
        want = _serial_loglik(C, y)
        assert abs(prob.log_density() - want) / abs(want) <= 1e-8

    def test_invariant_across_layouts(self, cluster_factory):
        rng = np.random.default_rng(3)
        coords = np.sort(rng.uniform(0, 10, 40))
        theta = np.array([2.0, 1.5, 0.2])
        y = rng.standard_normal(40)
        vals = []
        for P, h in [(1, 1), (3, 1), (3, 2), (6, 2), (10, 1)]:
            cl = cluster_factory(P)
            vals.append(_problem(cl, coords, y, theta, h=h).log_density())
        for v in vals[1:]:
            assert abs(v - vals[0]) / abs(vals[0]) <= 1e-10

    def test_invalid_theta_rejected(self, cluster_factory):
        cl = cluster_factory(1)
        prob = _problem(cl, [0.0, 1.0], [0.0, 0.0], [1.0], kernel="white")
        with pytest.raises(DimensionMismatch):
            prob.log_density(np.array([-1.0]))
        with pytest.raises(DimensionMismatch):
            prob.log_density(np.array([1.0, 2.0]))


class TestFreshness:
    def test_second_call_issues_no_collectives(self, cluster_factory):
        cl = cluster_factory(3)
        rng = np.random.default_rng(4)
        coords = np.sort(rng.uniform(0, 5, 15))
        prob = _problem(cl, coords, rng.standard_normal(15),
                        [1.0, 1.0, 0.1])
        first = prob.log_density()
        cl.set_events(True)
        before = cl.stats["collectives"]
        second = prob.log_density()
        assert second == first
        assert cl.stats["collectives"] == before
        assert cl.drain_events() == []

    def test_repeated_prediction_variance_issues_no_collectives(
            self, cluster_factory):
        cl = cluster_factory(3)
        prob = _small_problem(cl)
        first = prob.prediction_variance()
        first[0, 0] = np.nan  # the caller's copy; the kept one is untouched
        before = cl.stats["collectives"]
        second = prob.prediction_variance()
        assert cl.stats["collectives"] == before
        fresh = _small_problem(cluster_factory(3)).prediction_variance()
        assert second.tobytes() == fresh.tobytes()
        np.testing.assert_array_equal(second, second.T)

    def test_changing_theta_invalidates(self, cluster_factory):
        cl = cluster_factory(3)
        rng = np.random.default_rng(4)
        coords = np.sort(rng.uniform(0, 5, 15))
        prob = _problem(cl, coords, rng.standard_normal(15),
                        [1.0, 1.0, 0.1])
        a = prob.log_density()
        before = cl.stats["collectives"]
        b = prob.log_density(np.array([1.0, 1.0, 0.2]))
        assert b != a
        assert cl.stats["collectives"] > before


    @pytest.mark.parametrize("final", ["predict", "simulate"])
    def test_revisited_theta_after_rebuild_matches_fresh_problem(
            self, cluster_factory, final):
        # predict at A, then B, then A again from the cache: the next
        # prediction rebuilds L for A and must not trust V from before B
        rng = np.random.default_rng(6)
        coords = np.sort(rng.uniform(0, 5, 15))
        y = rng.standard_normal(15)
        pred = np.linspace(0.5, 4.5, 4)
        theta_a = np.array([1.0, 1.0, 0.1])
        theta_b = np.array([1.0, 1.0, 0.2])

        def run(prob):
            if final == "predict":
                return prob.predict(se_fit=True)
            return (prob.simulate_realizations(3, post=True),)

        prob = _problem(cluster_factory(3, seed=5), coords, y, theta_a,
                        pred=pred)
        prob.log_density(theta_a)
        prob.predict()
        prob.log_density(theta_b)
        prob.log_density(theta_a)
        got = run(prob)
        fresh = _problem(cluster_factory(3, seed=5), coords, y, theta_a,
                         pred=pred)
        for g, w in zip(got, run(fresh)):
            np.testing.assert_array_equal(g, w)

    def test_failed_rebuild_leaves_no_stale_state(self, cluster_factory):
        # the failed Cholesky at the bad theta deletes L on the workers; the
        # next predict at A must rebuild it rather than trust an older L
        prob = _small_problem(cluster_factory(3, seed=5))
        prob.log_density(THETAS["A"])
        with pytest.raises(NotPositiveDefinite):
            prob.log_density(THETAS["bad"])
        got = prob.predict(se_fit=True)
        fresh = _small_problem(cluster_factory(3, seed=5))
        for g, w in zip(got, fresh.predict(se_fit=True)):
            np.testing.assert_array_equal(g, w)

    def test_new_theta_issues_two_collectives(self, cluster_factory):
        # the forward solve, log det and sum of squares ride the Cholesky
        cl = cluster_factory(3)
        prob = _small_problem(cl)
        issued, run = [], cl.run
        cl.run = lambda fn_id, **kw: issued.append(fn_id) or run(fn_id, **kw)
        prob.log_density(THETAS["B"])
        assert issued == ["distla.construct", "distla.cholesky"]

    def test_close_is_one_dispatch(self, cluster_factory):
        cl = cluster_factory(3)
        prob = _small_problem(cl)
        prob.simulate_realizations(2)
        dispatch, sent = cl._dispatch, []
        cl._dispatch = lambda cmds: sent.append(cmds) or dispatch(cmds)
        prob.close()
        assert len(sent) == 1
        assert not [nm for nm in cl.remote_ls(1) if nm.startswith("t.")]

    def test_close_removes_worker_objects(self, cluster_factory):
        cl = cluster_factory(3)
        cl.push("t_other", 1.0)
        keep = _small_problem(cl, name="keep")
        keep.log_density()
        with _small_problem(cl) as prob:
            prob.log_density()
            prob.predict(se_fit=True)
            prob.prediction_variance()
            prob.simulate_realizations(2, post=True)
            prob.simulate_realizations(2, post=False)
        for rank in range(1, 4):
            names = cl.remote_ls(rank)
            assert not [nm for nm in names if nm.startswith("t.")]
            assert "t_other" in names and "keep.L" in names
        for call in (prob.log_density, prob.predict):
            with pytest.raises(BlockGPError):
                call()
        assert keep.log_density(THETAS["B"]) == \
            _small_problem(cl, name="again").log_density(THETAS["B"])


def _live_bytes(cluster):
    """Bytes of every array in the in-process workers' stores."""
    total = 0
    for worker in cluster._workers.values():
        for obj in worker.ctx.store.values():
            arrays = (obj.blocks.values() if isinstance(obj, LocalPiece)
                      else obj.values())
            total += sum(a.nbytes for a in arrays
                         if isinstance(a, np.ndarray))
    return total


class TestResidency:
    """After each public call the workers hold exactly the documented live
    set: inputs; L and u once a theta is current; V once predicted; LSigma
    once conditionally simulated.  y and the means stay on the master, each
    factor is built under its own name, and everything else is released as
    it is collected.  A new theta, like a failure, starts from inputs
    alone."""

    def _names(self, cl, name="t"):
        per_rank = [{nm[len(name) + 1:] for nm in cl.remote_ls(rank)
                     if nm.startswith(name + ".")}
                    for rank in range(1, cl.P + 1)]
        assert all(names == per_rank[0] for names in per_rank)
        return per_rank[0]

    def test_live_set_after_each_call(self, cluster_factory):
        cl = cluster_factory(3)
        prob = _small_problem(cl)
        base, chol = {"inputs"}, {"inputs", "L", "u"}
        # what the workers hold when each construct is dispatched
        at_construct, run = [], cl.run

        def recorded(fn_id, **kwargs):
            if fn_id == "distla.construct":
                at_construct.append(self._names(cl))
            return run(fn_id, **kwargs)
        cl.run = recorded
        # the steps that build the covariance for a new theta
        fresh = {"log_density", "new theta", "new theta after simulate",
                 "failed theta", "unconditional at A"}
        steps = [
            ("log_density", lambda: prob.log_density(), chol),
            ("predict", lambda: prob.predict(), chol | {"V"}),
            ("predict se", lambda: prob.predict(se_fit=True), chol | {"V"}),
            ("prediction_variance", prob.prediction_variance, chol | {"V"}),
            ("simulate", lambda: prob.simulate_realizations(2),
             chol | {"V", "LSigma"}),
            ("simulate again", lambda: prob.simulate_realizations(2),
             chol | {"V", "LSigma"}),
            ("unconditional", lambda: prob.simulate_realizations(2, False),
             chol | {"V", "LSigma"}),
            ("new theta", lambda: prob.log_density(THETAS["B"]), chol),
            ("simulate at B", lambda: prob.simulate_realizations(2),
             chol | {"V", "LSigma"}),
            ("new theta after simulate",
             lambda: prob.log_density(THETAS["A"]), chol),
            ("failed theta", lambda: _outcome(
                lambda: prob.log_density(THETAS["bad"])), base),
            ("unconditional at A", lambda: prob.simulate_realizations(2, False),
             chol),
            ("close", prob.close, set()),
        ]
        for what, call, want in steps:
            at_construct.clear()
            call()
            assert self._names(cl) == want, what
            if what in fresh:
                assert at_construct == [base], what

    def test_live_bytes_after_predict_and_simulate(self, cluster_factory):
        # the predict-sim benchmark's problem: L + V + LSigma is 33.4 MB,
        # and keeping the cross- and prediction covariances and V^T V
        # beside them would make 84.4 MB
        cl = cluster_factory(3, seed=1)
        rng = np.random.default_rng(1)
        spec = builtin_spec("matern-nugget", rng.uniform(0, 10, (800, 2)),
                            rng.uniform(0, 10, (2000, 2)))
        prob = KrigeProblem(cl, "t", spec, rng.standard_normal(800),
                            [1.0, 2.0, 0.1], m=2000, h_n=2, h_m=6)
        prob.log_density()
        prob.predict(se_fit=True)
        prob.simulate_realizations(100)
        assert _live_bytes(cl) <= 40e6
        assert self._names(cl) == {"inputs", "L", "u", "V", "LSigma"}


def _outcome(fn):
    """fn()'s result, or the type of the package error it raised."""
    try:
        return fn()
    except BlockGPError as exc:
        return type(exc)


_ORACLE = {}


def _oracle(theta, op, *args):
    """What a fresh problem at theta returns for op(*args), computed once."""
    key = (theta.tobytes(), op, args)
    if key not in _ORACLE:
        cl = spawn(3, seed=5)
        try:
            prob = _small_problem(cl)
            prob.theta = theta
            _ORACLE[key] = _outcome(lambda: getattr(prob, op)(*args))
        finally:
            cl.shutdown()
    return _ORACLE[key]


def _assert_same(got, want):
    if isinstance(want, type):
        assert got is want
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    else:
        np.testing.assert_array_equal(got, want)


def _live_set(prob):
    """The documented worker objects of a problem in its current state."""
    state = prob._state
    suffixes = {"inputs"}
    if "ll" in state:
        suffixes |= {"L", "u"}
    if "pred_mean" in state:
        suffixes.add("V")
    if "LSigma" in state:
        suffixes.add("LSigma")
    return {f"{prob.name}.{suffix}" for suffix in suffixes}


class KrigeMachine(RuleBasedStateMachine):
    """Random call sequences on one problem, each result checked bit for bit
    against a fresh problem at the same theta."""

    def __init__(self):
        super().__init__()
        self.cluster = spawn(3, seed=5)
        self.prob = _small_problem(self.cluster)
        self.issued = []
        run = self.cluster.run

        def recorded(fn_id, **kwargs):
            self.issued.append(fn_id)
            return run(fn_id, **kwargs)
        self.cluster.run = recorded

    def teardown(self):
        self.cluster.shutdown()

    def check(self, call, theta, op, *args, repeat_free=False,
              repeat_issues=None):
        """call() returns what a fresh problem at theta returns for op(*args);
        calling it again issues exactly the collectives `repeat_issues`
        (none with repeat_free)."""
        got = _outcome(call)
        _assert_same(got, _oracle(theta, op, *args))
        if repeat_free:
            repeat_issues = []
        if repeat_issues is not None and not isinstance(got, type):
            self.issued.clear()
            _assert_same(call(), got)
            assert self.issued == list(repeat_issues)

    @invariant()
    def workers_hold_the_live_set(self):
        for rank in range(1, 4):
            names = {nm for nm in self.cluster.remote_ls(rank)
                     if nm.startswith("t.")}
            assert names == _live_set(self.prob)

    @rule(k=st.sampled_from(["A", "B"]))
    def log_density(self, k):
        theta = THETAS[k]
        self.check(lambda: self.prob.log_density(theta), theta, "log_density",
                   repeat_free=True)

    @rule()
    def log_density_not_pd(self):
        self.log_density("bad")

    @rule()
    def predict(self):
        theta = self.prob.theta
        self.check(lambda: self.prob.predict(se_fit=True), theta, "predict",
                   True)
        self.check(self.prob.predict, theta, "predict", repeat_free=True)

    @rule()
    def simulate(self):
        for post in (True, False):
            self.check(lambda: self.prob.simulate_realizations(3, post),
                       self.prob.theta, "simulate_realizations", 3, post)

    @rule()
    def predict_repeat(self):
        self.check(lambda: self.prob.predict(se_fit=True), self.prob.theta,
                   "predict", True, repeat_free=True)

    @rule()
    def prediction_variance_repeat(self):
        # the collected posterior covariance is kept for the theta
        self.check(self.prob.prediction_variance, self.prob.theta,
                   "prediction_variance", repeat_free=True)

    @rule()
    def simulate_repeat(self):
        # a repeat at one theta only draws: LSigma is kept for the theta
        self.check(lambda: self.prob.simulate_realizations(3, True),
                   self.prob.theta, "simulate_realizations", 3, True,
                   repeat_issues=["distla.rnorm", "distla.mult",
                                  "distla.collect"])

    @rule()
    def unconditional_repeat(self):
        # a repeat at one theta only draws: the prior mean is kept once
        # collected
        self.check(lambda: self.prob.simulate_realizations(3, False),
                   self.prob.theta, "simulate_realizations", 3, False,
                   repeat_issues=["distla.rnorm", "distla.mult",
                                  "distla.collect"])

    @rule()
    def optimize(self):
        want = _oracle(self.prob.theta, "optimize_log_dens", None, 5)
        res = self.prob.optimize_log_dens(max_evals=5)
        _assert_same((res.theta, res.log_density, [t[1] for t in res.trace]),
                     (want.theta, want.log_density,
                      [t[1] for t in want.trace]))
        np.testing.assert_array_equal(self.prob.theta, res.theta)

    @rule()
    def close(self):
        # ends this problem; the sequence goes on with a new one of the
        # same name, which nothing left behind may disturb
        self.prob.close()
        for rank in range(1, 4):
            assert not [nm for nm in self.cluster.remote_ls(rank)
                        if nm.startswith("t.")]
        for call in (self.prob.log_density, self.prob.predict):
            with pytest.raises(BlockGPError):
                call()
        self.prob = _small_problem(self.cluster)


def test_state_machine_matches_fresh_problems(monkeypatch):
    # zero draws leave every stream where it was, so a simulation matches a
    # fresh problem's whatever was drawn before it
    _zero_draws(monkeypatch)
    run_state_machine_as_test(KrigeMachine, settings=settings(
        max_examples=25, stateful_step_count=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))


class TestOptimize:
    def test_scaled_identity_recovers_closed_form_mle(self, cluster_factory):
        cl = cluster_factory(3)
        rng = np.random.default_rng(6)
        y = 1.7 * rng.standard_normal(100)
        prob = _problem(cl, np.arange(100.0), y, [1.0], kernel="white")
        res = prob.optimize_log_dens()
        mle = y @ y / 100
        assert abs(res.theta[0] - mle) / mle <= 1e-4
        assert res.converged
        assert res.log_density >= prob.log_density(np.array([1.0]))

    def test_start_at_optimum_stays(self, cluster_factory):
        cl = cluster_factory(1)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(50)
        mle = y @ y / 50
        prob = _problem(cl, np.arange(50.0), y, [mle], kernel="white")
        res = prob.optimize_log_dens()
        assert abs(res.theta[0] - mle) / mle <= 1e-4
        assert res.log_density >= prob.log_density(np.array([mle])) - 1e-9

    def test_budget_exhaustion_returns_best_so_far(self, cluster_factory):
        cl = cluster_factory(1)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(30)
        prob = _problem(cl, np.arange(30.0), y, [5.0], kernel="white")
        res = prob.optimize_log_dens(max_evals=3)
        assert not res.converged
        assert res.n_evals <= 5  # budget plus the probing evaluation
        assert res.log_density == max(ll for _, ll in res.trace)

    def test_non_positive_definite_start_is_non_finite(self,
                                                       cluster_factory):
        prob = _small_problem(cluster_factory(3))
        with pytest.raises(NonFiniteObjective, match="starting theta"):
            prob.optimize_log_dens(THETAS["bad"])


class TestPredict:
    def _kriging_oracle(self, coords, pred, y, theta, nu=0.5):
        C = exp_cov(coords, *theta)
        coords2, pred2 = np.atleast_1d(coords), np.atleast_1d(pred)
        d = np.abs(coords2[:, None] - pred2[None, :])
        Cx = theta[0] * np.exp(-d / theta[1])
        dp = np.abs(pred2[:, None] - pred2[None, :])
        Cp = theta[0] * np.exp(-dp / theta[1])
        mean = Cx.T @ np.linalg.solve(C, y)
        Sigma = Cp - Cx.T @ np.linalg.solve(C, Cx)
        return mean, Sigma

    def test_interpolation_at_observations(self, cluster_factory):
        # no nugget, prediction points = observation points: exact recovery
        cl = cluster_factory(3)
        rng = np.random.default_rng(9)
        coords = np.sort(rng.uniform(0, 10, 12))
        theta = np.array([1.0, 3.0])
        y = np.linalg.cholesky(exp_cov(coords, 1.0, 3.0)) \
            @ rng.standard_normal(12)
        prob = _problem(cl, coords, y, theta, kernel="matern", pred=coords)
        with pytest.warns(UserWarning, match="clamped"):
            mean, se = prob.predict(se_fit=True)
        assert relerr(mean, y) <= 1e-8
        assert np.all(se <= 1e-4)

    def test_pure_noise_has_zero_information(self, cluster_factory):
        cl = cluster_factory(3)
        rng = np.random.default_rng(10)
        y = rng.standard_normal(10)
        prob = _problem(cl, np.arange(10.0), y, [2.0], kernel="white",
                        pred=np.arange(10.0) + 0.5)
        mean, se = prob.predict(se_fit=True)
        np.testing.assert_allclose(mean, np.zeros(10), atol=1e-12)
        np.testing.assert_allclose(se, np.sqrt(2.0) * np.ones(10), atol=1e-12)

    @pytest.mark.parametrize("P,h", [(1, 1), (3, 2), (6, 1)])
    def test_random_problem_vs_serial_kriging(self, cluster_factory, P, h):
        cl = cluster_factory(P)
        rng = np.random.default_rng(11)
        coords = np.sort(rng.uniform(0, 10, 40))
        pred = np.linspace(0.5, 9.5, 7)
        theta = np.array([1.5, 2.0, 0.1])
        y = np.linalg.cholesky(exp_cov(coords, *theta)) \
            @ rng.standard_normal(40)
        prob = _problem(cl, coords, y, theta, pred=pred, h=h)
        want_mean, want_Sigma = self._kriging_oracle(coords, pred, y, theta)
        mean, se = prob.predict(se_fit=True)
        assert relerr(mean, want_mean) <= 1e-8
        assert relerr(se, np.sqrt(np.diag(want_Sigma))) <= 1e-8
        PV = prob.prediction_variance()
        assert relerr(PV, want_Sigma) <= 1e-8
        assert relerr(np.diag(PV), se ** 2) <= 1e-12  # posterior consistency

    def test_single_prediction_point_consistency(self, cluster_factory):
        cl = cluster_factory(1)
        rng = np.random.default_rng(12)
        coords = np.sort(rng.uniform(0, 5, 8))
        theta = np.array([1.0, 1.0, 0.3])
        y = rng.standard_normal(8)
        prob = _problem(cl, coords, y, theta, pred=np.array([2.5]))
        _, se = prob.predict(se_fit=True)
        PV = prob.prediction_variance()
        assert PV.shape == (1, 1)
        assert abs(PV[0, 0] - se[0] ** 2) <= 1e-12

    def test_zero_cross_cov_posterior_equals_prior(self, cluster_factory):
        cl = cluster_factory(3)
        y = np.random.default_rng(13).standard_normal(6)
        prob = _problem(cl, np.arange(6.0), y, [3.0], kernel="white",
                        pred=np.arange(6.0) + 0.3)
        PV = prob.prediction_variance()
        np.testing.assert_allclose(PV, 3.0 * np.eye(6), atol=1e-12)

    def test_prior_variance_from_prediction_covariance(self, cluster_factory):
        # the prior variances are the diagonal of the prediction covariance:
        # se^2 = diag(C_pred) - diag(V^T V), on padded layouts on both sides
        cl = cluster_factory(3)
        rng = np.random.default_rng(15)
        coords = np.sort(rng.uniform(0, 10, 17))
        pred = np.linspace(0.5, 9.5, 7)
        theta = np.array([1.5, 2.0, 0.1])
        prob = KrigeProblem(cl, "t", builtin_spec("matern-nugget", coords,
                                                  pred),
                            rng.standard_normal(17), theta, m=7, h_n=2,
                            h_m=2, h_r=1)
        _, se = prob.predict(se_fit=True)
        V = distla.collect(cl, prob._V)
        np.testing.assert_allclose(se ** 2, theta[0] - (V * V).sum(axis=0),
                                   rtol=1e-13)
        for rank in range(1, 4):  # no m x m prediction covariance was kept
            assert set(cl.remote_ls(rank)) == {
                f"t.{suffix}" for suffix in ("inputs", "L", "u", "V")}

    def test_prior_variance_evaluates_diagonal_blocks_only(
            self, cluster_factory):
        cl = cluster_factory(3)
        rng = np.random.default_rng(15)
        coords = np.sort(rng.uniform(0, 10, 17))
        pred = np.linspace(0.5, 9.5, 13)
        spec = dataclasses.replace(
            builtin_spec("matern-nugget", coords, pred),
            pred_cov_fn="test.counted.pred")
        prob = KrigeProblem(cl, "d", spec, rng.standard_normal(17),
                            [1.5, 2.0, 0.1], m=13, h_n=2, h_m=2, h_r=1)
        prob.predict()
        _PRED_CALLS.clear()
        prob.predict(se_fit=True)
        layout = prob.col_layout
        assert sorted(_PRED_CALLS) == sorted(
            (k.stop - k.start,) * 2 for k in map(layout.live,
                                                 range(1, layout.B + 1)))
        assert sum(a * b for a, b in _PRED_CALLS) <= 13 * layout.block_size

    def test_predict_without_grid_rejected(self, cluster_factory):
        cl = cluster_factory(1)
        prob = _problem(cl, [0.0, 1.0], [0.0, 0.0], [1.0], kernel="white")
        with pytest.raises(DimensionMismatch):
            prob.predict()


class TestNonZeroMean:
    """A coordinate- and theta-dependent mean against the dense formulas,
    on P=3 with padded layouts (n=17 in 4 blocks of 5, m=7 in 4 of 2)."""

    theta = np.array([1.5, 2.0, 0.1])

    def _setup(self, cl, mean_fn=_trend_obs, pred_mean_fn=_trend_pred):
        rng = np.random.default_rng(17)
        coords = np.sort(rng.uniform(0, 10, 17))
        pred = np.linspace(0.5, 9.5, 7)
        y = rng.standard_normal(17) + _trend(self.theta, coords)
        spec = dataclasses.replace(
            builtin_spec("matern-nugget", coords, pred),
            mean_fn=mean_fn, pred_mean_fn=pred_mean_fn)
        prob = KrigeProblem(cl, "t", spec, y, self.theta, m=7, h_n=2, h_m=2,
                            h_r=1)
        return prob, coords, pred, y

    def test_log_density_and_predicted_means(self, cluster_factory):
        prob, coords, pred, y = self._setup(cluster_factory(3))
        C = exp_cov(coords, *self.theta)
        resid = y - _trend(self.theta, coords)
        want = _serial_loglik(C, y, _trend(self.theta, coords))
        assert abs(prob.log_density() - want) / abs(want) <= 1e-12
        Cx = self.theta[0] * np.exp(
            -np.abs(coords[:, None] - pred[None, :]) / self.theta[1])
        want_mean = (_trend(self.theta, pred)
                     + Cx.T @ np.linalg.solve(C, resid))
        assert relerr(prob.predict(), want_mean) <= 1e-10

    def test_zero_noise_unconditional_returns_the_mean(self,
                                                       cluster_factory,
                                                       monkeypatch):
        _zero_draws(monkeypatch)
        prob, coords, _, _ = self._setup(cluster_factory(3))
        for _ in range(2):  # the repeat reuses the collected prior mean
            sims = prob.simulate_realizations(3, post=False)
            np.testing.assert_allclose(
                sims, np.repeat(_trend(self.theta, coords)[:, None], 3, 1),
                rtol=1e-14, atol=0)

    @staticmethod
    def _snapshot(prob):
        """The slot's theta and keys, and every rank's objects."""
        cl = prob.cluster
        return (prob._state.get("fp"), sorted(prob._state),
                [sorted(nm for nm in cl.remote_ls(rank) if nm.startswith("t."))
                 for rank in range(1, cl.P + 1)])

    @pytest.mark.parametrize("fault, error", [("raises", ValueError),
                                              ("wrong-shape",
                                               DimensionMismatch)])
    @pytest.mark.parametrize("which", ["mean_fn", "pred_mean_fn"])
    def test_failing_mean_changes_nothing(self, cluster_factory, which,
                                          fault, error):
        """The means are evaluated on the master before any worker object
        changes; at theta[0] > 5 this one fails."""
        good = {"mean_fn": _trend_obs, "pred_mean_fn": _trend_pred}[which]

        def mean(theta, inputs):
            if theta[0] <= 5:
                return good(theta, inputs)
            if fault == "raises":
                raise ValueError("no mean here")
            return np.zeros(3)
        cl = cluster_factory(3)
        prob, *_ = self._setup(cl, **{which: mean})
        bad = np.array([6.0, 2.0, 0.1])
        if which == "mean_fn":
            prob.simulate_realizations(2)
            call = lambda: prob.log_density(bad)  # noqa: E731
        else:
            prob.log_density(bad)
            call = prob.predict
        before = self._snapshot(prob)
        with pytest.raises(error):
            call()
        assert self._snapshot(prob) == before
        collectives = cl.stats["collectives"]
        prob.log_density()  # the slot's theta is still current
        assert cl.stats["collectives"] == collectives

    def test_bad_mean_or_y_fails_at_construction(self, cluster_factory):
        cl = cluster_factory(3)
        spec = builtin_spec("matern-nugget", np.arange(4.0), np.arange(2.0))
        for bad_spec, y, error in [
                (dataclasses.replace(spec, mean_fn="gen.zero"), np.zeros(4),
                 TypeError),
                (dataclasses.replace(spec, pred_mean_fn=np.zeros(2)),
                 np.zeros(4), TypeError),
                (spec, np.zeros((4, 1)), DimensionMismatch)]:
            with pytest.raises(error):
                KrigeProblem(cl, "t", bad_spec, y, self.theta, m=2)
        assert not [nm for nm in cl.remote_ls(1) if nm.startswith("t.")]

    @pytest.mark.slow
    def test_callable_mean_on_socket_backend(self, cluster_factory):
        results = []
        for backend in ("in-process", "multi-process-socket"):
            prob, *_ = self._setup(cluster_factory(3, backend=backend,
                                                   seed=4, blas_threads=1))
            results.append((prob.log_density(), *prob.predict(se_fit=True),
                            prob.simulate_realizations(3, post=False)))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


class TestSimulate:
    def _prob(self, cl, m=5, h=1):
        rng = np.random.default_rng(14)
        coords = np.sort(rng.uniform(0, 10, 20))
        pred = np.linspace(1, 9, m)
        theta = np.array([1.5, 2.0, 0.1])
        y = np.linalg.cholesky(exp_cov(coords, *theta)) \
            @ rng.standard_normal(20)
        return _problem(cl, coords, y, theta, pred=pred, h=h)

    def test_zero_noise_unconditional_returns_mean(self, cluster_factory,
                                                   monkeypatch):
        _zero_draws(monkeypatch)
        cl = cluster_factory(3)
        prob = self._prob(cl)
        sims = prob.simulate_realizations(3, post=False)
        np.testing.assert_allclose(sims, np.zeros((20, 3)), atol=1e-12)

    def test_zero_noise_conditional_returns_predictions(self, cluster_factory,
                                                        monkeypatch):
        _zero_draws(monkeypatch)
        cl = cluster_factory(3)
        prob = self._prob(cl)
        mean = prob.predict()
        sims = prob.simulate_realizations(2, post=True)
        np.testing.assert_allclose(
            sims, np.broadcast_to(mean[:, None], sims.shape), atol=1e-10)

    def test_deterministic_given_seed(self, cluster_factory):
        out = []
        for _ in range(2):
            cl = cluster_factory(3, seed=21)
            sims = self._prob(cl).simulate_realizations(4, post=True)
            out.append(sims.tobytes())
        assert out[0] == out[1]

    def test_non_positive_definite_posterior_keeps_the_block(
            self, cluster_factory):
        cl = cluster_factory(3)
        prob = self._prob(cl)
        prob.spec.pred_cov_fn = "test.zero.pred"
        with pytest.raises(NotPositiveDefinite) as info:
            prob.simulate_realizations(2, post=True)
        exc = info.value
        assert exc.detail == "posterior covariance not numerically PD"
        assert "posterior covariance not numerically PD" in str(exc)
        assert isinstance(exc.__cause__, NotPositiveDefinite)
        assert exc.block_index == exc.__cause__.block_index == 1
        for rank in range(1, cl.P + 1):
            assert cl.remote_ls(rank) == ["t.inputs"]

    def test_shapes(self, cluster_factory):
        cl = cluster_factory(3)
        prob = self._prob(cl, m=5)
        assert prob.simulate_realizations(7, post=False).shape == (20, 7)
        assert prob.simulate_realizations(7, post=True).shape == (5, 7)
        assert prob.simulate_realizations(np.int64(2)).shape == (5, 2)

    @pytest.mark.parametrize("r", [2.5, True, np.True_, "4", 0, -3, None])
    def test_r_must_be_a_positive_integer(self, cluster_factory, r):
        cl = cluster_factory(3)
        prob = self._prob(cl)
        issued = cl.stats["collectives"]
        with pytest.raises(DimensionMismatch, match="r must be an integer"):
            prob.simulate_realizations(r)
        assert cl.stats["collectives"] == issued


class TestBuiltinSpecs:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(DimensionMismatch):
            builtin_spec("cubic", [0.0])

    @pytest.mark.parametrize("kernel, coords, pred, inputs, error", [
        ("matern", 5, None, {"nu": 0.7}, UnsupportedSmoothness),
        ("matern-nugget", 5, 3, {"nu": 1.0}, UnsupportedSmoothness),
        ("matern-product-nugget", (5, 2), None, {"nu2": 3.5},
         UnsupportedSmoothness),
        ("matern-product-nugget", 5, None, {}, DimensionMismatch),
        ("matern-product-nugget", (5, 3), None, {}, DimensionMismatch),
        ("matern-product-nugget", (5, 2), 3, {}, DimensionMismatch),
        ("sqexp", (5, 2), (3, 1), {}, DimensionMismatch),
        ("white", 5, (3, 2), {}, DimensionMismatch),
    ])
    def test_inputs_checked_on_the_master(self, kernel, coords, pred, inputs,
                                          error):
        """Each of these failed only inside a generator on a worker, or
        built a model that ignored part of its inputs."""
        with pytest.raises(error):
            builtin_spec(kernel, np.zeros(coords),
                         None if pred is None else np.zeros(pred), **inputs)

    @pytest.mark.parametrize("n_y, m", [(10, 7), (12, 5), (12, 9)])
    def test_point_counts_checked_at_construction(self, cluster_factory,
                                                  n_y, m):
        # 12 observation and 7 prediction coordinates
        cl = cluster_factory(3)
        rng = np.random.default_rng(8)
        spec = builtin_spec("matern-nugget", rng.uniform(0, 5, 12),
                            rng.uniform(0, 5, 7))
        with pytest.raises(DimensionMismatch):
            KrigeProblem(cl, "t", spec, rng.standard_normal(n_y),
                         [1.0, 1.0, 0.1], m=m)
        assert not [nm for rank in range(1, 4) for nm in cl.remote_ls(rank)
                    if nm.startswith("t.")]

    def test_parameter_counts(self):
        assert BUILTIN_KERNELS == {"sqexp": 2, "matern": 2,
                                   "matern-nugget": 3,
                                   "matern-product-nugget": 4, "white": 1}

    def test_product_kernel_two_dimensional(self, cluster_factory):
        cl = cluster_factory(3)
        rng = np.random.default_rng(15)
        coords = rng.uniform(0, 5, (25, 2))
        theta = np.array([1.2, 2.0, 1.0, 0.15])
        d1 = np.abs(coords[:, None, 0] - coords[None, :, 0])
        d2 = np.abs(coords[:, None, 1] - coords[None, :, 1])
        C = theta[0] * (matern_correlation(d1, theta[1], 0.5)
                        * matern_correlation(d2, theta[2], 0.5)) \
            + theta[3] * np.eye(25)
        y = np.linalg.cholesky(C) @ rng.standard_normal(25)
        prob = _problem(cl, coords, y, theta, kernel="matern-product-nugget")
        want = _serial_loglik(C, y)
        assert abs(prob.log_density() - want) / abs(want) <= 1e-10

    def test_sqexp_kernel_loglik(self, cluster_factory):
        # points several length scales apart keep the no-nugget matrix
        # well conditioned
        cl = cluster_factory(1)
        rng = np.random.default_rng(16)
        coords = 4.0 * np.arange(12.0)
        d = np.abs(coords[:, None] - coords[None, :])
        C = 1.4 * np.exp(-0.5 * (d / 1.0) ** 2)
        y = rng.standard_normal(12)
        prob = _problem(cl, coords, y, [1.4, 1.0], kernel="sqexp")
        want = _serial_loglik(C, y)
        assert abs(prob.log_density() - want) / abs(want) <= 1e-10


@functools.lru_cache(maxsize=1)
def _ill_conditioned_sqexp():
    """(coords, pred, y, theta, log density, predicted mean): no-nugget
    sqexp with theta = (1, 0.25) on n = 2000 points uniform on [0, 10]^2
    (condition number about 1.9e9), m = 300 prediction points, y a draw
    from the model, and the dense scipy answers."""
    rng = np.random.default_rng(1)
    coords, pred = rng.uniform(0, 10, (2000, 2)), rng.uniform(0, 10, (300, 2))
    theta = np.array([1.0, 0.25])
    C = theta[0] * np.exp(-0.5 * (cdist(coords, coords) / theta[1]) ** 2)
    Cx = theta[0] * np.exp(-0.5 * (cdist(coords, pred) / theta[1]) ** 2)
    L = sla.cholesky(C, lower=True)
    y = L @ rng.standard_normal(len(coords))
    u = sla.solve_triangular(L, y, lower=True)
    ll = -0.5 * len(y) * LOG_2PI - np.sum(np.log(np.diag(L))) - 0.5 * u @ u
    mean = Cx.T @ sla.cho_solve((L, True), y)
    return coords, pred, y, theta, ll, mean


@pytest.mark.parametrize("h", [2, 4, 8])
def test_ill_conditioned_sqexp_matches_dense_scipy(cluster_factory, h):
    """Solves by the explicit inverse of each diagonal block are not
    backward stable in general; on the worst-conditioned built-in kernel
    the log density and the predicted mean must still match a dense
    factorization.  Measured: at most 3.2e-11 relative, and 6.0e-11 when
    the blocks were solved with dtrsm."""
    coords, pred, y, theta, ll, mean = _ill_conditioned_sqexp()
    cl = cluster_factory(3)
    prob = KrigeProblem(cl, "t", builtin_spec("sqexp", coords, pred), y,
                        theta, m=len(pred), h_n=h)
    assert abs(prob.log_density() - ll) / abs(ll) <= 1e-9
    assert relerr(prob.predict(), mean) <= 1e-9
