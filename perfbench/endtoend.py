"""Untraced runs: the end-to-end metrics of one workload.

Each op is checked against the oracle as soon as it returns, outside its
timed region, so distributed and oracle times are sampled side by side.
"""

import time
from statistics import median

import numpy as np

from workloads import (CONFIGS, Checker, Inputs, checksum, peak_rss_mb,
                       record_evals, run_fit, run_iteration, run_loglik,
                       setup, steal_s, tail)


def _closed_loop(seconds, step):
    """Call step() until `seconds` have passed."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        step()


def _fit(live, cfg, inputs, seconds, chk):
    _cluster, problem = live[-1]
    evals, ll_s, fit_s, n_evals = [], [], [], []
    record_evals(problem, evals)

    def check_evals(timed):
        for theta, ll, t in evals:
            chk.loglik(theta, ll, "log_density")
            if timed and not isinstance(ll, Exception):
                ll_s.append(t)
        evals.clear()

    problem.log_density(inputs.theta())  # warm-up, checked but not timed
    check_evals(timed=False)
    chk.oracle_ll_s.clear()

    def step():
        fit = run_fit(problem, inputs.theta(), cfg)
        check_evals(timed=True)
        if "error" in fit:
            chk.fail(f"fit raised {fit['error']!r}")
            return
        chk.check(np.isfinite(fit["res"].log_density),
                  "fit: best log density not finite")
        fit_s.append(fit["t"])
        n_evals.append(fit["res"].n_evals)

    _closed_loop(seconds, step)
    return {"loglik_s": ll_s, "op_s": fit_s, "main_s": ll_s,
            "oracle_s": chk.oracle_ll_s,
            "extra": {"fit_s": (median(fit_s), "s"),
                      "fit.evals": (median(n_evals), "count")}}


def _predict(live, cfg, inputs, seconds, chk):
    (_ca, pa), (_cb, pb) = live
    timed, first, steps = [], [], [0]

    def step(warm=False):
        theta = inputs.theta()
        pair = [("A", pa), ("B", pb)]
        steps[0] += 1
        if steps[0] % 2:
            pair.reverse()  # neither problem always runs first
        out = {tag: run_iteration(prob, theta, cfg) for tag, prob in pair}
        a, b = out["A"], out["B"]
        chk.iteration(a, "iteration")
        if "error" in b:
            chk.fail(f"iteration (second run): raised {b['error']!r}")
        elif "error" not in a:
            # same seed, same call sequence: the two runs agree bit for bit
            chk.check(a["ll"] == b["ll"]
                      and np.array_equal(a["mean"], b["mean"])
                      and np.array_equal(a["se"], b["se"])
                      and checksum(a["sim"]) == checksum(b["sim"]),
                      "iteration: two runs at the same seed differ")
        if not first and "sim" in a:
            first.append(checksum(a["sim"]))
        if not warm:
            timed.extend(o for o in (a, b) if "error" not in o)

    step(warm=True)  # warm-up, checked but not timed
    chk.oracle_main_s.clear()
    _closed_loop(seconds, step)
    pred_s = [o["t_pred"] for o in timed]
    sim_s = [o["t_sim"] for o in timed]
    main_s = [o["t_pred"] + o["t_sim"] for o in timed]
    extra = {"sim.checksum": (first[0] if first else "-", "sha256",
                              "first draw, identical in both runs")}
    for name, xs in (("predict_s", pred_s), ("simulate_s", sim_s)):
        extra[name + ".p50"] = (median(xs), "s")
        extra[name + ".tail"] = _tail_entry(xs)
    return {"loglik_s": [o["t_ll"] for o in timed], "op_s": main_s,
            "main_s": main_s, "oracle_s": chk.oracle_main_s, "extra": extra}


def _loglik(live, cfg, inputs, seconds, chk):
    _cluster, problem = live[-1]
    ll_s = []

    def step(warm=False):
        r = run_loglik(problem, inputs.theta())
        chk.loglik(r["theta"], r.get("error", r.get("ll")), "log_density")
        if not warm and "error" not in r:
            ll_s.append(r["t"])

    step(warm=True)  # warm-up, checked but not timed
    chk.oracle_ll_s.clear()
    _closed_loop(seconds, step)
    return {"loglik_s": ll_s, "op_s": ll_s, "main_s": ll_s,
            "oracle_s": chk.oracle_ll_s, "extra": {}}


LOOPS = {"fit-inproc": _fit, "predict-sim": _predict,
         "loglik-socket": _loglik}


def _tail_entry(xs):
    value, pct = tail(xs)
    note = (f"p{pct:.0f} of {len(xs)}" if value is not None
            else f"n/a: {len(xs)} samples")
    return (value, "s", note)


def run(name, seed, seconds):
    """Returns (end-to-end metrics, table rows, Checker)."""
    cfg = CONFIGS[name]
    inputs = Inputs(cfg, seed)
    keep = 2 if name == "predict-sim" else 1  # two runs at the same seed
    live, setup_s = [], []
    with Checker(inputs, cfg) as chk:
        try:
            for k in range(cfg["setups"]):
                cluster, problem, dt = setup(cfg, inputs, seed, f"bench{k}")
                live.append((cluster, problem))
                setup_s.append(dt)
                while len(live) > keep:
                    live.pop(0)[0].shutdown()
            stolen = steal_s()
            s = LOOPS[name](live, cfg, inputs, seconds, chk)
            stolen = steal_s() - stolen
            rss = peak_rss_mb(exclude=(chk.pid,))
        finally:
            for cluster, _problem in live:
                cluster.shutdown()
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "loglik_s.p50": (median(s["loglik_s"]), "s"),
        "op_s.p50": (median(s["op_s"]), "s"),
        "oracle_ratio": (median(s["main_s"]) / median(s["oracle_s"]), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    rows = dict(metrics)
    rows["loglik_s.tail"] = _tail_entry(s["loglik_s"])
    rows["op_s.tail"] = _tail_entry(s["op_s"])
    rows.update(s["extra"])
    rows["oracle_s.p50"] = (median(s["oracle_s"]), "s")
    rows["steal_s"] = (stolen, "s", "vCPU time taken by the host in the loop")
    rows["failed_frac"] = (len(chk.failures) / max(chk.attempted, 1), "ratio",
                           f"{len(chk.failures)} of {chk.attempted} checks")
    return metrics, rows, chk
