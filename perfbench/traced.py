"""Traced runs: the per-layer metrics of one workload.

One untraced pass and two traced passes run the same operations at the same
thetas, each pass on a fresh problem.  The per-layer numbers are the mean of
the two traced passes; the exact counts must repeat between them, and the
gap to the untraced pass is `trace.overhead_frac`.  On the socket backend the
traced passes run on a second cluster whose workers carry the probe, and one
log_density on an in-process cluster of the same (n, P, h) checks that the
relay moves exactly as many frames as the in-process backend moves messages.
"""

import os
import statistics
import time

import tracing
from probe import Probe
from tracing import DISTLA_METRICS, PHASES, Tracer, drain, spawn_probed
from workloads import (CONFIGS, P, SOCKET, Checker, Inputs, new_problem,
                       record_evals, run_fit, run_iteration, run_loglik, setup,
                       spawn)

# master_s plus the distla wall times must account for the traced op time
# within this fraction; what they miss is elementwise remote_apply work and
# what they count twice is master-side assembly inside distla.collect
COVERAGE_TOL = 0.10

UNITS = {"gp.kernels.gen_s": "s", "gp.kernels.entries_per_s": "1/s"}
UNITS.update({f"distla.{k}_s": "s" for k in DISTLA_METRICS})
UNITS.update({"distla.cholesky_gflops": "GFLOP/s"})
UNITS.update({f"distla.worker_busy_s.r{r}": "s" for r in range(1, P + 1)})
UNITS.update({"distla.imbalance": "ratio", "distla.cholesky.peak_blocks":
              "count", "distla.block_events": "count",
              "transport.collectives_per_op": "count"})
UNITS.update({f"transport.msgs.{ph}": "count" for ph in PHASES})
UNITS.update({f"transport.bytes.{ph}": "B" for ph in PHASES})
UNITS.update({"transport.recv_wait_s": "s",
              "transport.dispatch_overhead_s": "s",
              "transport.relay_frames": "count", "transport.relay_bytes": "B",
              "rng.normals_per_s": "1/s", "gp.problem.master_s": "s",
              "gp.problem.collectives_per_op": "count", "fit.evals": "count",
              "trace.overhead_frac": "ratio"})


def _op(name, cfg):
    """One op of the workload: fn(problem, theta) -> result."""
    if name == "fit-inproc":
        return lambda problem, theta: run_fit(problem, theta, cfg)
    if name == "predict-sim":
        return lambda problem, theta: run_iteration(problem, theta, cfg)
    return run_loglik


def _check(name, chk, result, what):
    if name == "predict-sim":
        chk.iteration(result, what)
    elif name == "loglik-socket":
        chk.loglik(result["theta"], result.get("error", result.get("ll")),
                   what)
    elif "error" in result:
        chk.fail(f"{what}: raised {result['error']!r}")
    else:
        for theta, ll in result["res"].trace:
            chk.check(ll != float("-inf"), f"{what}: not PD at {theta}")
            if ll != float("-inf"):
                chk.loglik(theta, ll, what)


def _pass(cluster, cfg, inputs, tracer, op, thetas, name):
    """One traced pass on a fresh problem; returns its raw records."""
    problem = new_problem(cluster, cfg, inputs, name)
    evals = []
    record_evals(problem, evals)
    tracer.trace_problem(problem)
    drain(cluster)
    cluster.drain_events()
    cluster.set_events(True)
    tracer.reset()
    c0 = cluster.stats["collectives"]
    results = [op(problem, theta) for theta in thetas]
    collectives = cluster.stats["collectives"] - c0
    cluster.set_events(False)
    ranks = drain(cluster)
    events = cluster.drain_events()
    spans = list(tracer.spans)
    units = len(evals) if name.startswith("fit") else len(thetas)
    metrics, exact, op_wall = tracing.layer_metrics(tracer, ranks, events,
                                                    units)
    coverage = metrics.pop("trace.coverage")
    metrics["gp.problem.collectives_per_op"] = collectives / units
    exact["gp.collectives"] = collectives
    exact["fit.evals"] = [r["res"].n_evals for r in results if "res" in r]
    metrics["fit.evals"] = (statistics.mean(exact["fit.evals"])
                            if exact["fit.evals"] else 0)
    exact["worker_msgs"] = sum(sum(r["msgs"].values()) for r in ranks)
    exact["relay_frames"] = tracer.relay["frames"]
    return {"results": results, "metrics": metrics, "exact": exact,
            "op_wall": op_wall, "coverage": coverage, "units": units,
            "spans": spans, "events": events}


def _inprocess_msgs(cfg, inputs, seed, theta):
    """Messages of one log_density on the in-process backend."""
    probe = Probe()
    probe.install()
    cluster = spawn(dict(cfg, backend="in-process"), seed)
    try:
        problem = new_problem(cluster, cfg, inputs, "relay-check")
        drain(cluster)
        problem.log_density(theta)
        return sum(sum(r["msgs"].values()) for r in drain(cluster))
    finally:
        cluster.shutdown()
        probe.uninstall()


def run(name, seed, seconds):
    """Returns (per-layer metrics, table rows, Checker)."""
    cfg = CONFIGS[name]
    inputs = Inputs(cfg, seed)
    socket = cfg["backend"] == SOCKET
    op = _op(name, cfg)
    probe = Probe()
    live = []
    try:
        plain, problem, _ = setup(cfg, inputs, seed, "plain")
        live.append(plain)
        op(problem, inputs.theta())  # warm-up
        if socket:
            traced, warm, _ = setup(cfg, inputs, seed, "warm",
                                    lambda c, s: spawn_probed(P, s))
            live.append(traced)
            op(warm, inputs.theta())
        else:
            traced = plain
        # untraced pass: as many ops as fit in a quarter of the run
        thetas, plain_s, results = [], [], []
        end = time.perf_counter() + seconds / 4.0
        while time.perf_counter() < end or len(thetas) < 2:
            thetas.append(inputs.theta())
            t0 = time.perf_counter()
            results.append(("untraced", op(problem, thetas[-1])))
            plain_s.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.trace_cluster(traced)
        if not socket:
            probe.install()
        try:
            with tracer.trace_distla():
                passes = [_pass(traced, cfg, inputs, tracer, op, thetas,
                                f"{name.split('-')[0]}{k}") for k in (1, 2)]
        finally:
            if not socket:
                probe.uninstall()
        relay_ref = (_inprocess_msgs(cfg, inputs, seed, thetas[0])
                     if socket else None)
    finally:
        for cluster in live:
            cluster.shutdown()

    with Checker(inputs, cfg) as chk:
        for label, r in results + [(f"traced pass {k}", r)
                                   for k, ps in enumerate(passes, 1)
                                   for r in ps["results"]]:
            _check(name, chk, r, label)
    a, b = passes
    chk.check(a["exact"] == b["exact"],
              f"exact counts differ between traced passes: {a['exact']} "
              f"vs {b['exact']}")
    metrics = {k: (v + b["metrics"][k]) / 2.0 for k, v in a["metrics"].items()}
    chk.check(a["exact"]["peak_over_bound"] == 0,
              "a Cholesky held more than h^2 + 4 blocks on one rank")
    coverage = statistics.mean(ps["coverage"] for ps in passes)
    chk.check(abs(coverage - 1.0) <= COVERAGE_TOL,
              f"traced layers cover {coverage:.3f} of the op time")
    if socket:
        for ps in passes:
            ex = ps["exact"]
            chk.check(ex["relay_frames"] == ex["worker_msgs"]
                      == relay_ref * ps["units"],
                      f"relay frames {ex['relay_frames']}, worker sends "
                      f"{ex['worker_msgs']}, in-process messages "
                      f"{relay_ref} x {ps['units']} ops")
    traced_s = statistics.mean(ps["op_wall"] for ps in passes)
    metrics["trace.overhead_frac"] = traced_s / sum(plain_s) - 1.0

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                        f"trace-{name}-seed{seed}.json")
    tracing.write_trace(path, [(ps["spans"], ps["events"]) for ps in passes])
    out = {k: (metrics[k], UNITS[k]) for k in UNITS}
    rows = dict(out)
    rows["trace.coverage"] = (coverage, "ratio",
                              f"must be within {COVERAGE_TOL} of 1")
    rows["ops_per_pass"] = (len(thetas), "count",
                            f"{a['units']} units per pass")
    rows["trace.file"] = (os.path.relpath(path), "path")
    return out, rows, chk
