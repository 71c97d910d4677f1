"""blockgp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints the machine and BLAS setting, a table
of every metric with its unit, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics of an untraced run; `--trace 1` reports the per-layer
metrics of a separate traced run.  Exits 1 when any op misses the dense
oracle or a self-check fails, 2 when the library cannot be loaded.
"""

import os
import sys

# One BLAS thread per worker, fixed before numpy loads: with the default,
# each of the three in-process worker threads starts its own BLAS pool on a
# 2-core machine.  Socket workers get the same through blas_threads=1.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
# socket workers are started as `python -m blockgp...` and must find it too
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402

UNPINNED_NOTE = (
    "default BLAS threading (unpinned) measured loglik at n=2000, P=3, h=4 "
    "in-process with median 0.44-0.49 s (quartiles 0.38-0.61 s) against "
    "0.19 s with one thread: three worker threads each start 2 BLAS threads "
    "on 2 cores")


def machine_info(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "seed": seed,
            "note": UNPINNED_NOTE}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import blockgp  # noqa: F401
    except ImportError as exc:
        print(f"cannot load blockgp from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.CONFIGS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.CONFIGS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # capped fits end unconverged by design; keep that warning off the report
    logging.getLogger("blockgp.gp.problem").setLevel(logging.ERROR)

    print("machine:", json.dumps(machine_info(args.seed)))
    print("workload:", args.workload,
          json.dumps(workloads.CONFIGS[args.workload]))
    if args.trace:
        import traced
        metrics, rows, chk = traced.run(args.workload, args.seed,
                                        args.seconds)
    else:
        import endtoend
        metrics, rows, chk = endtoend.run(args.workload, args.seed,
                                          args.seconds)
    for name, (value, unit, *note) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {shown:>14s} {unit:8s} {' '.join(note)}")
    for what in chk.failures[:20]:
        print("FAILED:", what)
    result = {"correct": not chk.failures, "attempted": chk.attempted,
              "failed": len(chk.failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u, *_n) in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
