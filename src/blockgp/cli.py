"""Batch driver: run kriging jobs from a flat key=value config file.

One job per invocation; this process is the cluster master.  Commands:

  loglik      print the Gaussian log likelihood at theta0
  fit         maximize the likelihood, write theta-hat and the trace as JSON
  predict     write kriging means (and standard errors) as CSV
  simulate    write r realizations (conditional or unconditional) as CSV

Exit codes: 0 success; 2 input error: an unreadable or malformed file, an
unknown key, a bad or missing value, or inputs the library rejects; 3
numerical error (theta0 is echoed); 4 worker crash or backend failure.
"""

import argparse
import csv
import json
import sys
import textwrap

import numpy as np

from .errors import (BackendUnavailable, ClusterDown, ConfigError,
                     DimensionMismatch, NonFiniteObjective,
                     NotPositiveDefinite, NotTriangularNumber,
                     SingularDiagonal, UnsupportedSmoothness, WorkerFailure)
from .gp import BUILTIN_KERNELS, KrigeProblem, builtin_spec
from .transport import spawn


def _bool(text):
    return {"true": True, "false": False, "1": True, "0": False,
            "yes": True, "no": False}[text.lower()]


def _floats(text):
    return [float(x) for x in text.split(",")]


REQUIRED = object()

# key -> (parser of its text, default text / None for unset / REQUIRED, help)
KEYS = {
    "workers": (int, "3", "worker count P; must be a triangular number"),
    "backend": (str, "in-process", '"in-process" or "multi-process-socket"'),
    "h": (int, None, "blocks per process-grid dimension, picked from the "
          "point count when unset"),
    "seed": (int, "0", "master RNG seed, one deterministic stream per rank"),
    "kernel": (str, REQUIRED, "one of: " + ", ".join(sorted(BUILTIN_KERNELS))),
    "theta0": (_floats, REQUIRED,
               'comma-separated positive parameters, e.g. "1.0,2.0,0.1"'),
    "nu": (float, "0.5", "matern, matern-nugget: smoothness 0.5, 1.5 or 2.5"),
    "nu1": (float, "0.5", "matern-product-nugget: smoothness along axis 1"),
    "nu2": (float, "0.5", "matern-product-nugget: smoothness along axis 2"),
    "data": (str, REQUIRED, 'CSV of observations: input columns, then "y"'),
    "pred_grid": (str, REQUIRED, "predict, simulate post=true: CSV of "
                  'prediction points, the input columns without "y"'),
    "out": (str, REQUIRED, "fit, predict, simulate: output file"),
    "se_fit": (_bool, "false", "predict: also write standard errors"),
    "r": (int, "100", "simulate: number of realizations"),
    "post": (_bool, "true", "simulate: conditional on the data"),
    "max_evals": (int, "500", "fit: optimizer evaluation budget"),
    "blas_threads": (int, None, "socket backend only: BLAS threads per "
                     "worker process, the BLAS library's choice when unset"),
}


def _shown(default):
    if default is REQUIRED:
        return "required"
    return "default unset" if default is None else f"default {default}"


KEYS_HELP = "\n".join(
    ["Config file format: one `key = value` per line; `#` starts a comment.",
     ""] + [textwrap.fill(f"{key:<13} {text} ({_shown(default)})", 79,
                          initial_indent="  ", subsequent_indent=" " * 16)
            for key, (_, default, text) in KEYS.items()])


class _Config(dict):
    """Parsed config values by key; a key not given reads as its default,
    and a required key not given raises ConfigError."""

    def __missing__(self, key):
        parse, default, _ = KEYS[key]
        if default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return None if default is None else parse(default)


def parse_config(path, overrides=()):
    """Read the flat key=value file, then apply key=value overrides; every
    key must be in KEYS and every value given must parse."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    items = [(f"{path}:{lineno}", line) for lineno, raw in enumerate(lines, 1)
             if (line := raw.split("#", 1)[0].strip())]
    items += [(f"override {item!r}", item) for item in overrides]
    cfg = _Config()
    for where, item in items:
        if "=" not in item:
            raise ConfigError(f"{where}: expected key = value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            cfg[key] = KEYS[key][0](value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: "
                              f"{value!r}") from exc
    return cfg


def read_csv_table(path, require_y):
    """Load a headered CSV; returns (coords, y) with y=None for grids."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path!r}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: need a header row and at least one row")
    header = [h.strip() for h in rows[0]]
    table = np.empty((len(rows) - 1, len(header)))
    for k, row in enumerate(rows[1:]):
        where = f"{path}:{k + 2}"
        if len(row) != len(header):
            raise ConfigError(f"{where}: ragged row: {len(row)} cells, "
                              f"header has {len(header)}")
        try:
            table[k] = [float(v) for v in row]
        except ValueError as exc:
            raise ConfigError(f"{where}: non-numeric cell: {exc}") from exc
        if not np.all(np.isfinite(table[k])):
            raise ConfigError(f"{where}: non-finite cell (nan or inf)")
    if require_y:
        if header[-1] != "y":
            raise ConfigError(f"{path}: last column must be 'y', "
                              f"got {header[-1]!r}")
        coords = table[:, :-1]
        y = table[:, -1]
    elif "y" in header:
        raise ConfigError(f"{path}: prediction grid must not have a 'y' column")
    else:
        coords, y = table, None
    if coords.shape[1] == 1:
        coords = coords[:, 0]
    return coords, y


def write_csv(path, header, rows):
    """Write floats with repr precision so the file re-parses exactly."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def _make_problem(cluster, cfg, need_pred):
    coords, y = read_csv_table(cfg["data"], require_y=True)
    pred_coords, m = None, 0
    if need_pred:
        pred_coords, _ = read_csv_table(cfg["pred_grid"], require_y=False)
        m = len(pred_coords)
    spec = builtin_spec(cfg["kernel"], coords, pred_coords, nu=cfg["nu"],
                        nu1=cfg["nu1"], nu2=cfg["nu2"])
    h = cfg["h"]
    return KrigeProblem(cluster, "job", spec, y, cfg["theta0"], m=m,
                        h_n=h, h_m=h, h_r=h)


def cmd_loglik(cluster, cfg):
    prob = _make_problem(cluster, cfg, need_pred=False)
    print(f"loglik {prob.log_density()!r}")


def cmd_fit(cluster, cfg):
    prob = _make_problem(cluster, cfg, need_pred=False)
    res = prob.optimize_log_dens(max_evals=cfg["max_evals"])
    doc = {"theta": res.theta.tolist(),
           "log_density": res.log_density,
           "converged": res.converged,
           "n_evals": res.n_evals,
           # a failed Cholesky's -inf is not JSON: written as null
           "trace": [{"theta": t.tolist(),
                      "log_density": ll if np.isfinite(ll) else None}
                     for t, ll in res.trace]}
    with open(cfg["out"], "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"fit theta {doc['theta']} log_density {res.log_density!r}")


def cmd_predict(cluster, cfg):
    prob = _make_problem(cluster, cfg, need_pred=True)
    if cfg["se_fit"]:
        mean, se = prob.predict(se_fit=True)
        write_csv(cfg["out"], ["mean", "se"], np.column_stack([mean, se]))
    else:
        mean = prob.predict()
        write_csv(cfg["out"], ["mean"], mean[:, None])
    print(f"predict wrote {len(mean)} rows to {cfg['out']}")


def cmd_simulate(cluster, cfg):
    post = cfg["post"]
    prob = _make_problem(cluster, cfg, need_pred=post)
    r = cfg["r"]
    sims = prob.simulate_realizations(r, post=post)
    write_csv(cfg["out"], [f"sim{k}" for k in range(1, r + 1)], sims)
    print(f"simulate wrote {sims.shape[0]}x{sims.shape[1]} to {cfg['out']}")


COMMANDS = {
    "loglik": cmd_loglik,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="blockgp",
        description=__doc__,
        epilog=KEYS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the key=value config file")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="config overrides applied after the file")
    args = parser.parse_args(argv)

    cluster = None
    try:
        cfg = parse_config(args.config, args.overrides)
        cluster = spawn(cfg["workers"], backend=cfg["backend"],
                        seed=cfg["seed"], blas_threads=cfg["blas_threads"])
        COMMANDS[args.command](cluster, cfg)
        return 0
    except (ConfigError, NotTriangularNumber, DimensionMismatch,
            UnsupportedSmoothness) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveDefinite, SingularDiagonal, NonFiniteObjective) as exc:
        theta = ",".join(map(repr, cfg["theta0"]))
        print(f"numerical error at theta {theta}: {exc}", file=sys.stderr)
        return 3
    except (WorkerFailure, BackendUnavailable, ClusterDown) as exc:
        print(f"cluster failure: {exc}", file=sys.stderr)
        return 4
    finally:
        if cluster is not None:
            cluster.shutdown()


if __name__ == "__main__":
    sys.exit(main())
