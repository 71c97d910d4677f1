"""Batch driver: run kriging jobs from a flat key=value config file.

One job per invocation; this process is the cluster master.  Commands:

  loglik      print the Gaussian log likelihood at theta0
  fit         maximize the likelihood, write theta-hat and the trace as JSON
  predict     write kriging means (and standard errors) as CSV
  simulate    write r realizations (conditional or unconditional) as CSV

Exit codes: 0 success, 2 configuration error, 3 numerical error (the
offending theta is echoed), 4 worker crash or backend failure.
"""

import argparse
import csv
import json
import sys

import numpy as np

from .errors import (BackendUnavailable, ClusterDown, ConfigError,
                     NonFiniteObjective, NotPositiveDefinite,
                     NotTriangularNumber, SingularDiagonal, WorkerFailure)
from .gp import BUILTIN_KERNELS, KrigeProblem, builtin_spec
from .transport import spawn

CONFIG_KEYS = """\
Config file format: one `key = value` per line; `#` starts a comment.

  workers       worker count P; must be a triangular number (default 3)
  backend       "in-process" (default) or "multi-process-socket"
  h             blocks per process-grid dimension (default: size heuristic)
  seed          master RNG seed, one deterministic stream per rank (default 0)
  kernel        one of: %s
  theta0        comma-separated positive parameters, e.g. "1.0,2.0,0.1"
  nu, nu1, nu2  Matern smoothness in {0.5, 1.5, 2.5} where the kernel uses it
  data          CSV of observations: input columns then a "y" column
  pred_grid     CSV of prediction points: the same input columns, no "y"
  out           output file (fit/predict/simulate)
  se_fit        predict: also write standard errors (true/false, default false)
  r             simulate: number of realizations (default 100)
  post          simulate: conditional on the data (true/false, default true)
  max_evals     fit: optimizer evaluation budget (default 500)
  blas_threads  socket backend only: BLAS threads per worker process
""" % ", ".join(sorted(BUILTIN_KERNELS))

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def parse_config(path, overrides=()):
    """Read the flat key=value file, then apply key=value overrides."""
    cfg = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


class _Config:
    """Typed access to the raw string map; every error names the key."""

    def __init__(self, raw):
        self.raw = raw

    def _get(self, key, cast, default):
        if key not in self.raw:
            if default is ...:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        try:
            return cast(self.raw[key])
        except (ValueError, KeyError) as exc:
            raise ConfigError(
                f"bad value for {key!r}: {self.raw[key]!r}") from exc

    def str(self, key, default=...):
        return self._get(key, str, default)

    def int(self, key, default=...):
        return self._get(key, int, default)

    def float(self, key, default=...):
        return self._get(key, float, default)

    def bool(self, key, default=...):
        return self._get(key, lambda s: _BOOL[s.lower()], default)

    def floats(self, key, default=...):
        return self._get(
            key, lambda s: [float(x) for x in s.split(",")], default)


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
    try:
        table = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric cell: {exc}") from exc
    if table.shape[1] != len(header):
        raise ConfigError(f"{path}: ragged rows")
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


def _spawn(cfg):
    return spawn(cfg.int("workers", 3),
                 backend=cfg.str("backend", "in-process"),
                 seed=cfg.int("seed", 0),
                 blas_threads=cfg.int("blas_threads", None))


def _make_problem(cluster, cfg, need_pred):
    kernel = cfg.str("kernel")
    if kernel not in BUILTIN_KERNELS:
        raise ConfigError(f"unknown kernel {kernel!r}; "
                          f"choose from {sorted(BUILTIN_KERNELS)}")
    theta0 = np.array(cfg.floats("theta0"))
    if theta0.size != BUILTIN_KERNELS[kernel]:
        raise ConfigError(f"kernel {kernel!r} takes {BUILTIN_KERNELS[kernel]} "
                          f"parameters, theta0 has {theta0.size}")
    if np.any(theta0 <= 0) or not np.all(np.isfinite(theta0)):
        raise ConfigError("theta0 entries must be finite and positive")
    coords, y = read_csv_table(cfg.str("data"), require_y=True)
    pred_coords, m = None, 0
    if need_pred:
        pred_coords, _ = read_csv_table(cfg.str("pred_grid"), require_y=False)
        m = len(pred_coords)
    extra = {k: cfg.float(k) for k in ("nu", "nu1", "nu2") if k in cfg.raw}
    spec = builtin_spec(kernel, coords, pred_coords, **extra)
    h = cfg.int("h", None)
    return KrigeProblem(cluster, "job", spec, y, theta0, m=m,
                        h_n=h, h_m=h, h_r=h)


def cmd_loglik(cluster, cfg):
    prob = _make_problem(cluster, cfg, need_pred=False)
    print(f"loglik {prob.log_density()!r}")


def cmd_fit(cluster, cfg):
    prob = _make_problem(cluster, cfg, need_pred=False)
    res = prob.optimize_log_dens(max_evals=cfg.int("max_evals", 500))
    doc = {"theta": list(res.theta),
           "log_density": res.log_density,
           "converged": res.converged,
           "n_evals": res.n_evals,
           "trace": [{"theta": list(t), "log_density": ll}
                     for t, ll in res.trace]}
    with open(cfg.str("out"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"fit theta {list(res.theta)} log_density {res.log_density!r}")


def cmd_predict(cluster, cfg):
    prob = _make_problem(cluster, cfg, need_pred=True)
    if cfg.bool("se_fit", False):
        mean, se = prob.predict(se_fit=True)
        write_csv(cfg.str("out"), ["mean", "se"], np.column_stack([mean, se]))
    else:
        mean = prob.predict()
        write_csv(cfg.str("out"), ["mean"], mean[:, None])
    print(f"predict wrote {len(mean)} rows to {cfg.str('out')}")


def cmd_simulate(cluster, cfg):
    prob = _make_problem(cluster, cfg, need_pred=cfg.bool("post", True))
    r = cfg.int("r", 100)
    sims = prob.simulate_realizations(r, post=cfg.bool("post", True))
    write_csv(cfg.str("out"), [f"sim{k}" for k in range(1, r + 1)], sims)
    print(f"simulate wrote {sims.shape[0]}x{sims.shape[1]} to {cfg.str('out')}")


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
        epilog=CONFIG_KEYS,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the key=value config file")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="config overrides applied after the file")
    args = parser.parse_args(argv)

    theta_echo = None
    cluster = None
    try:
        cfg = _Config(parse_config(args.config, args.overrides))
        theta_echo = cfg.raw.get("theta0")
        cluster = _spawn(cfg)
        COMMANDS[args.command](cluster, cfg)
        return 0
    except (ConfigError, NotTriangularNumber) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveDefinite, SingularDiagonal, NonFiniteObjective) as exc:
        print(f"numerical error at theta {theta_echo}: {exc}", file=sys.stderr)
        return 3
    except (WorkerFailure, BackendUnavailable, ClusterDown) as exc:
        print(f"cluster failure: {exc}", file=sys.stderr)
        return 4
    finally:
        if cluster is not None:
            cluster.shutdown()


if __name__ == "__main__":
    sys.exit(main())
