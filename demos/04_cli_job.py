"""Driving batch jobs through the command-line interface.

Builds a config file plus CSV data in a scratch directory and runs the
loglik, fit, and predict commands end to end.

Run: python demos/04_cli_job.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from blockgp import cli

work = Path(tempfile.mkdtemp(prefix="blockgp-demo-"))
print(f"Scratch directory: {work}\n")

rng = np.random.default_rng(11)
coords = np.sort(rng.uniform(0, 10, 60))
y = np.sin(coords) + 0.15 * rng.standard_normal(60)

with open(work / "data.csv", "w") as f:
    f.write("x,y\n")
    for a, b in zip(coords, y):
        f.write(f"{float(a)!r},{float(b)!r}\n")
with open(work / "grid.csv", "w") as f:
    f.write("x\n")
    for a in np.linspace(0, 10, 25):
        f.write(f"{float(a)!r}\n")

(work / "job.cfg").write_text(f"""\
# kriging job: exponential kernel with nugget
workers   = 3
seed      = 5
kernel    = matern-nugget
theta0    = 1.0,2.0,0.1
data      = {work / 'data.csv'}
pred_grid = {work / 'grid.csv'}
""")

print("--- loglik at theta0 ---")
cli.main(["loglik", str(work / "job.cfg")])

print("\n--- fit (writes theta-hat and the evaluation trace) ---")
cli.main(["fit", str(work / "job.cfg"), f"out={work / 'fit.json'}"])
doc = json.loads((work / "fit.json").read_text())
print(f"fitted theta: {[round(t, 4) for t in doc['theta']]}, "
      f"{doc['n_evals']} evaluations")

print("\n--- predict at the fitted parameters ---")
theta = ",".join(repr(t) for t in doc["theta"])
cli.main(["predict", str(work / "job.cfg"), f"theta0={theta}",
          f"out={work / 'pred.csv'}", "se_fit=true"])

print(f"\nArtifacts: {sorted(p.name for p in work.iterdir())}")
