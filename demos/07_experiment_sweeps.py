"""Batch experiment drivers and their CSV outputs.

The same runners back the `nqs-tfim` command-line tool; calling them from
Python makes it easy to script custom sweeps. Everything is deterministic
given the master seed. Every run adds its record to index.json, and a
rerun of the same kind, key and master seed replaces its record in place.
"""

import json
import tempfile
from pathlib import Path

from nqs_tfim import experiments
from nqs_tfim.experiments import ExperimentConfig

out = Path(tempfile.mkdtemp(prefix="nqs_demo_"))

cfg = ExperimentConfig(
    kind="phase-diagram",
    L=[4, 6], lam=[0.5, 1.0, 1.5], theta=[0.0, "0.25pi", "0.5pi"],
    out_dir=str(out),
)
experiments.run_phase_diagram(cfg)

cfg = ExperimentConfig(
    kind="uniformity", L=[4], lam=[1.5], theta=[0.0, 0.2],
    eta=0.05, n_iter=150, n_realizations=2, seed=3, out_dir=str(out),
)
experiments.run_uniformity_sweep(cfg)

print(f"results in {out}:\n")
for p in sorted(out.iterdir()):
    print(f"  {p.name}")

index = json.loads((out / "index.json").read_text())
print(f"\nindex.json has {len(index)} records; the last one:")
print(json.dumps(index[-1], indent=2))

print("\nequivalent command lines:")
print("  nqs-tfim phase-diagram --profile ci --out results/")
print("  nqs-tfim uniformity --config my_sweep.yaml --seed 3")
