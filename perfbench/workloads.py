"""The benchmark's workloads: inputs made from a seed, one round of work
through the package's public API, and checks on every output.

A round is a fixed amount of work. The benchmark repeats rounds with the
same inputs until its time is up, so every round of a run should give the
same numbers. Only the package calls are timed (`Round.busy_s`); writing
inputs, reading outputs back and checking them are not.

Each workload class has a `name`, an `sr_size` (the chain length of its
SR problems, all at alpha = 1, or None without SR) and `run_round()`.

Why these three workloads:
- sweep-L6: many tiny SR problems (64 configurations, 48 parameters) run
  through `cli.main`, the only workload that exercises the config loader,
  the CSV / index.json writers and checkpoints. Small BLAS calls dominate,
  so BLAS thread overhead shows here.
- train-L12: one SR training at 4096 configurations and 168 parameters,
  flop- and memory-bound on the (2^L x n_var) log-derivative matrix, with
  no experiments or ED code.
- exact-L12-L14: exact diagonalization (dense solve at L=12, Lanczos at
  L=14) and the cumulant truncation curve; no SR. The one workload where
  two BLAS threads help.
"""

import contextlib
import csv
import io
import json
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from nqs_tfim import RotatedTfim, SrConfig, cli, cumulant, exact, sr

import oracle

ENERGY_TOL = 1e-9           # oracle agreement and variational slack
FULL_RECONSTRUCTION_TOL = 1e-10
# Upper limit on the best relative energy error after the fixed train-L12
# budget; at the parent commit it stays below about 0.03 over the theta range.
TRAIN_REL_ERROR_MAX = 0.05
ETA = 0.05
EPSILON = 1e-4
HALF_PI = 0.5 * np.pi


class CheckFailed(Exception):
    """An output of the package is wrong."""


def expect(condition, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Round:
    """What one round did: counted operations, timed work and outcomes."""
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    points: int = 0
    sr_iters: int = 0
    rel_errors: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count one operation; an exception or failed check marks it failed."""
        self.attempted += 1
        try:
            yield
        except Exception as err:   # a failing operation must not stop the run
            self.failed += 1
            self.errors.append(f"{what}: {err!r}")
            traceback.print_exc()

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy_s += time.perf_counter() - start


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _seed_from(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# sweep-L6

def sweep_inputs(seed: int) -> dict:
    """YAML documents for one degeneracy and one cumulant CLI run."""
    rng = np.random.default_rng([seed, 1])

    def doc(kind, thetas, lam):
        return {
            "kind": kind,
            "seed": _seed_from(rng),
            "grid": {"L": [6], "lambda": [lam], "theta": thetas},
            "rbm": {"alpha": [1.0], "init_scale": 0.01},
            "sr": {"eta": ETA, "epsilon": EPSILON, "n_iter": 25, "n_realizations": 2},
            "output": {"dir": "unused"},
        }

    thetas = sorted(float(t) for t in rng.uniform(0.0, HALF_PI, 2))
    return {
        "degeneracy": doc("degeneracy", thetas, 0.5),
        "cumulant": doc("cumulant", [float(rng.uniform(0.0, HALF_PI))], 1.5),
    }


class SweepL6:
    name = "sweep-L6"

    def __init__(self, seed: int, work_dir: Path):
        self.docs = sweep_inputs(seed)
        self.work_dir = work_dir
        self.configs = {}
        for kind, doc in self.docs.items():
            path = work_dir / f"{kind}.yaml"
            path.write_text(yaml.safe_dump(doc, sort_keys=False))
            self.configs[kind] = path
        self.sr_size = self.docs["degeneracy"]["grid"]["L"][0]

    def run_round(self) -> Round:
        rnd = Round()
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir))
        try:
            for kind, path in self.configs.items():
                with rnd.operation(f"cli {kind}"):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = rnd.timed(cli.main, [kind, "--config", str(path),
                                                    "--out", str(out / kind)])
                    expect(code == 0, f"cli {kind} exited {code}")
                    check = self._check_degeneracy if kind == "degeneracy" else self._check_cumulant
                    check(rnd, self.docs[kind], out / kind)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return rnd

    @staticmethod
    def _index(out: Path, kind: str) -> list:
        records = json.loads((out / "index.json").read_text())
        expect(isinstance(records, list) and records, "index.json holds no records")
        for rec in records:
            expect(rec["kind"] == kind, f"index.json record of kind {rec['kind']!r}")
            for artifact in rec["artifacts"]:
                expect(Path(artifact).is_file(), f"missing artifact {artifact}")
        return records

    def _check_degeneracy(self, rnd: Round, doc: dict, out: Path):
        grid, n_real = doc["grid"], doc["sr"]["n_realizations"]
        L, lam, thetas = grid["L"][0], grid["lambda"][0], grid["theta"]
        e0, _ = oracle.lowest_energies(L, lam)
        self._index(out, "degeneracy")
        points = _read_csv(out / "degeneracy_points.csv")
        expect(len(points) == len(thetas), f"{len(points)} points for {len(thetas)} angles")
        for row in points:
            expect(abs(float(row["E0"]) - e0) <= ENERGY_TOL,
                   f"degeneracy E0 {row['E0']} differs from the oracle {e0!r}")
        reals = _read_csv(out / "degeneracy_realizations.csv")
        expect(len(reals) == len(thetas) * n_real,
               f"{len(reals)} realizations for {len(thetas)} x {n_real}")
        for row in reals:
            expect(float(row["E_var"]) >= e0 - ENERGY_TOL,
                   f"E_var {row['E_var']} below the exact E0 {e0!r}")
            if row["is_best"] == "1":
                rnd.rel_errors.append(abs(float(row["E_var"]) - e0) / abs(e0))
        expect(len(list(out.glob("sorted_probs_*.csv"))) == len(thetas),
               "one sorted_probs file per angle expected")
        rnd.points += len(thetas)
        rnd.sr_iters += len(thetas) * n_real * doc["sr"]["n_iter"]

    def _check_cumulant(self, rnd: Round, doc: dict, out: Path):
        grid, n_real = doc["grid"], doc["sr"]["n_realizations"]
        L, thetas = grid["L"][0], grid["theta"]
        records = self._index(out, "cumulant")
        expect(len(records) == len(thetas), f"{len(records)} index records")
        for rec in records:
            rnd.rel_errors.append(float(rec["metrics"]["rel_energy_error"]))
        curves = sorted(out.glob("infidelity_curve_*.csv"))
        expect(len(curves) == len(thetas), "one infidelity curve per angle expected")
        for path in curves:
            rows = _read_csv(path)
            expect([int(r["N"]) for r in rows] == list(range(1, (1 << L) + 1)),
                   f"{path.name}: N column is not 1..2^L")
            full = float(rows[-1]["infidelity_exact_trunc"])
            expect(full < FULL_RECONSTRUCTION_TOL,
                   f"{path.name}: full reconstruction infidelity {full:.3e}")
        for path in out.glob("rbm_*.json"):
            expect(json.loads(path.read_text())["L"] == L, f"{path.name}: wrong L")
        rnd.points += len(thetas)
        rnd.sr_iters += len(thetas) * n_real * doc["sr"]["n_iter"]


# ---------------------------------------------------------------------------
# train-L12

def train_inputs(seed: int) -> dict:
    # Angles stay away from the stoquastic points 0 and pi/2.
    rng = np.random.default_rng([seed, 2])
    return {"L": 12, "lam": 1.5, "theta": float(rng.uniform(0.05 * np.pi, 0.45 * np.pi)),
            "seed": _seed_from(rng), "n_iter": 20, "n_real": 1}


class TrainL12:
    name = "train-L12"

    def __init__(self, seed: int, work_dir: Path):
        self.inputs = train_inputs(seed)
        self.sr_size = self.inputs["L"]
        self.e0, _ = oracle.lowest_energies(self.inputs["L"], self.inputs["lam"])
        self.first_best = None

    def run_round(self) -> Round:
        p = self.inputs
        rnd = Round()
        with rnd.operation("multi_seed_run"):
            cfg = SrConfig(eta=ETA, epsilon=EPSILON, n_iter=p["n_iter"], seed=p["seed"])
            runs, best = rnd.timed(
                lambda: sr.multi_seed_run(RotatedTfim(p["L"], p["lam"], p["theta"]),
                                          cfg, p["n_real"]))
            expect(len(runs) == p["n_real"], f"{len(runs)} realizations")
            for r in runs:
                expect(r.trace.converged, f"realization aborted: {r.trace.abort_reason}")
                expect(len(r.trace.energies) == p["n_iter"], "iterations missing")
                expect(r.energy >= self.e0 - ENERGY_TOL,
                       f"E_var {r.energy!r} below the exact E0 {self.e0!r}")
                expect(abs(np.linalg.norm(r.state) - 1.0) < 1e-12, "state not normalized")
                rnd.sr_iters += len(r.trace.energies)
            expect(best.energy == min(r.energy for r in runs), "best is not the lowest")
            rel = abs(best.energy - self.e0) / abs(self.e0)
            expect(rel <= TRAIN_REL_ERROR_MAX, f"relative energy error {rel:.3e}")
            if self.first_best is None:
                self.first_best = best.energy
            expect(abs(best.energy - self.first_best) <= ENERGY_TOL,
                   "same inputs gave a different best energy than the first round")
            rnd.rel_errors.append(rel)
            rnd.points += 1
        return rnd


# ---------------------------------------------------------------------------
# exact-L12-L14

def truncation_grid(L: int) -> np.ndarray:
    """About 200 log-spaced truncation sizes N in [1, 2^L]."""
    return np.unique(np.geomspace(1, 1 << L, 200).round().astype(int))


def exact_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {"lam": 1.5, "thetas": {L: float(rng.uniform(0.0, HALF_PI)) for L in (12, 14)}}


class ExactL12L14:
    name = "exact-L12-L14"
    sr_size = None

    def __init__(self, seed: int, work_dir: Path):
        self.inputs = exact_inputs(seed)

    def run_round(self) -> Round:
        lam = self.inputs["lam"]
        rnd = Round()
        for L, theta in self.inputs["thetas"].items():
            e0, e1 = oracle.lowest_energies(L, lam)
            psi = None
            with rnd.operation(f"ground_states L={L}"):
                spec = rnd.timed(lambda: exact.ground_states(RotatedTfim(L, lam, theta), k=2))
                for got, want in zip(spec.energies, (e0, e1)):
                    expect(abs(got - want) <= ENERGY_TOL,
                           f"L={L}: ED level {got!r} differs from the oracle {want!r}")
                expect(spec.states.shape == (1 << L, 2), "wrong eigenvector shape")
                psi = spec.states[:, 0]
            if psi is None:
                continue
            ns = truncation_grid(L)
            with rnd.operation(f"infidelity_curve L={L}"):
                curve = rnd.timed(cumulant.infidelity_curve, psi, psi, ns)
                expect([n for n, _ in curve] == ns.tolist(), "curve N values differ")
                values = np.array([v for _, v in curve])
                expect(np.all((values >= 0) & (values <= 1)), "infidelity outside [0, 1]")
                expect(values[-1] < FULL_RECONSTRUCTION_TOL,
                       f"L={L}: full reconstruction infidelity {values[-1]:.3e}")
                rnd.points += 1
        return rnd


WORKLOADS = {w.name: w for w in (SweepL6, TrainL12, ExactL12L14)}
