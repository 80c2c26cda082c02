"""Benchmark of the nqs_tfim package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ./src.
The seed makes the workload's inputs (see workloads.py). The benchmark
repeats rounds of one workload for S seconds, checks every output, prints
each metric with its unit and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. A full record with
provenance goes to perfbench/results/.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports per-layer call counts and self times per traced
round, and the tracing overhead.

BLAS thread variables are inherited as they are and recorded, never set.
"""

import time

START = time.perf_counter()     # setup_s is timed from here, before any import

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import provenance
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-L6", "train-L12", "exact-L12-L14")
SETUP_PROBES = 4    # extra interpreters that each time a full setup

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not every workload has them (no SR on
# exact-L12-L14, no energy error there, and failures are normally 0).
REPORTED = {
    "sr_iters_per_s": "1/s",
    "rel_energy_error": "1",
    "failed_fraction": "1",
}
TRACED_SELF = (
    "sr.optimize", "sr.solve_sr_system", "sr.local_energies",
    "rbm.log_psi_all", "rbm.log_derivatives_all", "hilbert.all_spins",
    "hilbert.parity_in_mask", "hamiltonian.matvec", "hamiltonian.dense_matrix",
    "exact.ground_states", "exact.infidelity", "cumulant.fwht",
    "cumulant.reconstruct", "cumulant.subset_orders", "cli.main",
    "experiments.load_config", "experiments.write_csv",
    "experiments.ResultIndex.flush", "experiments.run_degeneracy_study",
    "experiments.run_cumulant_analysis",
)
TRACED_CALLS = (
    "sr.solve_sr_system", "hilbert.parity_in_mask", "hamiltonian.matvec",
    "cumulant.fwht", "experiments.write_csv",
)
PER_LAYER = {
    **{f"{n}.self_s": "s" for n in TRACED_SELF},
    **{f"{n}.calls": "count" for n in TRACED_CALLS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "computed.s_build_flop_per_iter": "flop",
    "computed.o_matrix_bytes": "B",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print its setup time and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(name: str, seed: int, work_dir: Path):
    """Import the package from ./src and build the workload's inputs."""
    if not (ROOT / "src" / "nqs_tfim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads.WORKLOADS[name](seed, work_dir)


def probe_setup(args) -> float:
    """Setup time of a fresh interpreter doing the same setup."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class PeakRss:
    """Peak resident memory of this process plus all its descendants,
    sampled from /proc; at least this process's own ru_maxrss."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _tree(pid: int) -> list:
        out, todo = [pid], [pid]
        while todo:
            p = todo.pop()
            try:
                tids = os.listdir(f"/proc/{p}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    with open(f"/proc/{p}/task/{tid}/children") as fh:
                        kids = [int(k) for k in fh.read().split()]
                except OSError:
                    continue
                out += kids
                todo += kids
        return out

    @staticmethod
    def _rss_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def _run(self):
        me = os.getpid()
        while not self._stop.wait(self.interval):
            self.peak_kb = max(self.peak_kb, sum(map(self._rss_kb, self._tree(me))))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # kB on Linux
        return max(self.peak_kb, own) / 1024.0


def measure(workload, seconds: float, tracer=None):
    """Rounds until `seconds` have passed; with a tracer, every second round
    is traced and at least one round of each kind runs."""
    if tracer is not None:
        from nqs_tfim import (cli, cumulant, exact, experiments, hamiltonian,
                              hilbert, rbm, sr)
        modules = (hilbert, hamiltonian, rbm, sr, exact, cumulant, experiments, cli)
        dicts = (experiments.RUNNERS,)   # cli calls the runners through this dict
    rounds = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (tracer is not None and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            with tracer.installed(modules, dicts):
                rnd = workload.run_round()
        else:
            rnd = workload.run_round()
        rounds.append((traced, rnd))
    return rounds


def end_to_end(rounds, setup_samples, peak_mb) -> dict:
    """Medians over the untraced rounds; failures over all rounds. Inputs
    repeat every round, so the energy error is taken from the first."""
    plain = [r for traced, r in rounds if not traced]
    iters = [r.sr_iters / r.busy_s for r in plain if r.sr_iters]
    rel = plain[0].rel_errors
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r.busy_s for r in plain),
        "points_per_s": statistics.median(r.points / r.busy_s for r in plain),
        "peak_rss_mb": peak_mb,
        "sr_iters_per_s": statistics.median(iters) if iters else None,
        "rel_energy_error": statistics.median(rel) if rel else None,
        "failed_fraction": (sum(r.failed for _, r in rounds)
                            / sum(r.attempted for _, r in rounds)),
    }


def computed_counts(sr_size) -> dict:
    """S-build flops per SR iteration (one complex (n_var x 2^L) by
    (2^L x n_var) product) and bytes of the complex O matrix, alpha = 1."""
    if sr_size is None:
        return {"computed.s_build_flop_per_iter": 0, "computed.o_matrix_bytes": 0}
    dim, n_var = 1 << sr_size, 2 * sr_size + sr_size * sr_size
    return {"computed.s_build_flop_per_iter": 8 * dim * n_var ** 2,
            "computed.o_matrix_bytes": 16 * dim * n_var}


def per_layer(rounds, tracer, sr_size) -> dict:
    traced = [r.busy_s for t, r in rounds if t]
    plain = [r.busy_s for t, r in rounds if not t]
    stats = tracing.self_times(tracer.spans)
    out = {}
    for name in TRACED_SELF:
        out[f"{name}.self_s"] = stats.get(name, (0, 0.0))[1] / len(traced)
    for name in TRACED_CALLS:
        out[f"{name}.calls"] = stats.get(name, (0, 0.0))[0] / len(traced)
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out.update(computed_counts(sr_size))
    return {k: out[k] for k in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = setup(args.workload, args.seed, work_dir)
        own_setup = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_samples = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

        tracer = tracing.Tracer() if args.trace else None
        with PeakRss() as rss:
            rounds = measure(workload, args.seconds, tracer)
        e2e = end_to_end(rounds, setup_samples, rss.peak_mb)
        if args.trace:
            metrics = per_layer(rounds, tracer, workload.sr_size)
            units = PER_LAYER
        else:
            metrics = {k: e2e[k] for k in END_TO_END}
            units = END_TO_END
        attempted = sum(r.attempted for _, r in rounds)
        failed = sum(r.failed for _, r in rounds)

        record = {
            "provenance": provenance.record(ROOT, args.workload, args.seed),
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_samples_s": setup_samples,
            "rounds": [{"traced": t, "busy_s": r.busy_s, "points": r.points,
                        "sr_iters": r.sr_iters, "attempted": r.attempted,
                        "failed": r.failed, "errors": r.errors} for t, r in rounds],
            "end_to_end": e2e,
            "computed": computed_counts(workload.sr_size),
            "per_layer": metrics if args.trace else None,
        }
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if tracer is not None:
            names = sorted({s[0] for s in tracer.spans})
            ids = {n: i for i, n in enumerate(names)}
            (results / f"{stem}-spans.json").write_text(json.dumps({
                "names": names,
                "spans": [[ids[n], a, b, p] for n, a, b, p in tracer.spans],
            }))

        for name, unit in {**END_TO_END, **REPORTED}.items():
            print(f"{name:34s} {e2e[name]!s:>24} {unit}")
        if args.trace:
            for name, unit in PER_LAYER.items():
                print(f"{name:34s} {metrics[name]!s:>24} {unit}")
        prov = record["provenance"]
        print(f"rounds {len(rounds)}, nproc {prov['nproc']}, blas env "
              f"{ {k: v for k, v in prov['blas_env'].items() if v is not None} }, "
              f"openblas threads { {k: v['threads'] for k, v in prov['openblas'].items()} }")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
