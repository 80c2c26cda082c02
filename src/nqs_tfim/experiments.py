"""Batch experiment drivers: grids, deterministic seeds, CSV/JSON emission.

Each runner walks, in order, the grid of a range-checked ExperimentConfig:
an `itertools.product` of (L, lambda, theta, alpha). SWEPT_AXES names the
axes each kind sweeps; the config refuses a second value on any other
axis, so none is dropped, and a repeated value on any axis, so no point
runs twice. Point p gets seed SeedSequence([master, p]) and its
realization i SeedSequence([point_seed, i]) (see sr.derive_seed). A
training point solves ED for the two lowest states, then runs its search
trials, if any, and realizations through sr.run_all. A point that raises
is counted and logged as one WARNING record with its traceback, "<kind>
grid point (L, lambda, theta, alpha) failed: <error>", and the sweep goes
on. Per-point files (sorted probabilities or amplitudes, curves,
coefficients, checkpoints) are written as each point completes; at the end
the runner writes the aggregated CSV files (the column schemas below are
the interface; plotting is out of scope) and adds to `index.json` one
record per run, or one per point that succeeded for cumulant and
size-scaling; a rerun into the same directory replaces the records it
repeats. A metric of an undefined state is written as NaN; a sign average
is NaN only for the NaN state of an aborted run (`exact.sign_average`).
"""

import csv
import functools
import hashlib
import itertools
import json
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import _blas, cumulant, exact, hilbert, rbm, sr
from .hamiltonian import RotatedTfim
from .sr import SrConfig

log = logging.getLogger(__name__)

# libyaml's parser when PyYAML was built with it; both build the same documents
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass
class ExperimentConfig:
    kind: str
    L: list = field(default_factory=lambda: [8])
    lam: list = field(default_factory=lambda: [1.5])
    theta: list = field(default_factory=lambda: [0.0])   # radians or "0.25pi"
    alpha: list = field(default_factory=lambda: [1.0])
    init_scale: float = rbm.DEFAULT_INIT_SCALE
    eta: float | None = 0.02
    search_trials: int = 0
    search_n_iter: int | None = None   # shorter trial runs; None = n_iter
    epsilon: float = 1e-4
    n_iter: int = 300
    n_realizations: int = 3
    seed: int = 1
    out_dir: str = "results"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.theta = _expand_theta(self.theta)
        if (self.eta is None) == (self.search_trials < 1):
            raise ValueError("need either a fixed eta or search_trials >= 1, not both "
                             f"(config keys {FIELD_KEYS['eta']}, {FIELD_KEYS['search_trials']})")
        if self.search_n_iter is not None and self.search_trials < 1:
            raise ValueError(f"search_n_iter needs search_trials >= 1 (config keys "
                             f"{FIELD_KEYS['search_n_iter']}, {FIELD_KEYS['search_trials']})")
        for name in ("eta", "epsilon"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise _out_of_range(name, f"must be > 0, got {value}")
        for name, low in (("seed", 0), ("search_trials", 0), ("n_iter", 1),
                          ("n_realizations", 1), ("search_n_iter", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise _out_of_range(name, f"must be >= {low}, got {value}")
        for name in ("L", "lam", "theta", "alpha"):
            values = getattr(self, name)
            if not values:
                raise _out_of_range(name, "needs at least one value")
            if len(set(values)) < len(values):
                raise _out_of_range(name, f"repeats a value; each point runs once, got {values}")
            if len(values) > 1 and name not in SWEPT_AXES[self.kind]:
                raise _out_of_range(name, f"takes one value, since {self.kind} does not "
                                          f"sweep it; got {values}")
        for L, alpha in itertools.product(self.L, self.alpha):
            if not 1 <= L <= hilbert.MAX_SITES:
                raise _out_of_range("L", f"must be in [1, {hilbert.MAX_SITES}], got {L}")
            try:
                rbm.n_hidden(L, alpha)
            except ValueError as err:   # M < 1
                raise ValueError(f"{err} (config key {FIELD_KEYS['alpha']})") from err


# The config axes each kind sweeps (README, "swept axes"); every other axis
# holds one value. pi-compare sweeps none: it always runs theta = 0 and pi.
SWEPT_AXES = {
    "phase-diagram": ("L", "lam", "theta"),
    "degeneracy": ("theta",),
    "pi-compare": (),
    "uniformity": ("lam", "theta"),
    "cumulant": ("theta", "alpha"),
    "size-scaling": ("L", "theta"),
}


def _out_of_range(name: str, problem: str) -> ValueError:
    """The error for a field value out of range, naming its YAML key."""
    return ValueError(f"{name} {problem} (config key {FIELD_KEYS[name]})")


def _listed(convert):
    """Conversion of a list key: one scalar is read as a one-entry list."""
    return lambda v: [convert(x) for x in (v if isinstance(v, (list, tuple)) else [v])]


def _angle(v) -> float:
    """An angle given either in radians or as a string like '0.25pi'."""
    if isinstance(v, str) and v.strip().lower().endswith("pi"):
        return float(v.strip()[:-2] or 1.0) * np.pi
    return float(v)


_expand_theta = _listed(_angle)


# (section, key) in the YAML file -> (ExperimentConfig field, conversion); section
# None is the top level. A key the file leaves out keeps the field's default.
YAML_FIELDS = {
    (None, "seed"): ("seed", int),
    ("grid", "L"): ("L", _listed(int)),
    ("grid", "lambda"): ("lam", _listed(float)),
    ("grid", "theta"): ("theta", _expand_theta),
    ("rbm", "alpha"): ("alpha", _listed(float)),
    ("rbm", "init_scale"): ("init_scale", float),
    ("sr", "eta"): ("eta", lambda v: None if v in (None, "search") else float(v)),
    ("sr", "search_trials"): ("search_trials", int),
    ("sr", "search_n_iter"): ("search_n_iter", int),
    ("sr", "epsilon"): ("epsilon", float),
    ("sr", "n_iter"): ("n_iter", int),
    ("sr", "n_realizations"): ("n_realizations", int),
    ("output", "dir"): ("out_dir", str),
}
FIELD_KEYS = {name: f"{section}.{key}" if section else key
              for (section, key), (name, _) in YAML_FIELDS.items()}
SECTION_KEYS = {section: {k for s, k in YAML_FIELDS if s == section}
                for section, _ in YAML_FIELDS if section}
TOP_KEYS = {"kind", *(k for s, k in YAML_FIELDS if s is None), *SECTION_KEYS}


def _check_keys(path, section, known: set, prefix: str = ""):
    """Raise ValueError naming every key of `section` not in `known`."""
    if not isinstance(section, dict):
        where = prefix.rstrip(".") or "the document"
        raise ValueError(f"{path}: {where} must be a mapping, not {type(section).__name__}")
    unknown = sorted(prefix + str(key) for key in set(section) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {', '.join(unknown)}")


def _convert(path, section, key, convert, value):
    """convert(value), or a ValueError naming the key if that fails."""
    try:
        return convert(value)
    except (TypeError, ValueError) as err:
        name = f"{section}.{key}" if section else key
        raise ValueError(f"{path}: config key {name} cannot read {value!r}: {err}") from err


def load_config(path, kind: str | None = None, **overrides) -> ExperimentConfig:
    """Read a YAML experiment file (nested sections grid/rbm/sr/output),
    parsed by YAML_LOADER, through YAML_FIELDS. Unknown keys and values
    that do not convert are errors that name the key (`grid.L`), and so
    are grid.theta for pi-compare, which always compares theta = 0 with
    theta = pi, and a `kind` other than the one asked for. Overrides that
    are not None replace config fields; ExperimentConfig range-checks
    every value and names the field and its YAML key."""
    with open(path) as fh:
        doc = yaml.load(fh, Loader=YAML_LOADER) or {}
    _check_keys(path, doc, TOP_KEYS)
    sections = {None: doc, **{name: doc.get(name) or {} for name in SECTION_KEYS}}
    for name in SECTION_KEYS:
        _check_keys(path, sections[name], SECTION_KEYS[name], f"{name}.")
    named = doc.get("kind")
    if kind and named and named != kind:
        raise ValueError(f"{path}: config key kind is {named!r}, but the "
                         f"{kind} experiment was asked for")
    kind = kind or named
    if kind == "pi-compare" and "theta" in sections["grid"]:
        raise ValueError(f"{path}: pi-compare always runs theta in {{0, pi}}; "
                         "remove grid.theta")
    values = {name: _convert(path, section, key, convert, sections[section][key])
              for (section, key), (name, convert) in YAML_FIELDS.items()
              if key in sections[section]}
    values.update((key, val) for key, val in overrides.items() if val is not None)
    return ExperimentConfig(kind=kind, **values)


def default_config_path(kind: str, profile: str) -> Path:
    name = kind.replace("-", "_")
    return Path(__file__).parent / "configs" / f"{name}_{profile}.yaml"


# ---------------------------------------------------------------------------
# result emission

def write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_sorted_probabilities(path: Path, psi):
    """The `rank, probability, sign` table of psi's Born weights in ascending
    order: rank 0 is the smallest (`exact.sorted_probabilities`)."""
    return write_csv(path, ["rank", "probability", "sign"],
                     [[rank, prob, sign] for rank, (prob, sign)
                      in enumerate(exact.sorted_probabilities(psi))])


class ResultIndex:
    """Run index stored as index.json in the output directory: one record
    per kind, key and master seed."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.path = self.out_dir / "index.json"
        self.records = []
        self.blas_threads = _blas.thread_counts()
        if self.path.exists():
            self.records = json.loads(self.path.read_text())

    def add(self, kind: str, key: dict, metrics: dict, artifacts: list, seed: int):
        """Add a record, or replace in place the record of the same kind,
        key and master seed, whose files a rerun has just overwritten. Its
        run_id depends only on the kind, the record's position and a digest
        of the key and master seed, so a rerun repeats it. The record also
        holds the thread count each loaded OpenBLAS reported when this index
        was opened."""
        digest = hashlib.sha256(
            json.dumps([key, seed], sort_keys=True).encode()).hexdigest()[:12]
        pos = next((i for i, rec in enumerate(self.records)
                    if rec["kind"] == kind and rec["run_id"].endswith(f"-{digest}")),
                   len(self.records))
        record = {
            "run_id": f"{kind}-{pos}-{digest}",
            "kind": kind,
            "key": key,
            "metrics": metrics,
            "artifacts": [str(a) for a in artifacts],
            "blas_threads": dict(self.blas_threads),
        }
        self.records[pos:pos + 1] = [record]

    def flush(self):
        """Write index.json through a temp file and a rename, so a failed
        write leaves the previous index whole."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(self.records, indent=1))
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


# ---------------------------------------------------------------------------
# the grid-point pipeline

def _sweep(cfg: ExperimentConfig, solve):
    """Call solve(sr.derive_seed(cfg.seed, p), L, lam, theta, alpha) at each
    point p of the grid in order; return the results of the points that
    succeeded and how many raised. The grid is the product of the config's
    four axes, every axis cfg.kind does not sweep holding one value
    (SWEPT_AXES), and pi-compare's theta axis is (0, pi)."""
    kind = cfg.kind
    thetas = [0.0, np.pi] if kind == "pi-compare" else cfg.theta
    results, failures = [], 0
    for p, point in enumerate(itertools.product(cfg.L, cfg.lam, thetas, cfg.alpha)):
        try:
            results.append(solve(sr.derive_seed(cfg.seed, p), *point))
        except Exception as err:  # record and continue the sweep
            log.warning("%s grid point %s failed: %s", kind, point, err, exc_info=True)
            failures += 1
    return results, failures


def _write_run(cfg: ExperimentConfig, tables, records):
    """Write each (file name, header, rows) table into the output directory,
    add one index record of kind cfg.kind per (key, metrics, artifacts) with
    the tables' paths ahead of its own artifacts, and flush index.json."""
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    paths = [write_csv(out / name, header, rows) for name, header, rows in tables]
    for key, metrics, artifacts in records:
        index.add(cfg.kind, key, metrics, [*paths, *artifacts], cfg.seed)
    index.flush()


def _solve_and_train(cfg: ExperimentConfig, point_seed: int,
                     L: int, lam: float, theta: float, alpha: float):
    """ED for the two lowest states and n_realizations RBMs trained at one
    grid point, after a learning-rate search if search_trials is set;
    returns (summary, runs, best), sr.multi_seed_run's runs and best."""
    h = RotatedTfim(L, lam, theta)
    summary = exact.ground_states(h, k=2)
    base = SrConfig(eta=0.02 if cfg.eta is None else cfg.eta,   # the search sets eta if None
                    epsilon=cfg.epsilon, n_iter=cfg.n_iter, seed=point_seed,
                    alpha=alpha, init_scale=cfg.init_scale)
    if cfg.search_trials >= 1:
        search = replace(base, n_iter=cfg.search_n_iter or cfg.n_iter)
        base = replace(base, eta=sr.hyperparameter_search(h, cfg.search_trials, search).config.eta)
    runs, best = sr.multi_seed_run(h, base, cfg.n_realizations)
    return summary, runs, best


REALIZATION_COLUMNS = ["seed", "is_best", "E_var", "rel_energy_error", "infidelity"]


def _realization_columns(run, best, summary) -> list:
    """REALIZATION_COLUMNS of one trained run against the ED ground state."""
    return [run.seed, int(run is best), run.energy,
            exact.relative_energy_error(run.energy, summary.energies[0]),
            exact.infidelity(run.state, summary.states[:, 0])]


# ---------------------------------------------------------------------------
# runners; each returns the number of failed grid points

def run_phase_diagram(cfg: ExperimentConfig) -> int:
    def point(seed, L, lam, theta, alpha):
        summary = exact.ground_states(RotatedTfim(L, lam, theta), k=2)
        return [L, lam, theta, summary.energies[0], summary.energies[1],
                summary.gap, int(summary.near_degenerate)]

    rows, failures = _sweep(cfg, point)
    _write_run(cfg, [
        ("phase_diagram.csv",
         ["L", "lambda", "theta", "E0", "E1", "gap", "near_degenerate"], rows),
    ], [({"L": cfg.L, "lambda": cfg.lam, "theta": cfg.theta},
         {"n_points": len(rows), "n_failures": failures}, [])])
    return failures


def run_degeneracy_study(cfg: ExperimentConfig) -> int:
    def point(seed, L, lam, theta, alpha):
        summary, runs, best = _solve_and_train(cfg, seed, L, lam, theta, alpha)
        psi, psi1 = summary.states[:, 0], summary.states[:, 1]
        plus, minus = exact.degenerate_superpositions(psi, psi1)
        real_rows = [[L, lam, theta, alpha, *_realization_columns(r, best, summary),
                      exact.sign_average(r.state),
                      *(abs(exact.overlap(v, r.state)) ** 2 for v in (psi, plus, minus))]
                     for r in runs]
        point_row = [L, lam, theta, summary.energies[0], summary.gap,
                     *map(exact.sign_average, (psi, plus, minus)), best.config.eta]
        probs = _write_sorted_probabilities(Path(cfg.out_dir) / (
            f"sorted_probs_L{L}_lam{lam:g}_theta{theta:.6f}.csv"), psi)
        return point_row, real_rows, probs

    results, failures = _sweep(cfg, point)
    _write_run(cfg, [
        ("degeneracy_points.csv",
         ["L", "lambda", "theta", "E0", "gap", "sign_psi",
          "sign_plus", "sign_minus", "eta"], [row for row, _, _ in results]),
        ("degeneracy_realizations.csv",
         ["L", "lambda", "theta", "alpha", *REALIZATION_COLUMNS, "sign_rbm",
          "overlap2_psi", "overlap2_plus", "overlap2_minus"],
         [row for _, rows, _ in results for row in rows]),
    ], [({"L": cfg.L[0], "lambda": cfg.lam[0], "theta": cfg.theta},
         {"n_failures": failures}, [probs for _, _, probs in results])])
    return failures


def run_pi_rotation_compare(cfg: ExperimentConfig) -> int:
    def point(seed, L, lam, theta, alpha):
        summary, runs, best = _solve_and_train(cfg, seed, L, lam, theta, alpha)
        rows = [[L, lam, theta, *_realization_columns(r, best, summary)] for r in runs]
        amps = _write_sorted_probabilities(
            Path(cfg.out_dir) / f"sorted_amplitudes_theta{theta:.6f}.csv", best.state)
        return theta, rows, amps, summary.energies[0], best.trace.final_params

    L, lam = cfg.L[0], cfg.lam[0]
    results, failures = _sweep(cfg, point)
    mapped_energy = float("nan")
    for theta, _, _, _, w in results:
        if theta == 0.0:
            w = functools.reduce(rbm.apply_pi_rotation, range(L), w)
            mapped_energy = sr.energy_and_variance(RotatedTfim(L, lam, np.pi), w)[0].real
    _write_run(cfg, [
        ("pi_compare_realizations.csv", ["L", "lambda", "theta", *REALIZATION_COLUMNS],
         [row for _, rows, _, _, _ in results for row in rows]),
    ], [({"L": L, "lambda": lam},
         {"mapped_theta0_energy_on_Hpi": mapped_energy,
          # E0 of the last point that succeeded
          "exact_E0": results[-1][3] if results else float("nan"), "n_failures": failures},
         [amps for _, _, amps, _, _ in results])])
    return failures


def run_uniformity_sweep(cfg: ExperimentConfig) -> int:
    def point(seed, L, lam, theta, alpha):
        summary, runs, best = _solve_and_train(cfg, seed, L, lam, theta, alpha)
        sign_exact = exact.sign_average(summary.states[:, 0])
        rows = [[L, lam, theta, alpha, *_realization_columns(r, best, summary), sign_exact]
                for r in runs]
        best_row = [L, lam, theta, alpha, *_realization_columns(best, best, summary)[2:],
                    sign_exact, summary.gap, best.config.eta]
        return rows, best_row

    results, failures = _sweep(cfg, point)
    _write_run(cfg, [
        ("uniformity_realizations.csv",
         ["L", "lambda", "theta", "alpha", *REALIZATION_COLUMNS, "sign_exact"],
         [row for rows, _ in results for row in rows]),
        ("uniformity_best.csv",
         ["L", "lambda", "theta", "alpha", *REALIZATION_COLUMNS[2:],
          "sign_exact", "gap", "eta"], [row for _, row in results]),
    ], [({"L": cfg.L[0], "lambda": cfg.lam, "theta": cfg.theta},
         {"n_failures": failures}, [])])
    return failures


def run_cumulant_analysis(cfg: ExperimentConfig) -> int:
    """The cumulant and size-scaling runner; they differ only in the axes
    they sweep. At each grid point it writes the best RBM's checkpoint and
    the point's curve and coefficient tables, and adds one index record."""
    out = Path(cfg.out_dir)

    def point(seed, L, lam, theta, alpha):
        summary, _, best = _solve_and_train(cfg, seed, L, lam, theta, alpha)
        psi = summary.states[:, 0]
        key = {"L": L, "lambda": lam, "theta": theta, "alpha": alpha}

        tag = f"L{L}_lam{lam:g}_theta{theta:.6f}_alpha{alpha:g}"
        ns = cumulant.default_n_grid(L)
        exact_curve, rbm_curve = (cumulant.infidelity_curve(s, psi, ns)
                                  for s in (psi, best.state))
        n_var = best.trace.final_params.n_var

        c_exact, c_model = map(cumulant.cumulant_coefficients, (psi, best.state))
        ranking, rel_err = cumulant.coefficient_relative_errors(c_model, c_exact)
        orders = cumulant.subset_orders(L)

        a1 = write_csv(out / f"infidelity_curve_{tag}.csv",
                       ["N", "infidelity_exact_trunc", "infidelity_rbm_trunc", "n_var"],
                       [[n, ie, ir, n_var] for (n, ie), (_, ir) in zip(exact_curve, rbm_curve)])
        a2 = write_csv(out / f"coefficients_{tag}.csv",
                       ["rank", "bitmask", "order", "re_c_exact", "im_c_exact",
                        "abs_c_exact", "re_c_rbm", "im_c_rbm", "abs_c_rbm", "rel_error"],
                       [[rank, int(mask), int(orders[mask]),
                         c_exact[mask].real, c_exact[mask].imag, abs(c_exact[mask]),
                         c_model[mask].real, c_model[mask].imag, abs(c_model[mask]),
                         rel_err[rank]] for rank, mask in enumerate(ranking)])
        ckpt = out / f"rbm_{tag}.json"
        ckpt.write_text(rbm.to_json(best.trace.final_params,
                                    meta={**key, "seed": best.seed, "eta": best.config.eta}))
        *_, rel_energy_error, rbm_infidelity = _realization_columns(best, best, summary)
        return key, {"n_var": n_var, "eta": best.config.eta, "rbm_infidelity": rbm_infidelity,
                     "rel_energy_error": rel_energy_error}, [a1, a2, ckpt]

    records, failures = _sweep(cfg, point)
    _write_run(cfg, [], records)
    return failures


RUNNERS = {
    "phase-diagram": run_phase_diagram,
    "degeneracy": run_degeneracy_study,
    "pi-compare": run_pi_rotation_compare,
    "uniformity": run_uniformity_sweep,
    "cumulant": run_cumulant_analysis,
    "size-scaling": run_cumulant_analysis,
}
KINDS = tuple(RUNNERS)
