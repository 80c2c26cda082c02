"""Batch experiment drivers: grids, deterministic seeds, CSV/JSON emission.

Each runner walks, in order, the grid of a range-checked ExperimentConfig:
an `itertools.product` of (L, lambda, theta, alpha) in which the axes a
kind does not sweep keep their first value. Point p gets seed
SeedSequence([master, p]) and its realization i SeedSequence([point_seed,
i]) (see sr.derive_seed). A point that raises is counted and logged as one
WARNING record with its traceback, "<kind> grid point (L, lambda, theta,
alpha) failed: <error>", and the sweep goes on. At the end the runner
writes tidy CSV files (the column schemas below are the interface; plotting
is out of scope) and appends to `index.json` one record per run, or one per
point that succeeded for cumulant and size-scaling.
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

from . import _blas, cumulant, exact, rbm, sr
from .hamiltonian import RotatedTfim
from .sr import SrConfig

log = logging.getLogger(__name__)


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
        if self.eta is None and self.search_trials < 1:
            raise ValueError("need either a fixed eta or search_trials >= 1 "
                             f"(config keys {FIELD_KEYS['eta']}, {FIELD_KEYS['search_trials']})")
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
            if not getattr(self, name):
                raise _out_of_range(name, "needs at least one value")
        for L, alpha in itertools.product(self.L, self.alpha):
            if not 1 <= L <= exact.SOLVER_MAX_SITES:
                raise _out_of_range("L", f"must be in [1, {exact.SOLVER_MAX_SITES}], got {L}")
            try:
                rbm.n_hidden(L, alpha)
            except ValueError as err:   # M < 1
                raise ValueError(f"{err} (config key {FIELD_KEYS['alpha']})") from err


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
    """Read a YAML experiment file (nested sections grid/rbm/sr/output)
    through YAML_FIELDS. Unknown keys and values that do not convert are
    errors that name the key (`grid.L`), and so is grid.theta for
    pi-compare, which always compares theta = 0 with theta = pi. Overrides
    that are not None replace config fields; ExperimentConfig range-checks
    every value and names the field and its YAML key."""
    with open(path) as fh:
        doc = yaml.safe_load(fh) or {}
    _check_keys(path, doc, TOP_KEYS)
    sections = {None: doc, **{name: doc.get(name) or {} for name in SECTION_KEYS}}
    for name in SECTION_KEYS:
        _check_keys(path, sections[name], SECTION_KEYS[name], f"{name}.")
    kind = kind or doc.get("kind")
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
    """The `rank, probability, sign` table of psi's Born weights, largest first."""
    return write_csv(path, ["rank", "probability", "sign"],
                     [[rank, prob, sign] for rank, (prob, sign)
                      in enumerate(exact.sorted_probabilities(psi))])


class ResultIndex:
    """Append-only run index stored as index.json in the output directory."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.path = self.out_dir / "index.json"
        self.records = []
        self.blas_threads = {name: get() for name, (_, get)
                             in _blas.openblas_libraries().items()}
        if self.path.exists():
            self.records = json.loads(self.path.read_text())

    def add(self, kind: str, key: dict, metrics: dict, artifacts: list, seed: int):
        """Append a record; its run_id depends only on the kind, the record's
        position and the key and master seed, so reruns repeat it. The
        record also holds the thread count each loaded OpenBLAS reported
        when this index was opened."""
        digest = hashlib.sha256(
            json.dumps([key, seed], sort_keys=True).encode()).hexdigest()
        self.records.append({
            "run_id": f"{kind}-{len(self.records)}-{digest[:12]}",
            "kind": kind,
            "key": key,
            "metrics": metrics,
            "artifacts": [str(a) for a in artifacts],
            "blas_threads": dict(self.blas_threads),
        })

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

def _sweep(cfg: ExperimentConfig, kind: str, points, solve):
    """Call solve(sr.derive_seed(cfg.seed, p), *point) at each grid point p in
    order; return the results of the points that succeeded and how many raised."""
    results, failures = [], 0
    for p, point in enumerate(points):
        try:
            results.append(solve(sr.derive_seed(cfg.seed, p), *point))
        except Exception as err:  # record and continue the sweep
            log.warning("%s grid point %s failed: %s", kind, point, err, exc_info=True)
            failures += 1
    return results, failures


def _write_run(cfg: ExperimentConfig, kind: str, tables, records):
    """Write each (file name, header, rows) table into the output directory,
    append one index record per (key, metrics, artifacts) with the tables'
    paths ahead of its own artifacts, and flush index.json."""
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    paths = [write_csv(out / name, header, rows) for name, header, rows in tables]
    for key, metrics, artifacts in records:
        index.add(kind, key, metrics, [*paths, *artifacts], cfg.seed)
    index.flush()


def _solve_and_train(cfg: ExperimentConfig, point_seed: int, k: int,
                     L: int, lam: float, theta: float, alpha: float):
    """ED for the k lowest states and n_realizations RBMs trained at one grid
    point, after a learning-rate search if search_trials is set; returns
    (summary, runs, best, eta)."""
    h = RotatedTfim(L, lam, theta)
    summary = exact.ground_states(h, k=k)
    base = SrConfig(eta=0.02 if cfg.eta is None else cfg.eta,   # the search sets eta if None
                    epsilon=cfg.epsilon, n_iter=cfg.n_iter, seed=point_seed,
                    alpha=alpha, init_scale=cfg.init_scale)
    if cfg.search_trials >= 1:
        search_base = replace(base, n_iter=cfg.search_n_iter or cfg.n_iter)
        best_trial = sr.hyperparameter_search(h, cfg.search_trials, point_seed, search_base)
        base = replace(base, eta=best_trial.config.eta)
    runs, best = sr.multi_seed_run(h, base, cfg.n_realizations)
    return summary, runs, best, base.eta


REALIZATION_COLUMNS = ["seed", "is_best", "E_var", "rel_energy_error", "infidelity"]


def _realization_columns(run, best, summary) -> list:
    """REALIZATION_COLUMNS of one trained run against the ED ground state."""
    return [run.seed, int(run is best), run.energy,
            exact.relative_energy_error(run.energy, summary.energies[0]),
            exact.infidelity(run.state, summary.states[:, 0])]


VARIATIONAL_REAL_TOL = 1e-3   # converged RBM states are real up to SR noise


def _safe_sign_average(psi, tol: float = exact.REAL_STATE_TOL) -> float:
    try:
        return exact.sign_average(psi, tol=tol)
    except ValueError:
        return float("nan")


# ---------------------------------------------------------------------------
# runners; each returns the number of failed grid points

def run_phase_diagram(cfg: ExperimentConfig) -> int:
    def point(seed, L, lam, theta, alpha):
        summary = exact.ground_states(RotatedTfim(L, lam, theta), k=2)
        return [L, lam, theta, summary.energies[0], summary.energies[1],
                summary.gap, int(summary.near_degenerate)]

    rows, failures = _sweep(cfg, "phase-diagram", itertools.product(
        cfg.L, cfg.lam, cfg.theta, cfg.alpha[:1]), point)
    _write_run(cfg, "phase-diagram", [
        ("phase_diagram.csv",
         ["L", "lambda", "theta", "E0", "E1", "gap", "near_degenerate"], rows),
    ], [({"L": cfg.L, "lambda": cfg.lam, "theta": cfg.theta},
         {"n_points": len(rows), "n_failures": failures}, [])])
    return failures


def run_degeneracy_study(cfg: ExperimentConfig) -> int:
    def point(seed, L, lam, theta, alpha):
        summary, runs, best, eta = _solve_and_train(cfg, seed, 2, L, lam, theta, alpha)
        psi, psi1 = summary.states[:, 0], summary.states[:, 1]
        plus, minus = exact.degenerate_superpositions(psi, psi1)
        real_rows = [[L, lam, theta, alpha, *_realization_columns(r, best, summary),
                      _safe_sign_average(r.state, tol=VARIATIONAL_REAL_TOL),
                      *(abs(np.vdot(v, r.state)) ** 2 for v in (psi, plus, minus))]
                     for r in runs]
        point_row = [L, lam, theta, summary.energies[0], summary.gap,
                     *map(_safe_sign_average, (psi, plus, minus)), eta]
        probs = _write_sorted_probabilities(Path(cfg.out_dir) / (
            f"sorted_probs_L{L}_lam{lam:g}_theta{theta:.6f}.csv"), psi)
        return point_row, real_rows, probs

    results, failures = _sweep(cfg, "degeneracy", itertools.product(
        cfg.L[:1], cfg.lam[:1], cfg.theta, cfg.alpha[:1]), point)
    _write_run(cfg, "degeneracy", [
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
        summary, runs, best, _ = _solve_and_train(cfg, seed, 1, L, lam, theta, alpha)
        rows = [[L, lam, theta, *_realization_columns(r, best, summary)] for r in runs]
        amps = _write_sorted_probabilities(
            Path(cfg.out_dir) / f"sorted_amplitudes_theta{theta:.6f}.csv", best.state)
        return theta, rows, amps, summary.energies[0], best.trace.final_params

    L, lam = cfg.L[0], cfg.lam[0]
    results, failures = _sweep(cfg, "pi-compare", itertools.product(
        [L], [lam], [0.0, np.pi], cfg.alpha[:1]), point)
    mapped_energy = float("nan")
    for theta, _, _, _, w in results:
        if theta == 0.0:
            w = functools.reduce(rbm.apply_pi_rotation, range(L), w)
            mapped_energy = sr.energy_and_variance(RotatedTfim(L, lam, np.pi), w)[0].real
    _write_run(cfg, "pi-compare", [
        ("pi_compare_realizations.csv", ["L", "lambda", "theta", *REALIZATION_COLUMNS],
         [row for _, rows, _, _, _ in results for row in rows]),
    ], [({"L": L, "lambda": lam},
         {"mapped_theta0_energy_on_Hpi": mapped_energy,
          # E0 of the last point that succeeded
          "exact_E0": results[-1][3] if results else None, "n_failures": failures},
         [amps for _, _, amps, _, _ in results])])
    return failures


def run_uniformity_sweep(cfg: ExperimentConfig) -> int:
    def point(seed, L, lam, theta, alpha):
        summary, runs, best, eta = _solve_and_train(cfg, seed, 2, L, lam, theta, alpha)
        sign_exact = _safe_sign_average(summary.states[:, 0])
        rows = [[L, lam, theta, alpha, *_realization_columns(r, best, summary), sign_exact]
                for r in runs]
        best_row = [L, lam, theta, alpha, *_realization_columns(best, best, summary)[2:],
                    sign_exact, summary.gap, eta]
        return rows, best_row

    results, failures = _sweep(cfg, "uniformity", itertools.product(
        cfg.L[:1], cfg.lam, cfg.theta, cfg.alpha[:1]), point)
    _write_run(cfg, "uniformity", [
        ("uniformity_realizations.csv",
         ["L", "lambda", "theta", "alpha", *REALIZATION_COLUMNS, "sign_exact"],
         [row for rows, _ in results for row in rows]),
        ("uniformity_best.csv",
         ["L", "lambda", "theta", "alpha", *REALIZATION_COLUMNS[2:],
          "sign_exact", "gap", "eta"], [row for _, row in results]),
    ], [({"L": cfg.L[0], "lambda": cfg.lam, "theta": cfg.theta},
         {"n_failures": failures}, [])])
    return failures


def _cumulant_point(cfg: ExperimentConfig, point_seed: int,
                    L: int, lam: float, theta: float, alpha: float):
    """Cumulant comparison at one grid point: writes the best RBM's checkpoint
    and the point's curve and coefficient tables; returns its index record."""
    out = Path(cfg.out_dir)
    summary, runs, best, eta = _solve_and_train(cfg, point_seed, 1, L, lam, theta, alpha)
    psi = summary.states[:, 0]
    key = {"L": L, "lambda": lam, "theta": theta, "alpha": alpha}

    tag = f"L{L}_lam{lam:g}_theta{theta:.6f}_alpha{alpha:g}"
    ns = cumulant.default_n_grid(L)
    exact_curve, rbm_curve = (cumulant.infidelity_curve(s, psi, ns) for s in (psi, best.state))
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
                     c_exact.c[mask].real, c_exact.c[mask].imag, abs(c_exact.c[mask]),
                     c_model.c[mask].real, c_model.c[mask].imag, abs(c_model.c[mask]),
                     rel_err[rank]] for rank, mask in enumerate(ranking)])
    ckpt = out / f"rbm_{tag}.json"
    ckpt.write_text(rbm.to_json(best.trace.final_params,
                                meta={**key, "seed": best.seed, "eta": eta}))
    *_, rel_energy_error, rbm_infidelity = _realization_columns(best, best, summary)
    return key, {"n_var": n_var, "eta": eta, "rbm_infidelity": rbm_infidelity,
                 "rel_energy_error": rel_energy_error}, [a1, a2, ckpt]


def run_cumulant_analysis(cfg: ExperimentConfig) -> int:
    records, failures = _sweep(cfg, "cumulant", itertools.product(
        cfg.L[:1], cfg.lam[:1], cfg.theta, cfg.alpha), functools.partial(_cumulant_point, cfg))
    _write_run(cfg, "cumulant", [], records)
    return failures


def run_size_scaling(cfg: ExperimentConfig) -> int:
    records, failures = _sweep(cfg, "size-scaling", itertools.product(
        cfg.L, cfg.lam[:1], cfg.theta, cfg.alpha[:1]), functools.partial(_cumulant_point, cfg))
    _write_run(cfg, "size-scaling", [], records)
    return failures


RUNNERS = {
    "phase-diagram": run_phase_diagram,
    "degeneracy": run_degeneracy_study,
    "pi-compare": run_pi_rotation_compare,
    "uniformity": run_uniformity_sweep,
    "cumulant": run_cumulant_analysis,
    "size-scaling": run_size_scaling,
}
KINDS = tuple(RUNNERS)
