"""Batch experiment drivers: grids, deterministic seeds, CSV/JSON emission.

Each runner takes an ExperimentConfig, sweeps its physics grid, and writes
tidy CSV files plus an append-only `index.json` into the output directory.
Plotting is out of scope; the column schemas below are the interface.

Seed fan-out: grid point p gets seed SeedSequence([master, p]); realization
i within a point then gets SeedSequence([point_seed, i]) (see sr.derive_seed).
"""

import csv
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

KINDS = (
    "phase-diagram", "degeneracy", "pi-compare",
    "uniformity", "cumulant", "size-scaling",
)


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
        if self.eta is None and self.search_trials < 1:
            raise ValueError("need either a fixed eta or search_trials >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_iter", "n_realizations", "search_n_iter"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.theta = _expand_theta(self.theta)


def _expand_theta(values) -> list:
    """Angles given either as radians or as strings like '0.25pi'."""
    out = []
    for v in values:
        if isinstance(v, str):
            v = v.strip().lower()
            if v.endswith("pi"):
                v = float(v[:-2] or 1.0) * np.pi
            else:
                v = float(v)
        out.append(float(v))
    return out


SECTION_KEYS = {
    "grid": {"L", "lambda", "theta"},
    "rbm": {"alpha", "init_scale"},
    "sr": {"eta", "search_trials", "search_n_iter", "epsilon", "n_iter",
           "n_realizations"},
    "output": {"dir"},
}
TOP_KEYS = {"kind", "seed", *SECTION_KEYS}


def _check_keys(path, section, known: set, prefix: str = ""):
    """Raise ValueError naming every key of `section` not in `known`."""
    if not isinstance(section, dict):
        where = prefix.rstrip(".") or "the document"
        raise ValueError(f"{path}: {where} must be a mapping, not {type(section).__name__}")
    unknown = sorted(prefix + str(key) for key in set(section) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {', '.join(unknown)}")


def load_config(path, kind: str | None = None, **overrides) -> ExperimentConfig:
    """Read a YAML experiment file (nested sections grid/rbm/sr/output).

    Unknown keys are an error, and so is grid.theta for pi-compare, which
    always compares theta = 0 with theta = pi. Overrides that are not None
    replace config fields and are validated like them.
    """
    with open(path) as fh:
        doc = yaml.safe_load(fh) or {}
    _check_keys(path, doc, TOP_KEYS)
    sections = {name: doc.get(name) or {} for name in SECTION_KEYS}
    for name, section in sections.items():
        _check_keys(path, section, SECTION_KEYS[name], f"{name}.")
    grid, rbm_sec, sr_sec = sections["grid"], sections["rbm"], sections["sr"]
    kind = kind or doc.get("kind")
    if kind == "pi-compare" and "theta" in grid:
        raise ValueError(f"{path}: pi-compare always runs theta in {{0, pi}}; "
                         "remove grid.theta")
    cfg = ExperimentConfig(
        kind=kind,
        L=[int(x) for x in grid.get("L", [8])],
        lam=[float(x) for x in grid.get("lambda", [1.5])],
        theta=grid.get("theta", [0.0]),
        alpha=[float(x) for x in np.atleast_1d(rbm_sec.get("alpha", [1.0]))],
        init_scale=float(rbm_sec.get("init_scale", rbm.DEFAULT_INIT_SCALE)),
        eta=(None if (raw_eta := sr_sec.get("eta", 0.02)) in (None, "search")
             else float(raw_eta)),
        search_trials=int(sr_sec.get("search_trials", 0)),
        search_n_iter=(int(sr_sec["search_n_iter"]) if "search_n_iter" in sr_sec else None),
        epsilon=float(sr_sec.get("epsilon", 1e-4)),
        n_iter=int(sr_sec.get("n_iter", 300)),
        n_realizations=int(sr_sec.get("n_realizations", 3)),
        seed=int(doc.get("seed", 1)),
        out_dir=str(sections["output"].get("dir", "results")),
    )
    return replace(cfg, **{key: val for key, val in overrides.items() if val is not None})


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
# shared training helper

def _train_point(h: RotatedTfim, cfg: ExperimentConfig, point_seed: int,
                 alpha: float):
    """Train n_realizations RBMs at one grid point; returns (runs, best, eta).

    If search_trials is set, a learning-rate search picks eta first.
    """
    base = SrConfig(
        eta=cfg.eta or 0.02, epsilon=cfg.epsilon, n_iter=cfg.n_iter,
        seed=point_seed, alpha=alpha, init_scale=cfg.init_scale,
    )
    if cfg.search_trials >= 1:
        search_base = replace(base, n_iter=cfg.search_n_iter or cfg.n_iter)
        best_trial = sr.hyperparameter_search(
            h, cfg.search_trials, point_seed, search_base)
        base = replace(base, eta=best_trial.config.eta)
    runs, best = sr.multi_seed_run(h, base, cfg.n_realizations)
    return runs, best, base.eta


VARIATIONAL_REAL_TOL = 1e-3   # converged RBM states are real up to SR noise


def _safe_sign_average(psi, tol: float = exact.REAL_STATE_TOL) -> float:
    try:
        return exact.sign_average(psi, tol=tol)
    except ValueError:
        return float("nan")


# ---------------------------------------------------------------------------
# runners; each returns the number of hard failures

def run_phase_diagram(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    rows, failures = [], 0
    for L in cfg.L:
        for lam in cfg.lam:
            for theta in cfg.theta:
                try:
                    summary = exact.ground_states(RotatedTfim(L, lam, theta), k=2)
                except Exception as err:  # record and continue the sweep
                    log.warning("grid point (%s, %s, %s) failed: %s", L, lam, theta, err,
                                exc_info=True)
                    failures += 1
                    continue
                rows.append([L, lam, theta, summary.energies[0],
                             summary.energies[1], summary.gap,
                             int(summary.near_degenerate)])
    path = write_csv(out / "phase_diagram.csv",
                     ["L", "lambda", "theta", "E0", "E1", "gap", "near_degenerate"],
                     rows)
    index.add("phase-diagram", {"L": cfg.L, "lambda": cfg.lam, "theta": cfg.theta},
              {"n_points": len(rows), "n_failures": failures}, [path], cfg.seed)
    index.flush()
    return failures


def run_degeneracy_study(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    L, lam, alpha = cfg.L[0], cfg.lam[0], cfg.alpha[0]
    point_rows, real_rows, artifacts = [], [], []
    failures = 0
    for p, theta in enumerate(cfg.theta):
        try:
            h = RotatedTfim(L, lam, theta)
            summary = exact.ground_states(h, k=2)
            runs, best, eta = _train_point(h, cfg, sr.derive_seed(cfg.seed, p), alpha)
        except Exception as err:
            log.warning("theta=%s failed: %s", theta, err, exc_info=True)
            failures += 1
            continue
        psi, psi1 = summary.states[:, 0], summary.states[:, 1]
        plus, minus = exact.degenerate_superpositions(psi, psi1)
        for r in runs:
            real_rows.append([
                L, lam, theta, alpha, r.seed, int(r is best),
                r.energy,
                exact.relative_energy_error(r.energy, summary.energies[0]),
                exact.infidelity(r.state, psi),
                _safe_sign_average(r.state, tol=VARIATIONAL_REAL_TOL),
                abs(np.vdot(psi, r.state)) ** 2,
                abs(np.vdot(plus, r.state)) ** 2,
                abs(np.vdot(minus, r.state)) ** 2,
            ])
        point_rows.append([
            L, lam, theta, summary.energies[0], summary.gap,
            _safe_sign_average(psi), _safe_sign_average(plus),
            _safe_sign_average(minus), eta,
        ])
        sorted_rows = []
        for rank, (prob, sign) in enumerate(exact.sorted_probabilities(psi)):
            sorted_rows.append([rank, prob, sign])
        artifacts.append(write_csv(
            out / f"sorted_probs_L{L}_lam{lam:g}_theta{theta:.6f}.csv",
            ["rank", "probability", "sign"], sorted_rows))
    a1 = write_csv(out / "degeneracy_points.csv",
                   ["L", "lambda", "theta", "E0", "gap", "sign_psi",
                    "sign_plus", "sign_minus", "eta"], point_rows)
    a2 = write_csv(out / "degeneracy_realizations.csv",
                   ["L", "lambda", "theta", "alpha", "seed", "is_best", "E_var",
                    "rel_energy_error", "infidelity", "sign_rbm",
                    "overlap2_psi", "overlap2_plus", "overlap2_minus"], real_rows)
    index.add("degeneracy", {"L": L, "lambda": lam, "theta": cfg.theta},
              {"n_failures": failures}, [a1, a2, *artifacts], cfg.seed)
    index.flush()
    return failures


def run_pi_rotation_compare(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    L, lam, alpha = cfg.L[0], cfg.lam[0], cfg.alpha[0]
    failures = 0
    real_rows, artifacts = [], []
    best_params = {}
    e0 = None
    for p, theta in enumerate([0.0, np.pi]):
        try:
            h = RotatedTfim(L, lam, theta)
            summary = exact.ground_states(h, k=1)
            runs, best, eta = _train_point(h, cfg, sr.derive_seed(cfg.seed, p), alpha)
        except Exception as err:
            log.warning("theta=%s failed: %s", theta, err, exc_info=True)
            failures += 1
            continue
        e0 = summary.energies[0]
        psi = summary.states[:, 0]
        best_params[theta] = best.trace.final_params
        for r in runs:
            real_rows.append([
                L, lam, theta, r.seed, int(r is best), r.energy,
                exact.relative_energy_error(r.energy, e0),
                exact.infidelity(r.state, psi),
            ])
        amp_rows = [[rank, prob, sign]
                    for rank, (prob, sign) in enumerate(exact.sorted_probabilities(best.state))]
        artifacts.append(write_csv(
            out / f"sorted_amplitudes_theta{theta:.6f}.csv",
            ["rank", "probability", "sign"], amp_rows))

    mapped_energy = float("nan")
    if 0.0 in best_params:
        w = best_params[0.0]
        for j in range(L):
            w = rbm.apply_pi_rotation(w, j)
        h_pi = RotatedTfim(L, lam, np.pi)
        mapped_energy, _ = sr.energy_and_variance(h_pi, w)
        mapped_energy = mapped_energy.real
    a1 = write_csv(out / "pi_compare_realizations.csv",
                   ["L", "lambda", "theta", "seed", "is_best", "E_var",
                    "rel_energy_error", "infidelity"], real_rows)
    index.add("pi-compare", {"L": L, "lambda": lam},
              {"mapped_theta0_energy_on_Hpi": mapped_energy,
               "exact_E0": e0, "n_failures": failures},
              [a1, *artifacts], cfg.seed)
    index.flush()
    return failures


def run_uniformity_sweep(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    L, alpha = cfg.L[0], cfg.alpha[0]
    rows, best_rows = [], []
    failures = 0
    for p, (lam, theta) in enumerate(itertools.product(cfg.lam, cfg.theta)):
        try:
            h = RotatedTfim(L, lam, theta)
            summary = exact.ground_states(h, k=2)
            runs, best, eta = _train_point(h, cfg, sr.derive_seed(cfg.seed, p), alpha)
        except Exception as err:
            log.warning("point (lam=%s, theta=%s) failed: %s", lam, theta, err,
                        exc_info=True)
            failures += 1
            continue
        psi = summary.states[:, 0]
        sign_exact = _safe_sign_average(psi)
        for r in runs:
            rows.append([L, lam, theta, alpha, r.seed, int(r is best),
                         r.energy,
                         exact.relative_energy_error(r.energy, summary.energies[0]),
                         exact.infidelity(r.state, psi), sign_exact])
        best_rows.append([L, lam, theta, alpha, best.energy,
                          exact.relative_energy_error(best.energy, summary.energies[0]),
                          exact.infidelity(best.state, psi),
                          sign_exact, summary.gap, eta])
    a1 = write_csv(out / "uniformity_realizations.csv",
                   ["L", "lambda", "theta", "alpha", "seed", "is_best", "E_var",
                    "rel_energy_error", "infidelity", "sign_exact"], rows)
    a2 = write_csv(out / "uniformity_best.csv",
                   ["L", "lambda", "theta", "alpha", "E_var", "rel_energy_error",
                    "infidelity", "sign_exact", "gap", "eta"], best_rows)
    index.add("uniformity", {"L": L, "lambda": cfg.lam, "theta": cfg.theta},
              {"n_failures": failures}, [a1, a2], cfg.seed)
    index.flush()
    return failures


def _cumulant_point(out, index, kind, cfg, L, lam, theta, alpha, point_seed):
    """Cumulant comparison at one (L, theta, alpha) point, indexed as `kind`."""
    h = RotatedTfim(L, lam, theta)
    summary = exact.ground_states(h, k=1)
    psi = summary.states[:, 0]
    runs, best, eta = _train_point(h, cfg, point_seed, alpha)

    tag = f"L{L}_lam{lam:g}_theta{theta:.6f}_alpha{alpha:g}"
    ckpt = out / f"rbm_{tag}.json"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    ckpt.write_text(rbm.to_json(
        best.trace.final_params,
        meta={"L": L, "lambda": lam, "theta": theta, "alpha": alpha,
              "seed": best.seed, "eta": eta}))

    ns = cumulant.default_n_grid(L)
    exact_curve = cumulant.infidelity_curve(psi, psi, ns)
    rbm_curve = cumulant.infidelity_curve(best.state, psi, ns)
    n_var = best.trace.final_params.n_var

    c_exact = cumulant.cumulant_coefficients(psi)
    c_model = cumulant.cumulant_coefficients(best.state)
    ranking, rel_err = cumulant.coefficient_relative_errors(c_model, c_exact)
    orders = cumulant.subset_orders(L)

    a1 = write_csv(out / f"infidelity_curve_{tag}.csv",
                   ["N", "infidelity_exact_trunc", "infidelity_rbm_trunc", "n_var"],
                   [[n, ie, ir, n_var] for (n, ie), (_, ir) in zip(exact_curve, rbm_curve)])
    coeff_rows = []
    for rank, mask in enumerate(ranking):
        coeff_rows.append([
            rank, int(mask), int(orders[mask]),
            c_exact.c[mask].real, c_exact.c[mask].imag, abs(c_exact.c[mask]),
            c_model.c[mask].real, c_model.c[mask].imag, abs(c_model.c[mask]),
            rel_err[rank],
        ])
    a2 = write_csv(out / f"coefficients_{tag}.csv",
                   ["rank", "bitmask", "order", "re_c_exact", "im_c_exact",
                    "abs_c_exact", "re_c_rbm", "im_c_rbm", "abs_c_rbm",
                    "rel_error"], coeff_rows)
    index.add(kind,
              {"L": L, "lambda": lam, "theta": theta, "alpha": alpha},
              {"n_var": n_var, "eta": eta,
               "rbm_infidelity": exact.infidelity(best.state, psi),
               "rel_energy_error": exact.relative_energy_error(
                   best.energy, summary.energies[0])},
              [a1, a2, ckpt], cfg.seed)


def run_cumulant_analysis(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    L, lam = cfg.L[0], cfg.lam[0]
    failures = 0
    p = 0
    for theta in cfg.theta:
        for alpha in cfg.alpha:
            try:
                _cumulant_point(out, index, "cumulant", cfg, L, lam, theta,
                                alpha, sr.derive_seed(cfg.seed, p))
            except Exception as err:
                log.warning("point (theta=%s, alpha=%s) failed: %s", theta, alpha, err,
                            exc_info=True)
                failures += 1
            p += 1
    index.flush()
    return failures


def run_size_scaling(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    index = ResultIndex(out)
    lam, alpha = cfg.lam[0], cfg.alpha[0]
    failures = 0
    p = 0
    for L in cfg.L:
        for theta in cfg.theta:
            try:
                _cumulant_point(out, index, "size-scaling", cfg, L, lam, theta,
                                alpha, sr.derive_seed(cfg.seed, p))
            except Exception as err:
                log.warning("point (L=%s, theta=%s) failed: %s", L, theta, err,
                            exc_info=True)
                failures += 1
            p += 1
    index.flush()
    return failures


RUNNERS = {
    "phase-diagram": run_phase_diagram,
    "degeneracy": run_degeneracy_study,
    "pi-compare": run_pi_rotation_compare,
    "uniformity": run_uniformity_sweep,
    "cumulant": run_cumulant_analysis,
    "size-scaling": run_size_scaling,
}
