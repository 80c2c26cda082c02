"""Stochastic reconfiguration with exact full-Hilbert-space averages.

All expectation values are Born-weighted sums over the complete set of 2^L
configurations; there is no Monte Carlo sampling anywhere. Forces follow
f_k = <E_loc O*_k> - <E_loc><O*_k> and the quantum Fisher matrix is
S = <O* O> - <O*><O>; the update solves (S + eps*1) d = f and moves the
parameters by -eta*d (downhill).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import hamiltonian, rbm
from .hamiltonian import RotatedTfim, row
from .rbm import RbmParameters

SOLVE_RESIDUAL_TOL = 1e-10
DIVERGENCE_FACTOR = 1e3
ETA_SEARCH_RANGE = (1e-5, 1e-1)


@dataclass(frozen=True)
class SrConfig:
    eta: float = 0.02
    epsilon: float = 1e-4
    n_iter: int = 2000
    seed: int = 0
    alpha: float = 1.0
    init_scale: float = rbm.DEFAULT_INIT_SCALE
    plain_gradient: bool = False   # debugging: S replaced by identity

    def __post_init__(self):
        if self.eta <= 0 or self.epsilon <= 0 or self.n_iter < 1:
            raise ValueError("need eta > 0, epsilon > 0, n_iter >= 1")


@dataclass(frozen=True)
class OptimizationTrace:
    energies: np.ndarray        # complex, per iteration
    variances: np.ndarray
    grad_norms: np.ndarray
    param_norms: np.ndarray
    final_params: RbmParameters
    converged: bool
    abort_reason: str | None = None

    @property
    def final_energy(self) -> complex:
        return complex(self.energies[-1])


def local_energies(h: RotatedTfim, psi: np.ndarray) -> np.ndarray:
    """E_loc(s) = sum_{s'} H_{ss'} psi(s')/psi(s) for every configuration.

    Configurations whose amplitude underflowed to zero get E_loc = 0; they
    carry zero Born weight but are flagged with a warning.
    """
    psi = np.asarray(psi, dtype=complex)
    num = hamiltonian.matvec(h, psi)
    zero = psi == 0
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} configurations with zero amplitude excluded "
            "from local energies", RuntimeWarning,
        )
    out = np.zeros(h.dim, dtype=complex)
    np.divide(num, psi, out=out, where=~zero)
    return out


def local_energy(h: RotatedTfim, w: RbmParameters, s: int) -> complex:
    """Local energy of a single configuration from amplitude ratios."""
    lp_s = rbm.log_psi(w, s)
    total = 0.0 + 0.0j
    for sp, amp in row(h, s):
        total += amp * np.exp(rbm.log_psi(w, sp) - lp_s)
    return complex(total)


def _born_energy(h: RotatedTfim, w: RbmParameters):
    """Born weights p, local energies, energy and variance of the RBM state."""
    lp = rbm.log_psi_all(w)
    psi = np.exp(lp - np.max(lp.real))
    p = np.abs(psi) ** 2
    p /= p.sum()
    e_loc = local_energies(h, psi)
    energy = complex(np.sum(p * e_loc))
    var = float(np.sum(p * np.abs(e_loc - energy) ** 2))
    return p, e_loc, energy, var


def _full_expectations(h: RotatedTfim, w: RbmParameters):
    p, e_loc, energy, var = _born_energy(h, w)
    o = rbm.log_derivatives_all(w)
    o_mean = p @ o
    f = (p * e_loc) @ o.conj() - energy * (p @ o.conj())
    s_mat = (o.conj() * p[:, None]).T @ o - np.outer(o_mean.conj(), o_mean)
    return energy, var, f, s_mat


def expectations(h: RotatedTfim, w: RbmParameters):
    """Exact (energy, forces, S-matrix) for the current parameters.

    p(s) = |psi(s)|^2 / sum |psi|^2; S is Hermitian positive semidefinite
    by construction.
    """
    energy, _, f, s_mat = _full_expectations(h, w)
    return energy, f, s_mat


def energy_and_variance(h: RotatedTfim, w: RbmParameters):
    """Exact (energy, variance of the local energy) for the parameters."""
    _, _, energy, var = _born_energy(h, w)
    return energy, var


def solve_sr_system(s_mat: np.ndarray, f: np.ndarray, epsilon: float) -> np.ndarray:
    """Solve (S + eps*1) d = f by a direct Hermitian solve.

    Raises RuntimeError if the residual exceeds SOLVE_RESIDUAL_TOL relative
    to max(|f|, 1).
    """
    reg = s_mat + epsilon * np.eye(len(f))
    delta = scipy.linalg.solve(reg, f, assume_a="her")
    res = np.linalg.norm(reg @ delta - f)
    scale = max(np.linalg.norm(f), 1.0)
    if res > SOLVE_RESIDUAL_TOL * scale:
        raise RuntimeError(f"SR linear solve residual {res:.2e} too large")
    return delta


def sr_step(w: RbmParameters, f: np.ndarray, s_mat: np.ndarray, cfg: SrConfig) -> RbmParameters:
    """One downhill update omega -> omega - eta * (S + eps)^-1 f."""
    if cfg.plain_gradient:
        delta = f / cfg.epsilon
    else:
        delta = solve_sr_system(s_mat, f, cfg.epsilon)
    vec = w.to_vector() - cfg.eta * delta
    return RbmParameters.from_vector(vec, w.L, w.M)


def optimize(h: RotatedTfim, cfg: SrConfig, w0: RbmParameters | None = None) -> OptimizationTrace:
    """Run n_iter SR steps from a seeded random initialization."""
    w = w0 if w0 is not None else rbm.init_random(h.L, cfg.alpha, cfg.seed, cfg.init_scale)
    energies = np.zeros(cfg.n_iter, dtype=complex)
    variances = np.zeros(cfg.n_iter)
    grad_norms = np.zeros(cfg.n_iter)
    param_norms = np.zeros(cfg.n_iter)
    e_init = None
    abort = None
    n_done = 0
    for it in range(cfg.n_iter):
        energy, var, f, s_mat = _full_expectations(h, w)
        energies[it] = energy
        variances[it] = var
        grad_norms[it] = float(np.linalg.norm(f))
        param_norms[it] = float(np.linalg.norm(w.to_vector()))
        n_done = it + 1
        if not np.isfinite(energy):
            abort = f"non-finite energy at iteration {it}"
            break
        if e_init is None:
            e_init = abs(energy)
        elif abs(energy) > DIVERGENCE_FACTOR * max(e_init, 1.0):
            abort = f"divergence guard tripped at iteration {it}"
            break
        try:
            w = sr_step(w, f, s_mat, cfg)
        except RuntimeError as err:
            abort = str(err)
            break
    return OptimizationTrace(
        energies[:n_done], variances[:n_done], grad_norms[:n_done],
        param_norms[:n_done], w, converged=abort is None, abort_reason=abort,
    )


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based fan-out: realization i uses SeedSequence([master, i])."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class TrialResult:
    config: SrConfig
    trace: OptimizationTrace


def hyperparameter_search(
    h: RotatedTfim, trials: int, seed: int, base: SrConfig,
    log_uniform: bool = False,
) -> TrialResult:
    """Random search over the learning rate, lowest final energy wins.

    Only converged trials with a finite final energy compete; RuntimeError
    if there is none.

    eta is sampled uniformly on a linear scale in [1e-5, 1e-1] (the
    log-uniform alternative is opt-in).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    lo, hi = ETA_SEARCH_RANGE
    best = None
    failures = []
    for t in range(trials):
        if log_uniform:
            eta = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        else:
            eta = float(rng.uniform(lo, hi))
        cfg = replace(base, eta=eta, seed=derive_seed(seed, t))
        trace = optimize(h, cfg)
        if not trace.converged or not np.isfinite(trace.final_energy):
            failures.append((eta, trace.abort_reason or "non-finite final energy"))
            continue
        if best is None or trace.final_energy.real < best.trace.final_energy.real:
            best = TrialResult(cfg, trace)
    if best is None:
        raise RuntimeError(f"all {trials} trials diverged: {failures}")
    return best


@dataclass(frozen=True)
class Realization:
    seed: int
    trace: OptimizationTrace
    state: np.ndarray
    energy: float


def multi_seed_run(h: RotatedTfim, cfg: SrConfig, n_realizations: int):
    """Independent restarts with seeds fanned out from cfg.seed.

    Returns (realizations, best) where best has the lowest finite final
    energy; RuntimeError if no realization ends finite.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    out = []
    for i in range(n_realizations):
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, i))
        trace = optimize(h, run_cfg)
        state = rbm.full_state_vector(trace.final_params)
        out.append(Realization(run_cfg.seed, trace, state, trace.final_energy.real))
    finite = [r for r in out if np.isfinite(r.energy)]
    if not finite:
        raise RuntimeError(f"all {n_realizations} realizations ended non-finite")
    return out, min(finite, key=lambda r: r.energy)
