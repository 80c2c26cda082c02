"""Stochastic reconfiguration with exact full-Hilbert-space averages.

All expectation values are Born-weighted sums over the complete set of 2^L
configurations; there is no Monte Carlo sampling anywhere. Forces follow
f_k = <E_loc O*_k> - <E_loc><O*_k> and the quantum Fisher matrix is
S = <O* O> - <O*><O>; the update solves (S + eps*1) d = f and moves the
parameters by -eta*d (downhill).

The averages use the RBM's product structure instead of the (2^L, n_var)
log-derivative matrix O. With s_hat = [1, s_1..s_L] and
t_hat = [1, tanh theta_1..tanh theta_M], theta = s W + b, every
log-derivative is a product s_hat_i t_hat_a: a_i is the pair (i, 0), b_a is
(0, a), W_ia is (i, a), and (0, 0) is the constant 1. So

    <O*_(i,a) O_(j,b)> = sum_s p s_hat_i s_hat_j conj(t_hat_a) t_hat_b

is one real matrix product R^T G. R (2^L, P) holds s_hat_i s_hat_j for the
pair (0, 0) and i < j (s_hat_i^2 = 1, so (i, i) reads (0, 0)) and depends
only on L; G, complex and read as real, holds p conj(t_hat_a) t_hat_b for
a <= b; P = 1 + L(L+1)/2 and Q = (M+1)(M+2)/2, padded with zero columns to
a multiple of 8. S and <O> are read out of the (P, Q) result through a
fixed index map, conjugated where a > b. log Psi and tanh theta come from
one fused kernel (rbm.log_psi_and_tanh); then G is filled and R^T G summed
over blocks of rbm.ROW_BLOCK rows in a fixed order, so G takes
16 Q ROW_BLOCK bytes, not 16 Q 2^L, and the sums do not depend on the BLAS
thread count. The product costs 4 P Q 2^L flops, against 8 n_var^2 2^L for
the complex O^H O: at L = M = 12, 124 MFlop against 925, with R 2.6 MB and
G 0.8 MB, where O alone took 11 MB. The forces come from the small products
s_hat^T (p E_loc conj(t_hat)) over the same blocks, and the update from
LAPACK's zhesv. working_set_bytes estimates the memory of one iteration,
and optimize refuses a run that would not fit.
"""

import functools
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg.lapack

from . import hamiltonian, hilbert, rbm
from .hamiltonian import RotatedTfim, row
from .rbm import RbmParameters

SOLVE_RESIDUAL_TOL = 1e-10
DIVERGENCE_FACTOR = 1e3
ETA_SEARCH_RANGE = (1e-5, 1e-1)
# final energies this close (relative) to the lowest are ties
ENERGY_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SrConfig:
    eta: float = 0.02
    epsilon: float = 1e-4
    n_iter: int = 2000
    seed: int = 0
    alpha: float = 1.0
    init_scale: float = rbm.DEFAULT_INIT_SCALE

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


def _born_energy(h: RotatedTfim, lp: np.ndarray):
    """Born weights p, local energies, energy and variance of the state
    with log-amplitudes lp."""
    psi = np.exp(lp - np.max(lp.real))
    p = np.abs(psi) ** 2
    p /= p.sum()
    e_loc = local_energies(h, psi)
    # configurations of zero Born weight are left out of every sum, also
    # where |psi| is so small that E_loc overflowed
    e_loc[p == 0] = 0
    energy = complex(np.sum(p * e_loc))
    var = float(np.sum(p * np.abs(e_loc - energy) ** 2))
    return p, e_loc, energy, var


def _pairs(n: int, diagonal: bool = True):
    """Pairs i <= j of n factors in row-major order, and the symmetric
    (n, n) map from (i, j) to the pair's position. With diagonal False the
    pairs are (0, 0) and i < j, and every (i, i) maps to (0, 0): for spins,
    s_hat_i^2 = 1 = s_hat_0^2."""
    i, j = np.triu_indices(n)
    if not diagonal:
        keep = (i < j) | (i == 0)
        i, j = i[keep], j[keep]
    pos = np.zeros((n, n), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(len(i))
    return i, j, pos


def _in_parameter_order(grid: np.ndarray) -> np.ndarray:
    """Entries of an (L+1, M+1) grid over the factor pairs (i, a): the
    constant (0, 0), then a, b and W in the flat parameter order."""
    return np.concatenate([grid[:1, 0], grid[1:, 0], grid[0, 1:], grid[1:, 1:].ravel()])


def _g_columns(M: int) -> int:
    """Columns of G: the (M+1)(M+2)/2 hidden pairs, padded with zeros to a
    multiple of 8 (16 real columns). Unpadded, OpenBLAS's dgemm gave
    results that differed in the last bit between 1 and 2 threads for
    a third of the (L, M) tried; padded, it gave the same bits for all
    of them (L = 1..14, M from L/2 to 3L)."""
    return -(-(M + 1) * (M + 2) // 16) * 8


@functools.lru_cache(maxsize=2)
def _product_layout(L: int, M: int):
    """Read-only arrays fixed by (L, M): s_hat (2^L, L+1), R (2^L, P), and
    the (n_var+1, n_var+1) index into the flattened [moments; conj(moments)]
    of the (P, _g_columns(M)) moments R^T G that reads out <O*_k O_l>, with
    the constant (0, 0) first."""
    s_hat = np.ones((1 << L, L + 1))
    s_hat[:, 1:] = hilbert.all_spins(L)
    si, sj, s_pos = _pairs(L + 1, diagonal=False)
    r = s_hat[:, si] * s_hat[:, sj]
    _, _, t_pos = _pairs(M + 1)
    site, hidden = (_in_parameter_order(g) for g in np.indices((L + 1, M + 1)))
    n_q = _g_columns(M)
    readout = (s_pos[site[:, None], site] * n_q + t_pos[hidden[:, None], hidden]
               + len(si) * n_q * (hidden[:, None] > hidden))
    for arr in (s_hat, r, readout):
        arr.setflags(write=False)
    return s_hat, r, readout


def working_set_bytes(L: int, M: int) -> int:
    """Estimated bytes that one SR iteration at (L, M) holds at once. Per
    configuration: R, s_hat, tanh theta and log Psi, eight state vectors and
    the CSR matrix of H (at most 2L flip masks per row, 12 bytes each). Per
    row of one block: G, t_hat and p conj(t_hat), and the fused kernel's
    real temporaries (x and about 16 of hidden width)."""
    n_p = 1 + L * (L + 1) // 2
    per_row = 8 * n_p + 8 * (L + 1) + 16 * M + 16 + 8 * 16 + 2 * L * 12
    per_block_row = 16 * _g_columns(M) + 2 * 16 * (M + 1) + 18 * 8 * (M + 1)
    return (per_row << L) + per_block_row * min(1 << L, rbm.ROW_BLOCK)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _full_expectations(h: RotatedTfim, w: RbmParameters):
    M = w.M
    s_hat, r, readout = _product_layout(w.L, M)
    lp, t = rbm.log_psi_and_tanh(w, s_hat[:, 1:])
    p, e_loc, energy, var = _born_energy(h, lp)
    n_rows = min(len(p), rbm.ROW_BLOCK)
    t_hat = np.ones((n_rows, M + 1), dtype=complex)
    g = np.zeros((n_rows, _g_columns(M)), dtype=complex)
    moments = np.zeros((r.shape[1], 2 * g.shape[1]))
    y = np.zeros((w.L + 1, 2 * (M + 1)))
    for lo in range(0, len(p), n_rows):   # fixed block order
        rows = slice(lo, lo + n_rows)
        t_hat[:, 1:] = t[rows]
        pt = t_hat.conj()
        pt *= p[rows, None]
        col = 0
        for a in range(M + 1):   # the pairs (a, b >= a), in _pairs order
            np.multiply(pt[:, a:a + 1], t_hat[:, a:], out=g[:, col:col + M + 1 - a])
            col += M + 1 - a
        moments += r[rows].T @ g.view(np.float64)
        pt *= e_loc[rows, None]
        y += s_hat[rows].T @ pt.view(np.float64)
    moments = moments.view(complex)
    x = np.take(np.concatenate([moments, moments.conj()]), readout)
    o_mean = x[0, 1:]
    s_mat = x[1:, 1:] - np.outer(o_mean.conj(), o_mean)
    s_mat = (s_mat + s_mat.conj().T) / 2   # Hermitian bit for bit
    f = _in_parameter_order(y.view(complex))[1:] - energy * o_mean.conj()
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
    _, _, energy, var = _born_energy(h, rbm.log_psi_all(w))
    return energy, var


def solve_sr_system(s_mat: np.ndarray, f: np.ndarray, epsilon: float) -> np.ndarray:
    """Solve (S + eps*1) d = f by LAPACK's zhesv (Bunch-Kaufman).

    Raises RuntimeError if zhesv reports a singular matrix or the residual
    exceeds SOLVE_RESIDUAL_TOL relative to max(|f|, 1).
    """
    reg = s_mat + epsilon * np.eye(len(f))
    _, _, delta, info = scipy.linalg.lapack.zhesv(reg, f[:, None])
    if info != 0:
        raise RuntimeError(f"SR linear solve failed: zhesv info {info}")
    delta = delta[:, 0]
    res = np.linalg.norm(reg @ delta - f)
    scale = max(np.linalg.norm(f), 1.0)
    if res > SOLVE_RESIDUAL_TOL * scale:
        raise RuntimeError(f"SR linear solve residual {res:.2e} too large")
    return delta


def sr_step(w: RbmParameters, f: np.ndarray, s_mat: np.ndarray, cfg: SrConfig) -> RbmParameters:
    """One downhill update omega -> omega - eta * (S + eps)^-1 f."""
    delta = solve_sr_system(s_mat, f, cfg.epsilon)
    vec = w.to_vector() - cfg.eta * delta
    return RbmParameters.from_vector(vec, w.L, w.M)


def optimize(h: RotatedTfim, cfg: SrConfig, w0: RbmParameters | None = None) -> OptimizationTrace:
    """Run n_iter SR steps from a seeded random initialization.

    Raises MemoryError before allocating anything of size 2^L when
    working_set_bytes exceeds the machine's physical memory. Stops early,
    with converged False and an abort_reason, on a non-finite energy,
    variance, force or S entry, on divergence, or on a failed solve.
    """
    M = w0.M if w0 is not None else rbm.n_hidden(h.L, cfg.alpha)
    need, limit = working_set_bytes(h.L, M), _physical_memory_bytes()
    if need > limit:
        raise MemoryError(
            f"SR at L={h.L}, M={M} needs about {need:.3g} bytes, more than the "
            f"{limit:.3g} bytes of physical memory")
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
        if not (np.isfinite(var) and np.isfinite(f).all() and np.isfinite(s_mat).all()):
            abort = f"non-finite variance, forces or S at iteration {it}"
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


def _lowest(energies) -> int | None:
    """Index of the lowest finite energy, None if none is finite. Energies
    within ENERGY_TIE_RTOL (relative) of the lowest count as equal, and the
    first of them wins, so that a change in the last digits of the
    arithmetic does not change which run is chosen."""
    e = np.asarray(energies, dtype=float)
    finite = np.isfinite(e)
    if not finite.any():
        return None
    e_min = e[finite].min()
    return int(np.flatnonzero(finite & (e <= e_min + ENERGY_TIE_RTOL * abs(e_min)))[0])


def hyperparameter_search(h: RotatedTfim, trials: int, seed: int, base: SrConfig) -> TrialResult:
    """Random search over the learning rate, lowest final energy wins.

    eta is sampled uniformly in ETA_SEARCH_RANGE. Only converged trials with
    a finite final energy compete, ties within ENERGY_TIE_RTOL go to the
    first trial; RuntimeError if no trial competes.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    done = []
    failures = []
    for t in range(trials):
        eta = float(rng.uniform(*ETA_SEARCH_RANGE))
        cfg = replace(base, eta=eta, seed=derive_seed(seed, t))
        trace = optimize(h, cfg)
        if not trace.converged or not np.isfinite(trace.final_energy):
            failures.append((eta, trace.abort_reason or "non-finite final energy"))
            continue
        done.append(TrialResult(cfg, trace))
    best = _lowest([r.trace.final_energy.real for r in done])
    if best is None:
        raise RuntimeError(f"all {trials} trials diverged: {failures}")
    return done[best]


@dataclass(frozen=True)
class Realization:
    seed: int
    trace: OptimizationTrace
    state: np.ndarray
    energy: float


def multi_seed_run(h: RotatedTfim, cfg: SrConfig, n_realizations: int):
    """Independent restarts with seeds fanned out from cfg.seed.

    Returns (realizations, best) where best has the lowest finite final
    energy, the first one among ties within ENERGY_TIE_RTOL; RuntimeError if
    no realization ends finite.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    out = []
    for i in range(n_realizations):
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, i))
        trace = optimize(h, run_cfg)
        state = rbm.full_state_vector(trace.final_params)
        out.append(Realization(run_cfg.seed, trace, state, trace.final_energy.real))
    best = _lowest([r.energy for r in out])
    if best is None:
        raise RuntimeError(f"all {n_realizations} realizations ended non-finite")
    return out, out[best]
