"""Stochastic reconfiguration with exact full-Hilbert-space averages.

All expectation values are Born-weighted sums over the complete set of 2^L
configurations; there is no Monte Carlo sampling anywhere. Forces follow
f_k = <E_loc O*_k> - <E_loc><O*_k> and the quantum Fisher matrix is
S = <O* O> - <O*><O>; the update solves (S + eps*1) d = f and moves the
parameters by -eta*d (downhill), between consecutive parameter sets
only: the parameters optimize returns are the last set it evaluated.

The averages use the RBM's product structure instead of the (2^L, n_var)
log-derivative matrix O. With s_hat = [1, s_1..s_L] and
t_hat = [1, tanh theta_1..tanh theta_M], theta = s W + b, every
log-derivative is a product s_hat_i t_hat_a: a_i is the pair (i, 0), b_a is
(0, a), W_ia is (i, a), and (0, 0) is the constant 1. So

    <O*_(i,a) O_(j,b)> = sum_s s_hat_i s_hat_j p conj(t_hat_a) t_hat_b,
    <E_loc O*_(i,a)> = sum_s s_hat_i p E_loc conj(t_hat_a).

G (complex) holds the hidden factors of both, p conj(t_hat_a) t_hat_b for
a <= b and p E_loc conj(t_hat_a), in (M+1)(M+4)/2 rows padded with zeros to
a multiple of 8; its columns are the configurations of one block, so each
row fills with contiguous writes. log Psi and tanh theta come from one
fused kernel (rbm.log_psi_and_tanh_into), which writes t_hat hidden-major,
(M+1, 2^L), so that a block of G reads contiguous rows of t_hat; then G
is filled and summed over blocks of rbm.ROW_BLOCK = 2^9 rows in a fixed
order, so the sums do not
depend on the BLAS thread count. Inside a block only the LOW_SITES = 9
sites 0 .. 8 vary; the sites above are constant spins sigma_j(b) of the
block b. So the spin pairs split in three:

- both low, or the constant: R_low^T sum_b G_b, one real product after the
  loop, where R_low holds the 46 pairs (0, 0) and i < j of [1, s_1..s_9]
  (s_i^2 = 1, so (i, i) reads (0, 0));
- i low and j high: sum_b sigma_j(b) C_b[i], with C_b = s_low^T G_b the
  10 low factors summed over one block;
- both high: sum_b sigma_i(b) sigma_j(b) C_b[0].

The first block, where every high spin is -1, needs no C_b: sum_b C_b is
s_low^T sum_b G_b, the rows (0, i) of the first part, so the other blocks
are summed with the weights sigma_j + 1 and sigma_i sigma_j - 1, which
vanish on the first block, and the total is then subtracted or added.
Up to L = 9 there is one block and only the first part. S, <O> and f are
read out of the stacked moments through fixed index maps, conjugated where
a > b; S is made Hermitian bit for bit as (S + S^H) / 2. At L = M = 12 the
moments cost 40 MFlop per iteration (30 of them in the per-block C_b),
against 124 for the full product R^T G over all 1 + L(L+1)/2 pairs and 925
for the complex O^H O; G takes 0.85 MB for one block, and no array of 2^L
rows depends on the number of spin pairs. The update comes from LAPACK's
unblocked zhesv, on one copy of S + eps.

optimize checks working_set_bytes against physical memory, then allocates
one set of buffers (_Buffers: log Psi and t_hat for all configurations,
the kernel's workspace, G and its sum, the moment slots, S and the outer
product) and reuses it in every iteration, so an iteration allocates no
array of block or n_var^2 size other than that copy of S; the state
vectors of _born_energy (psi, p, E_loc) are still allocated per iteration.
The parameters stay in one flat vector that the RbmParameters of each
step views.

run_all is the one loop that runs optimize over a list of configs, one
Run (config, trace, final state) each; hyperparameter_search (trials) and
multi_seed_run (realizations) only build that list.
"""

import functools
import logging
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from . import hamiltonian, hilbert, rbm
from .hamiltonian import RotatedTfim
from .rbm import RbmParameters

SOLVE_RESIDUAL_TOL = 1e-10
DIVERGENCE_FACTOR = 1e3
ETA_SEARCH_RANGE = (1e-5, 1e-1)
# final energies this close (relative) to the lowest are ties
ENERGY_TIE_RTOL = 1e-12
# sites that vary inside one block of rbm.ROW_BLOCK rows
LOW_SITES = rbm.ROW_BLOCK.bit_length() - 1
log = logging.getLogger(__name__)


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
    final_params: RbmParameters   # the last set evaluated, whose energy is energies[-1]
    converged: bool               # the run did not abort; it tests no convergence
    abort_reason: str | None = None

    @property
    def final_energy(self) -> complex:
        return complex(self.energies[-1])


def local_energies(h: RotatedTfim, psi: np.ndarray) -> np.ndarray:
    """E_loc(s) = sum_{s'} H_{ss'} psi(s')/psi(s) for every configuration.

    Configurations whose amplitude underflowed to zero get E_loc = 0; they
    carry zero Born weight but are counted in a logged WARNING.
    """
    psi = np.asarray(psi, dtype=complex)
    num = hamiltonian.matvec(h, psi)
    zero = psi == 0
    if np.any(zero):
        log.warning("%d configurations with zero amplitude excluded from local energies",
                    int(zero.sum()))
    out = np.zeros(h.dim, dtype=complex)
    np.divide(num, psi, out=out, where=~zero)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _born_energy(h: RotatedTfim, lp: np.ndarray):
    """Born weights p, local energies, energy and variance of the state
    with log-amplitudes lp; raises no numpy warning."""
    psi = np.exp(lp - lp.real.max())
    p = np.abs(psi) ** 2
    p /= p.sum()
    e_loc = local_energies(h, psi)
    # configurations of zero Born weight are left out of every sum, also
    # where |psi| is so small that E_loc overflowed
    e_loc[p == 0] = 0
    energy = complex((p * e_loc).sum())
    var = float((p * np.abs(e_loc - energy) ** 2).sum())
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
    """Entries of an (L+1, M+1) grid over the factor pairs (i, a) for a, b
    and W, in the flat parameter order."""
    return np.concatenate([grid[1:, 0], grid[0, 1:], grid[1:, 1:].ravel()])


def _g_rows(M: int) -> int:
    """Rows of G: the (M+1)(M+2)/2 hidden pairs and the M+1 force factors,
    padded with zeros to a multiple of 8 (16 real columns of G^T). Unpadded,
    the moments differed in the last bit between 1 and 2 OpenBLAS threads
    for 10 of the 53 (L, M) tried (L = 1..14, M = L/2, L, 2L and 3L, up to
    2L from L = 13); padded, they were the same for all of them."""
    return -(-(M + 1) * (M + 4) // 16) * 8


class _Layout(NamedTuple):
    """Read-only arrays fixed by (L, M); see _product_layout."""
    s_hat: np.ndarray         # (2^L, L+1) spin factors [1, s_1..s_L]
    r_low: np.ndarray         # (block rows, P_low) low spin pairs of a block
    s_low: np.ndarray         # (block rows, LOW_SITES + 1) as complex numbers
    high_weights: np.ndarray  # (blocks, high sites) sigma_j + 1
    pair_weights: np.ndarray  # (blocks, high pairs) sigma_j sigma_k - 1, j < k
    readout: np.ndarray       # (n_var, n_var) index of <O*_k O_l>
    means: np.ndarray         # (n_var,) index of <O_k>
    forces: np.ndarray        # (n_var,) index of <E_loc O*_k>


@functools.lru_cache(maxsize=2)
def _product_layout(L: int, M: int) -> _Layout:
    """The arrays that build and read the moments of one (L, M).

    The first LOW_SITES sites vary inside a block of rbm.ROW_BLOCK rows,
    the high sites above them are constant over it. The moments of the
    spin pairs are stacked in three parts: the pairs of low factors (the
    constant and the low sites, in _pairs order), then (low factor i, high
    site j) at j (LOW_SITES + 1) + i, then the pairs j < k of high sites.
    readout indexes the flattened [moments; conj(moments)] of the
    (rows, _g_rows(M)) moments, means the pairs with the constant and
    forces the columns of the force factors in the first part, all in the
    parameter order."""
    n_low = min(L, LOW_SITES)
    n_high = L - n_low
    s_hat = np.ones((1 << L, L + 1))
    s_hat[:, 1:] = hilbert.all_spins(L)
    block = s_hat[:min(1 << L, rbm.ROW_BLOCK)]
    li, lj, low_pos = _pairs(n_low + 1, diagonal=False)
    sigma = s_hat[::len(block), n_low + 1:]
    hi, hj = np.triu_indices(n_high, 1)

    s_pos = np.zeros((L + 1, L + 1), dtype=np.intp)   # (i, i) reads (0, 0)
    s_pos[:n_low + 1, :n_low + 1] = low_pos
    s_pos[:n_low + 1, n_low + 1:] = (len(li) + (n_low + 1) * np.arange(n_high)
                                     + np.arange(n_low + 1)[:, None])
    s_pos[n_low + 1 + hi, n_low + 1 + hj] = len(li) + (n_low + 1) * n_high + np.arange(len(hi))
    s_pos = np.maximum(s_pos, s_pos.T)   # mirror the upper triangle

    _, _, t_pos = _pairs(M + 1)
    site, hidden = (_in_parameter_order(g) for g in np.indices((L + 1, M + 1)))
    n_g = _g_rows(M)
    n_rows = _buffer_shapes(L, M)["moments"][0][1]
    readout = (s_pos[site[:, None], site] * n_g + t_pos[hidden[:, None], hidden]
               + n_rows * n_g * (hidden[:, None] > hidden))
    means = s_pos[0, site] * n_g + t_pos[0, hidden]
    forces = s_pos[0, site] * n_g + (M + 1) * (M + 2) // 2 + hidden
    layout = _Layout(s_hat, block[:, li] * block[:, lj], block[:, :n_low + 1].astype(complex),
                     sigma + 1, sigma[:, hi] * sigma[:, hj] - 1, readout, means, forces)
    for arr in layout:
        arr.setflags(write=False)
    return layout


class _Buffers(NamedTuple):
    """Arrays that one SR run at (L, M) allocates once and reuses in every
    iteration; _buffer_shapes gives their shapes."""
    lp: np.ndarray          # (2^L,) log Psi
    t_hat: np.ndarray       # (M+1, 2^L) hidden factors [1, tanh theta], hidden-major
    work: np.ndarray        # the fused kernel's real workspace
    pt: np.ndarray          # (M+1, block rows) p conj(t_hat) of one block
    g: np.ndarray           # (_g_rows(M), block rows) G of one block
    g_sum: np.ndarray       # its running sum over the blocks
    c: np.ndarray           # (low factors, _g_rows(M)) C_b of one block
    low_high_b: np.ndarray  # (high sites, low factors, _g_rows(M)) weighted C_b
    high_high_b: np.ndarray  # (high pairs, _g_rows(M)) weighted C_b[0]
    moments: np.ndarray     # (2, moment rows, _g_rows(M)) [moments; conj(moments)]
    s_mat: np.ndarray       # (n_var, n_var) <O*_k O_l>, then S
    outer: np.ndarray       # (n_var, n_var) <O>^H <O>, then S^H


def _buffer_shapes(L: int, M: int) -> dict:
    """(shape, dtype) of each _Buffers field at (L, M). The moment rows
    stack the low pairs, the (low factor, high site) slots and the high
    pairs, as in _product_layout."""
    n_low = min(L, LOW_SITES)
    n_high = L - n_low
    n_rows = min(1 << L, rbm.ROW_BLOCK)
    n_g = _g_rows(M)
    n_var = L + M + L * M
    n_high_pairs = n_high * (n_high - 1) // 2
    n_moments = 1 + n_low * (n_low + 1) // 2 + (n_low + 1) * n_high + n_high_pairs
    return {
        "lp": ((1 << L,), complex),
        "t_hat": ((M + 1, 1 << L), complex),
        "work": (rbm.kernel_work_shape(M, 1 << L), float),
        "pt": ((M + 1, n_rows), complex),
        "g": ((n_g, n_rows), complex),
        "g_sum": ((n_g, n_rows), complex),
        "c": ((n_low + 1, n_g), complex),
        "low_high_b": ((n_high, n_low + 1, n_g), complex),
        "high_high_b": ((n_high_pairs, n_g), complex),
        "moments": ((2, n_moments, n_g), complex),
        "s_mat": ((n_var, n_var), complex),
        "outer": ((n_var, n_var), complex),
    }


def _allocate_buffers(L: int, M: int) -> _Buffers:
    bufs = _Buffers(**{name: np.zeros(shape, dtype)
                       for name, (shape, dtype) in _buffer_shapes(L, M).items()})
    bufs.t_hat[0] = 1
    return bufs


def working_set_bytes(L: int, M: int) -> int:
    """Estimated bytes that an SR run at (L, M) holds at once: the buffers
    of _buffer_shapes; per configuration s_hat, eight transient state
    vectors and the CSR matrix of H (at most 2L flip masks per row, 12
    bytes each); per row of one block the low spin pairs and factors; and
    the copy of S + eps that the solve factorizes."""
    n_low = min(L, LOW_SITES)
    n_var = L + M + L * M
    buffers = sum(np.dtype(dtype).itemsize * math.prod(shape)
                  for shape, dtype in _buffer_shapes(L, M).values())
    per_row = 8 * (L + 1) + 8 * 16 + 2 * L * 12
    per_block_row = 8 * (1 + n_low * (n_low + 1) // 2) + 16 * (n_low + 1)
    return (buffers + (per_row << L) + per_block_row * min(1 << L, rbm.ROW_BLOCK)
            + 16 * n_var * n_var)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _full_expectations(h: RotatedTfim, w: RbmParameters, bufs: _Buffers):
    M = w.M
    lay = _product_layout(w.L, M)
    t_hat, pt, g, g_sum, c = bufs.t_hat, bufs.pt, bufs.g, bufs.g_sum, bufs.c
    rbm.log_psi_and_tanh_into(w, lay.s_hat[:, 1:], bufs.lp, t_hat[1:], bufs.work)
    p, e_loc, energy, var = _born_energy(h, bufs.lp)
    n_rows = g.shape[1]
    moments, conj_moments = bufs.moments
    n_low_pairs = lay.r_low.shape[1]
    low = moments[:n_low_pairs]
    n_high, n_low = bufs.low_high_b.shape[:2]   # high sites, low factors
    low_high = moments[n_low_pairs:n_low_pairs + n_high * n_low].reshape(n_high, n_low, len(g))
    high_high = moments[len(moments) - len(bufs.high_high_b):]
    low_high[:] = 0
    high_high[:] = 0
    # G's padding rows, past the (M+1)(M+4)/2 filled ones, are zero in every
    # block; the last call left the transposed sum there
    g[(M + 1) * (M + 4) // 2:] = 0
    for b, lo in enumerate(range(0, len(p), n_rows)):   # fixed block order
        rows = slice(lo, lo + n_rows)
        th = t_hat[:, rows]
        np.conjugate(th, out=pt)
        pt *= p[rows]
        g_b = g if b else g_sum   # the first block goes straight into the sum
        col = 0
        for a in range(M + 1):   # the pairs (a, b >= a), in _pairs order
            np.multiply(pt[a], th[a:], out=g_b[col:col + M + 1 - a])
            col += M + 1 - a
        np.multiply(pt, e_loc[rows], out=g_b[col:col + M + 1])
        if b:
            g_sum += g
            np.matmul(lay.s_low.T, g.T, out=c)   # the low factors summed over the block
            low_high += np.multiply(lay.high_weights[b, :, None, None], c, out=bufs.low_high_b)
            high_high += np.multiply(lay.pair_weights[b, :, None], c[0], out=bufs.high_high_b)
    g_sum_t = g.reshape(n_rows, -1)   # reuses G's memory
    g_sum_t[:] = g_sum.T
    np.matmul(lay.r_low.T, g_sum_t.view(np.float64), out=low.view(np.float64))
    low_high -= low[:n_low]   # its first rows, (0, i), are s_low^T sum_b G_b
    high_high += low[0]
    np.conjugate(moments, out=conj_moments)
    # mode "clip" writes straight into out; "raise" would buffer the result
    s_mat = bufs.moments.take(lay.readout, out=bufs.s_mat, mode="clip")
    o_mean = moments.take(lay.means)
    s_mat -= np.multiply(o_mean.conj()[:, None], o_mean, out=bufs.outer)
    s_mat += np.conjugate(s_mat.T, out=bufs.outer)   # Hermitian bit for bit
    s_planes = s_mat.view(np.float64)   # halved on the real and imaginary planes
    s_planes *= 0.5
    f = moments.take(lay.forces) - energy * o_mean.conj()
    return energy, var, f, s_mat


def energy_and_variance(h: RotatedTfim, w: RbmParameters):
    """Exact (energy, variance of the local energy) for the parameters."""
    _, _, energy, var = _born_energy(h, rbm.log_psi_all(w))
    return energy, var


def solve_sr_system(s_mat: np.ndarray, f: np.ndarray, epsilon: float) -> np.ndarray:
    """Solve (S + eps*1) d = f by LAPACK's zhesv (Bunch-Kaufman), on one
    copy of S with eps added to its diagonal.

    Raises RuntimeError if zhesv reports a singular matrix or the residual
    is not within SOLVE_RESIDUAL_TOL relative to max(|f|, 1), which a NaN
    or infinite entry never is.
    """
    reg = np.array(s_mat, dtype=complex, order="F")   # zhesv factorizes it in place
    reg.flat[::len(f) + 1] += epsilon
    _, _, delta, info = scipy.linalg.lapack.zhesv(reg, f[:, None], overwrite_a=True)
    if info != 0:
        raise RuntimeError(f"SR linear solve failed: zhesv info {info}")
    delta = delta[:, 0]
    res = np.linalg.norm(s_mat @ delta + epsilon * delta - f)
    scale = max(np.linalg.norm(f), 1.0)
    if not res <= SOLVE_RESIDUAL_TOL * scale:
        raise RuntimeError(f"SR linear solve residual {res:.2e} too large")
    return delta


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def optimize(h: RotatedTfim, cfg: SrConfig) -> OptimizationTrace:
    """Evaluate n_iter parameter sets, from a seeded random initialization
    and n_iter - 1 SR steps; final_params is the last set evaluated.

    Raises MemoryError before allocating anything of size 2^L when
    working_set_bytes exceeds the machine's physical memory. Stops early,
    with converged False and an abort_reason, on a non-finite energy,
    variance, force or S entry, on a failed solve, or on divergence: a
    parameter norm above DIVERGENCE_FACTOR * max(||w_0||, 1), with w_0 the
    initial parameters. An energy bound could not serve, since every
    variational energy lies within the spectrum. Floating-point overflow,
    invalid and divide-by-zero raise no numpy warning here: those checks
    turn every such value into the abort reason.
    """
    L = h.L
    M = rbm.n_hidden(L, cfg.alpha)
    need, limit = working_set_bytes(L, M), _physical_memory_bytes()
    if need > limit:
        raise MemoryError(
            f"SR at L={L}, M={M} needs about {need:.3g} bytes, more than the "
            f"{limit:.3g} bytes of physical memory")
    bufs = _allocate_buffers(L, M)
    w = rbm.init_random(L, cfg.alpha, cfg.seed, cfg.init_scale)
    vec = w.to_vector()   # w views it from the first step on
    energies = np.zeros(cfg.n_iter, dtype=complex)
    variances = np.zeros(cfg.n_iter)
    grad_norms = np.zeros(cfg.n_iter)
    param_norms = np.zeros(cfg.n_iter)
    abort = None
    n_done = 0
    for it in range(cfg.n_iter):
        energy, var, f, s_mat = _full_expectations(h, w, bufs)
        energies[it] = energy
        variances[it] = var
        grad_norms[it] = float(np.linalg.norm(f))
        param_norms[it] = float(np.linalg.norm(vec))
        n_done = it + 1
        if not np.isfinite(energy):
            abort = f"non-finite energy at iteration {it}"
            break
        if not (np.isfinite(var) and np.isfinite(f).all() and np.isfinite(s_mat).all()):
            abort = f"non-finite variance, forces or S at iteration {it}"
            break
        if param_norms[it] > DIVERGENCE_FACTOR * max(param_norms[0], 1.0):
            abort = f"divergence guard tripped at iteration {it}"
            break
        if n_done == cfg.n_iter:
            break   # no step after the last evaluation
        try:
            delta = solve_sr_system(s_mat, f, cfg.epsilon)
        except RuntimeError as err:
            abort = str(err)
            break
        vec -= cfg.eta * delta
        w = RbmParameters(vec[:L], vec[L:L + M], vec[L + M:].reshape(L, M))
    return OptimizationTrace(
        energies[:n_done], variances[:n_done], grad_norms[:n_done],
        param_norms[:n_done], RbmParameters.from_vector(vec, L, M),
        converged=abort is None, abort_reason=abort,
    )


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based fan-out: realization i uses SeedSequence([master, i])."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


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


@dataclass(frozen=True)
class Run:
    """One SR run: its config, its trace and its final state."""
    config: SrConfig
    trace: OptimizationTrace
    state: np.ndarray

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def energy(self) -> float:
        return self.trace.final_energy.real


def run_all(h: RotatedTfim, configs) -> tuple[list, Run]:
    """optimize at each config in order; returns (runs, best), best the
    lowest finite final energy among the runs that did not abort, the first
    among ties within ENERGY_TIE_RTOL. Each run that aborted is logged as
    one WARNING naming its eta, seed and abort_reason. RuntimeError, naming
    each run's eta and outcome, if no run qualifies."""
    runs = []
    for cfg in configs:
        trace = optimize(h, cfg)
        if not trace.converged:
            log.warning("SR run at eta=%g, seed %d aborted: %s",
                        cfg.eta, cfg.seed, trace.abort_reason)
        runs.append(Run(cfg, trace, rbm.full_state_vector(trace.final_params)))
    best = _lowest([r.energy if r.trace.converged else np.nan for r in runs])
    if best is None:
        outcomes = [(r.config.eta, r.trace.abort_reason or "non-finite final energy")
                    for r in runs]
        raise RuntimeError(f"none of {len(runs)} runs completed with a finite "
                           f"final energy: {outcomes}")
    return runs, runs[best]


def hyperparameter_search(h: RotatedTfim, trials: int, base: SrConfig) -> Run:
    """Random search over the learning rate, run_all's best trial: trial t
    draws eta uniform in ETA_SEARCH_RANGE from one generator seeded with
    base.seed, in trial order, and takes the seed derive_seed(base.seed, t)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(base.seed)
    configs = [replace(base, eta=float(rng.uniform(*ETA_SEARCH_RANGE)),
                       seed=derive_seed(base.seed, t)) for t in range(trials)]
    return run_all(h, configs)[1]


def multi_seed_run(h: RotatedTfim, cfg: SrConfig, n_realizations: int):
    """Independent restarts with seeds fanned out from cfg.seed; returns
    run_all's (runs, best)."""
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    return run_all(h, [replace(cfg, seed=derive_seed(cfg.seed, i))
                       for i in range(n_realizations)])
