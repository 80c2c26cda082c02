"""Exact diagonalization, state-vector metrics and sign diagnostics.

`ground_states` solves the even and odd parity blocks A +- B of H(0), each
of size 2^(L-1), from one half-size CSR matrix A and the top-site flip B
(`RotatedTfim.parity_sectors`), and rotates the eigenvectors to H(theta).
A block is formed densely and solved for L <= DENSE_SOLVE_MAX_SITES, and
above that, up to SOLVER_MAX_SITES, applied as A v +- b * v[::-1] by
`_lanczos`: a three-term Lanczos recurrence with a thick restart that holds
at most LANCZOS_BASIS vectors, and deflation for more than one level. The
residual check applies H(theta) from its definition
(`hamiltonian.apply_from_definition`), so no matrix of H(theta) is built.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dsyevr

from . import hamiltonian
from .hamiltonian import RotatedTfim

DENSE_SOLVE_MAX_SITES = 9
SOLVER_MAX_SITES = 16
LANCZOS_BASIS = 24
LANCZOS_MAX_STEPS = 5000
LANCZOS_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-8
NEAR_DEGENERACY_REL = 1e-6
REAL_STATE_TOL = 1e-8


def normalize(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("cannot normalize a zero vector")
    return psi / norm


def fix_phase(psi: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude amplitude is real
    and positive (ties broken by lowest configuration index)."""
    psi = np.asarray(psi, dtype=complex)
    k = int(np.argmax(np.abs(psi)))
    a = psi[k]
    if a == 0:
        raise ValueError("cannot fix phase of a zero vector")
    return psi * (np.abs(a) / a)


@dataclass(frozen=True)
class SpectrumSummary:
    energies: np.ndarray          # ascending, length k
    states: np.ndarray            # (2^L, k), normalized + phase-fixed columns
    L: int
    lam: float
    theta: float

    @property
    def gap(self) -> float:
        if len(self.energies) < 2:
            raise ValueError("need k >= 2 eigenpairs for a gap")
        return float(self.energies[1] - self.energies[0])

    @property
    def near_degenerate(self) -> bool:
        return abs(self.gap) < NEAR_DEGENERACY_REL * abs(self.energies[0])


def ground_states(h: RotatedTfim, k: int = 2) -> SpectrumSummary:
    """Lowest k eigenpairs of H(theta), from the two parity sectors of H(0).

    H(theta) = V H(0) V^T (`hamiltonian.rotate`), and H(0) splits into an
    even and an odd block of size 2^(L-1) (`RotatedTfim.parity_sectors`).
    Each block is solved by a dense symmetric solve for L <= 9 and by
    `_lanczos` for 9 < L <= 16, whose start vector is seeded, so repeated
    calls return bit-identical states. For k <= 2 each block gives its
    lowest eigenpair: the two lowest levels of the open chain are the two
    sector minima, since the first excitation flips one fermion and with it
    the parity. For k > 2 each block gives its k lowest. The levels are
    merged by energy (even first on an exact tie), embedded as
    (u, +-u reversed) and rotated by V(theta). The real rotated vectors,
    normalized, are checked against H(theta) by their residuals, all k at
    once and with no matrix (`hamiltonian.apply_from_definition`); then
    each is normalized as a complex vector and phase-fixed. In the
    (near-)degenerate ferromagnet the two states are therefore parity
    eigenstates, not a rounding-dependent mix. k must lie in [1, 2^L], and
    below 2^(L-1) where Lanczos is used (k <= 511 at L = 10).
    """
    if h.L > SOLVER_MAX_SITES:
        raise ValueError(f"exact solver refused for L={h.L} > {SOLVER_MAX_SITES}")
    half = h.dim // 2
    dense = h.L <= DENSE_SOLVE_MAX_SITES
    k_max = h.dim if dense else half - 1
    if not 1 <= k <= k_max:
        raise ValueError(f"k={k} outside [1, {k_max}] at L={h.L}")
    per_sector = min(1 if k <= 2 else k, half)

    a, b = h.parity_sectors
    if dense:
        a, rows = a.toarray(), np.arange(half)
    energies, vecs = [], []
    for sign, parity in zip((1.0, -1.0), ("even", "odd")):
        sb = sign * b
        if dense:
            block = a.copy()
            block[rows, rows[::-1]] += sb          # A +- B
            e, u = scipy.linalg.eigh(block, subset_by_index=[0, per_sector - 1])
        else:
            def block_matvec(v, a=a, sb=sb):       # (A +- B) v
                w = a @ v
                w += sb * v[::-1]
                return w
            e, u = _lanczos(block_matvec, half, per_sector,
                            f"L={h.L}, lambda={h.lam:g}, {parity} parity block")
        energies.append(e)
        vecs.append(np.concatenate([u, sign * u[::-1]]))
    energies, vecs = np.concatenate(energies), np.concatenate(vecs, axis=1)
    order = np.argsort(energies, kind="stable")[:k]
    energies, vecs = energies[order], hamiltonian.rotate(h, vecs[:, order])

    real = vecs / np.linalg.norm(vecs, axis=0)
    res = np.linalg.norm(hamiltonian.apply_from_definition(h, real) - energies * real, axis=0)
    bad = np.flatnonzero(~(res <= EIG_RESIDUAL_TOL))
    if bad.size:
        j = bad[0]
        raise RuntimeError(f"eigenpair {j} residual {res[j]:.2e} exceeds {EIG_RESIDUAL_TOL}")
    states = np.empty((h.dim, k), dtype=complex)
    for j in range(k):
        states[:, j] = fix_phase(normalize(vecs[:, j]))
    return SpectrumSummary(np.asarray(energies, dtype=float), states, h.L, h.lam, h.theta)


def _lanczos(matvec, n: int, n_low: int, name: str):
    """(energies, vectors): the n_low lowest eigenpairs of the real
    symmetric n x n matrix H that `matvec` applies to a vector, one column
    of `vectors` per energy.

    The pairs are found one at a time, each by its own run of the
    three-term Lanczos recurrence (Lanczos, J. Res. NBS 45, 255 (1950))
    from one start vector drawn from a generator seeded with 0. Each new
    Lanczos vector is orthogonalized against the eigenvectors already
    found, so a run sees the matrix deflated by them, and against nothing
    else. The basis holds at most LANCZOS_BASIS vectors; when it is full,
    the run keeps its LANCZOS_BASIS // 4 lowest Ritz vectors and goes on
    from the residual (thick restart; Wu & Simon, SIAM J. Matrix Anal.
    Appl. 22, 602 (2000)). Each time the basis has grown by that many
    vectors, the lowest Ritz pair (theta, y) is tested, and it is taken
    when its residual ||H y - theta y|| = beta |s_last| is at most
    LANCZOS_TOL * max(|theta|, eps^(2/3)), the rule of ARPACK. A run that
    takes more than LANCZOS_MAX_STEPS steps raises RuntimeError, naming
    the matrix by `name`.
    """
    keep = LANCZOS_BASIS // 4
    floor = np.finfo(float).eps ** (2 / 3)
    start = np.random.default_rng(0).standard_normal(n)
    found, energies = np.empty((n_low, n)), np.empty(n_low)
    basis = np.empty((LANCZOS_BASIS + 1, n))
    t = np.empty((LANCZOS_BASIS, LANCZOS_BASIS))   # basis^T H basis
    for i in range(n_low):
        locked = found[:i]
        v = start - (locked @ start) @ locked
        basis[0] = v / np.linalg.norm(v)
        t[:] = 0.0
        j = kept = 0
        for _ in range(LANCZOS_MAX_STEPS):
            w = matvec(basis[j])
            if j > kept:
                daxpy(basis[j - 1], w, a=-beta)    # in place in w
            elif kept:                              # first step after a restart
                w -= t[j, :j] @ basis[:j]
            alpha = basis[j] @ w
            daxpy(basis[j], w, a=-alpha)
            if i:
                w -= (locked @ w) @ locked
            beta = np.linalg.norm(w)
            t[j, j] = alpha
            j += 1
            restart = j == LANCZOS_BASIS
            if restart or j % keep == 0 or beta == 0.0:
                theta, s = _lowest_eigenpairs(t[:j, :j], keep if restart else 1)
                if beta * abs(s[-1, 0]) <= LANCZOS_TOL * max(abs(theta[0]), floor):
                    break
                if restart:                         # keep the lowest Ritz vectors
                    basis[:keep] = s.T @ basis[:j]
                    t[:] = 0.0
                    t[range(keep), range(keep)] = theta
                    t[keep, :keep] = t[:keep, keep] = beta * s[-1]
                    j = kept = keep
            if j > kept:
                t[j, j - 1] = t[j - 1, j] = beta
            np.divide(w, beta, out=basis[j])
        else:
            raise RuntimeError(f"Lanczos did not converge in {LANCZOS_MAX_STEPS} steps "
                               f"for the {name}")
        y = s[:, 0] @ basis[:j]
        found[i], energies[i] = y / np.linalg.norm(y), theta[0]
    return energies, found.T


def _lowest_eigenpairs(t: np.ndarray, count: int):
    """The `count` lowest eigenvalues of the symmetric t and their vectors,
    by LAPACK dsyevr, called directly since it runs once every few steps."""
    theta, s, _, _, info = dsyevr(t, range="I", il=1, iu=count)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    return theta[:count], s


def sign_average(psi: np.ndarray, tol: float = REAL_STATE_TOL) -> float:
    """Born-weighted mean sign sum_s |psi(s)|^2 sgn(psi(s)).

    Requires a state that is real up to a global phase (imaginary parts
    below `tol` after phase fixing); sgn(0) = 0. Variational states carry
    optimization noise and need a looser tol than exact eigenvectors.
    """
    psi = fix_phase(normalize(psi))
    if np.max(np.abs(psi.imag)) > tol:
        raise ValueError("sign average undefined: state not real up to global phase")
    return float(np.sum(np.abs(psi) ** 2 * np.sign(psi.real)))


def degenerate_superpositions(psi0: np.ndarray, psi1: np.ndarray):
    """Normalized, phase-fixed (psi0 + psi1)/sqrt(2) and (psi0 - psi1)/sqrt(2)."""
    psi0, psi1 = np.asarray(psi0, complex), np.asarray(psi1, complex)
    if psi0.shape != psi1.shape:
        raise ValueError("states live on different Hilbert spaces")
    plus = fix_phase(normalize(psi0 + psi1))
    minus = fix_phase(normalize(psi0 - psi1))
    return plus, minus


def check_state_pair(phi: np.ndarray, psi: np.ndarray) -> None:
    """Refuse two states unless both are 1-D and of one length."""
    if phi.ndim != 1 or phi.shape != psi.shape:
        raise ValueError(f"states of shapes {phi.shape} and {psi.shape} are not "
                         "two 1-D vectors of one length")


def infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi>|^2 / (<psi|psi><phi|phi>), global-phase invariant."""
    phi, psi = np.asarray(phi, complex), np.asarray(psi, complex)
    check_state_pair(phi, psi)
    np_, nq = np.linalg.norm(phi), np.linalg.norm(psi)
    if np_ == 0 or nq == 0:
        raise ValueError("infidelity undefined for a zero vector")
    overlap = np.abs(np.vdot(psi, phi)) / (np_ * nq)
    return float(max(0.0, 1.0 - overlap**2))


def relative_energy_error(e_var: float, e0: float) -> float:
    """|e_var - e0| / |e0|."""
    if e0 == 0:
        raise ValueError("relative energy error undefined for e0 = 0")
    return abs(e_var - e0) / abs(e0)


def sorted_probabilities(psi: np.ndarray):
    """(probability, sign) pairs sorted by ascending probability.

    Signs are taken on the real part after phase fixing; for genuinely
    complex states all sign tags are 0.
    """
    psi = fix_phase(normalize(psi))
    probs = np.abs(psi) ** 2
    if np.max(np.abs(psi.imag)) > REAL_STATE_TOL:
        signs = np.zeros_like(probs)
    else:
        signs = np.sign(psi.real)
    order = np.argsort(probs, kind="stable")
    return list(zip(probs[order].tolist(), signs[order].tolist()))
