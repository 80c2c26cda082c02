"""Exact diagonalization, state-vector metrics and sign diagnostics."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import hamiltonian
from .hamiltonian import RotatedTfim

DENSE_SOLVE_MAX_SITES = 9
SOLVER_MAX_SITES = 16
LANCZOS_NCV = 16
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
    Lanczos (scipy eigsh, LANCZOS_NCV Lanczos vectors) for 9 < L <= 16;
    the Lanczos start vector is seeded, so repeated calls return
    bit-identical states. For k <= 2 each block gives its lowest eigenpair:
    the two lowest levels of the open chain are the two sector minima, since
    the first excitation flips one fermion and with it the parity. For k > 2
    each block gives its k lowest. The levels are merged by energy (even
    first on an exact tie), embedded as (u, +-u reversed), rotated by
    V(theta), normalized and phase-fixed, and each is checked against
    H(theta) by its residual. In the (near-)degenerate ferromagnet the two
    states are therefore parity eigenstates, not a rounding-dependent mix.
    k must lie in [1, 2^L], and below 2^(L-1) where Lanczos is used
    (k <= 511 at L = 10).
    """
    if h.L > SOLVER_MAX_SITES:
        raise ValueError(f"exact solver refused for L={h.L} > {SOLVER_MAX_SITES}")
    half = h.dim // 2
    dense = h.L <= DENSE_SOLVE_MAX_SITES
    k_max = h.dim if dense else half - 1
    if not 1 <= k <= k_max:
        raise ValueError(f"k={k} outside [1, {k_max}] at L={h.L}")
    per_sector = min(1 if k <= 2 else k, half)

    energies, vecs = [], []
    for sign, block in zip((1.0, -1.0), h.parity_sectors):
        if dense:
            e, u = scipy.linalg.eigh(block.toarray(), subset_by_index=[0, per_sector - 1])
        else:
            v0 = np.random.default_rng(0).standard_normal(half)
            e, u = scipy.sparse.linalg.eigsh(
                block, k=per_sector, which="SA", tol=1e-12, maxiter=5000,
                ncv=min(half, max(LANCZOS_NCV, 2 * per_sector + 1)), v0=v0,
            )
        energies.append(e)
        vecs.append(np.concatenate([u, sign * u[::-1]]))
    energies, vecs = np.concatenate(energies), np.concatenate(vecs, axis=1)
    order = np.argsort(energies, kind="stable")[:k]
    energies, vecs = energies[order], hamiltonian.rotate(h, vecs[:, order])

    states = np.empty((h.dim, k), dtype=complex)
    for j in range(k):
        v = fix_phase(normalize(vecs[:, j]))
        res = np.linalg.norm(hamiltonian.matvec(h, v) - energies[j] * v)
        if res > EIG_RESIDUAL_TOL:
            raise RuntimeError(
                f"eigenpair {j} residual {res:.2e} exceeds {EIG_RESIDUAL_TOL}"
            )
        states[:, j] = v
    return SpectrumSummary(np.asarray(energies, dtype=float), states, h.L, h.lam, h.theta)


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


def infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi>|^2 / (<psi|psi><phi|phi>), global-phase invariant."""
    phi, psi = np.asarray(phi, complex), np.asarray(psi, complex)
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
