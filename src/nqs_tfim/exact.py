"""Exact diagonalization, state-vector metrics and sign diagnostics."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import hamiltonian
from .hamiltonian import RotatedTfim

DENSE_SOLVE_MAX_SITES = 10
SOLVER_MAX_SITES = 16
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
    """Lowest k eigenpairs of H.

    Dense symmetric solve for L <= 10; Lanczos (scipy eigsh on the cached
    CSR matrix of H, `h.elements`) for 10 < L <= 16. The Lanczos start
    vector is seeded, so repeated calls return bit-identical states; it
    is random rather than uniform because at theta = 0 a uniform vector
    lies in one parity sector and Lanczos would never reach the lowest
    state of the other.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if h.L > SOLVER_MAX_SITES:
        raise ValueError(f"exact solver refused for L={h.L} > {SOLVER_MAX_SITES}")
    if h.L <= DENSE_SOLVE_MAX_SITES:
        m = hamiltonian.dense_matrix(h)
        energies, vecs = scipy.linalg.eigh(m, subset_by_index=[0, k - 1])
    else:
        v0 = np.random.default_rng(0).standard_normal(h.dim)
        energies, vecs = scipy.sparse.linalg.eigsh(
            h.elements, k=k, which="SA", tol=1e-12, maxiter=5000,
            ncv=min(h.dim - 1, 40), v0=v0,
        )
        order = np.argsort(energies)
        energies, vecs = energies[order], vecs[:, order]

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
