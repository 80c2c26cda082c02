"""Exact diagonalization, state-vector metrics and sign diagnostics.

`ground_states` solves the even and odd parity blocks A +- B of H(0), each
of size 2^(L-1), through their operators v -> (A +- B) v
(`RotatedTfim.parity_sectors`), and rotates the eigenvectors to H(theta).
For L <= DENSE_SOLVE_MAX_SITES a block is its operator applied to the
identity, solved densely; above it, up to `hilbert.MAX_SITES`, `_lanczos`
applies it to one vector per step: a three-term Lanczos recurrence with a
thick restart that holds at most LANCZOS_BASIS vectors. Each block gives
its lowest eigenpair, and the two are the two lowest levels of H(theta).
The residual check applies H(theta) from its definition
(`hamiltonian.apply_from_definition`), so no matrix of H(theta) is built.
The states are the columns of a Fortran-ordered array: each is contiguous,
so what reads `states[:, j]` sums it in the same order for k = 1 and 2.
The sign diagnostics take the sign of an amplitude as that of its real
part after phase fixing, with no tolerance.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dsyevr

from . import hamiltonian
from .hamiltonian import RotatedTfim

DENSE_SOLVE_MAX_SITES = 9
LANCZOS_BASIS = 24
LANCZOS_MAX_STEPS = 5000
LANCZOS_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-8
NEAR_DEGENERACY_REL = 1e-6


@np.errstate(invalid="ignore", divide="ignore")
def normalize(psi: np.ndarray) -> np.ndarray:
    """psi / ||psi||. The norm is summed by numpy's pairwise sums, not by
    BLAS, whose dot products split long vectors over threads, so the
    result does not depend on the BLAS thread count. Non-finite entries
    give NaN entries, with no numpy warning."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.sqrt(np.sum(psi.real**2) + np.sum(psi.imag**2))
    if norm == 0:
        raise ValueError("cannot normalize a zero vector")
    return psi / norm


@np.errstate(invalid="ignore", divide="ignore")
def fix_phase(psi: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude amplitude is real
    and positive (ties broken by lowest configuration index); a state with
    a non-finite entry gives the all-NaN state, with no numpy warning."""
    psi = np.asarray(psi, dtype=complex)
    k = int(np.argmax(np.abs(psi)))
    a = psi[k]
    if a == 0:
        raise ValueError("cannot fix phase of a zero vector")
    return psi * (np.abs(a) / a)


@dataclass(frozen=True)
class SpectrumSummary:
    energies: np.ndarray          # length k, ascending up to a tie (see ground_states)
    states: np.ndarray            # (2^L, k), normalized + phase-fixed contiguous columns

    @property
    def gap(self) -> float:
        if len(self.energies) < 2:
            raise ValueError("need k >= 2 eigenpairs for a gap")
        return float(self.energies[1] - self.energies[0])

    @property
    def near_degenerate(self) -> bool:
        return abs(self.gap) < NEAR_DEGENERACY_REL * abs(self.energies[0])


def ground_states(h: RotatedTfim, k: int = 2) -> SpectrumSummary:
    """The lowest k = 1 or 2 eigenpairs of H(theta), from the two parity
    sectors of H(0).

    H(theta) = V H(0) V^T (`hamiltonian.rotate`), and H(0) splits into an
    even and an odd block of size 2^(L-1), each an operator
    (`RotatedTfim.parity_sectors`). Each gives its lowest eigenpair: for
    L <= 9 by a dense solve of the operator applied to the identity, for
    9 < L <= 16 by `_lanczos`, whose start vector is seeded, so repeated
    calls return bit-identical states. The two lowest levels of the open
    chain are the two sector minima, since the first excitation flips one
    fermion and with it the parity. The pairs are ordered by energy, even
    first unless odd is lower by over LANCZOS_TOL relative, the solvers'
    accuracy (so `gap` can read a rounding-size negative value), embedded
    as (u, +-u reversed), rotated by V(theta), normalized once,
    phase-fixed and stored as contiguous columns, whose real parts are
    checked against H(theta) by their residuals, in one pass and with no matrix
    (`hamiltonian.apply_from_definition`). In the (near-)degenerate
    ferromagnet the two states are therefore parity eigenstates, not a
    rounding-dependent mix.
    """
    if k not in (1, 2):
        raise ValueError(f"k={k}: ground_states solves the lowest 1 or 2 levels")
    half = h.dim // 2
    energies, vecs = np.empty(2), np.empty((h.dim, 2))
    for j, (block, sign, parity) in enumerate(zip(h.parity_sectors, (1.0, -1.0),
                                                   ("even", "odd"))):
        if h.L <= DENSE_SOLVE_MAX_SITES:
            e, u = scipy.linalg.eigh(block(np.eye(half)), subset_by_index=[0, 0])
            energies[j], u = e[0], u[:, 0]
        else:
            energies[j], u = _lanczos(block, half,
                                      f"L={h.L}, lambda={h.lam:g}, {parity} parity block")
        vecs[:half, j], vecs[half:, j] = u, sign * u[::-1]
    order = [1, 0] if energies[1] < energies[0] - LANCZOS_TOL * abs(energies[0]) else [0, 1]
    energies, vecs = energies[order[:k]], hamiltonian.rotate(h, vecs[:, order[:k]])

    states = np.empty((h.dim, k), dtype=complex, order="F")   # contiguous columns
    for j in range(k):
        states[:, j] = fix_phase(normalize(vecs[:, j]))
    real = states.real
    res = np.linalg.norm(hamiltonian.apply_from_definition(h, real) - energies * real, axis=0)
    bad = np.flatnonzero(~(res <= EIG_RESIDUAL_TOL))
    if bad.size:
        j = bad[0]
        raise RuntimeError(f"eigenpair {j} residual {res[j]:.2e} exceeds {EIG_RESIDUAL_TOL}")
    return SpectrumSummary(energies, states)


def _lanczos(matvec, n: int, name: str):
    """(energy, vector): the lowest eigenpair of the real symmetric n x n
    matrix H that `matvec` applies to a vector.

    The pair is found by the three-term Lanczos recurrence (Lanczos,
    J. Res. NBS 45, 255 (1950)) from one start vector drawn from a
    generator seeded with 0. The basis holds at most LANCZOS_BASIS
    vectors; when it is full, the run keeps its LANCZOS_BASIS // 4 lowest
    Ritz vectors and goes on from the residual (thick restart; Wu & Simon,
    SIAM J. Matrix Anal. Appl. 22, 602 (2000)). Each time the basis has
    grown by that many vectors, the lowest Ritz pair (theta, y) is tested,
    and it is taken when its residual ||H y - theta y|| = beta |s_last| is
    at most LANCZOS_TOL * max(|theta|, eps^(2/3)), the rule of ARPACK. A
    run that takes more than LANCZOS_MAX_STEPS steps raises RuntimeError,
    naming the matrix by `name`. Dot products and norms are numpy sums, not
    BLAS, so the pair does not depend on the BLAS thread count.
    """
    keep = LANCZOS_BASIS // 4
    floor = np.finfo(float).eps ** (2 / 3)
    start = np.random.default_rng(0).standard_normal(n)
    basis = np.empty((LANCZOS_BASIS + 1, n))
    basis[0] = start / np.sqrt(np.sum(start**2))
    t = np.zeros((LANCZOS_BASIS, LANCZOS_BASIS))   # basis^T H basis
    j = kept = 0
    for _ in range(LANCZOS_MAX_STEPS):
        w = matvec(basis[j])
        if j > kept:
            daxpy(basis[j - 1], w, a=-beta)        # in place in w
        elif kept:                                  # first step after a restart
            w -= t[j, :j] @ basis[:j]
        alpha = np.einsum("i,i->", basis[j], w)
        daxpy(basis[j], w, a=-alpha)
        beta = np.sqrt(np.einsum("i,i->", w, w))
        t[j, j] = alpha
        j += 1
        restart = j == LANCZOS_BASIS
        if restart or j % keep == 0 or beta == 0.0:
            theta, s = _lowest_eigenpairs(t[:j, :j], keep if restart else 1)
            if beta * abs(s[-1, 0]) <= LANCZOS_TOL * max(abs(theta[0]), floor):
                break
            if restart:                             # keep the lowest Ritz vectors
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
    return theta[0], y / np.sqrt(np.sum(y**2))


def _lowest_eigenpairs(t: np.ndarray, count: int):
    """The `count` lowest eigenvalues of the symmetric t and their vectors,
    by LAPACK dsyevr, called directly since it runs once every few steps."""
    theta, s, _, _, info = dsyevr(t, range="I", il=1, iu=count)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    return theta[:count], s


def sign_average(psi: np.ndarray) -> float:
    """Born-weighted mean sign sum_s |psi(s)|^2 sgn(Re psi(s)) of the
    normalized, phase-fixed state, sgn(0) = 0; NaN only for a NaN state.

    The sign is that of the real part, with no tolerance: an ED state is
    real to the bit, and a trained RBM's imaginary parts are SR noise. For
    a truly complex state this is the sign average of its real part.
    """
    psi = fix_phase(normalize(psi))
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


def overlap(psi: np.ndarray, phi: np.ndarray) -> complex:
    """<psi|phi>, summed by numpy's pairwise sums, not by a BLAS dot
    product, which splits long vectors over threads; so the result does not
    depend on the BLAS thread count."""
    return np.sum(np.conj(psi) * phi)


def infidelity(phi: np.ndarray, psi: np.ndarray) -> float:
    """1 - |<psi|phi>|^2 / (<psi|psi><phi|phi>), global-phase invariant,
    from the overlap of the normalized states; NaN for a non-finite state."""
    phi, psi = np.asarray(phi, complex), np.asarray(psi, complex)
    check_state_pair(phi, psi)
    x = 1.0 - abs(overlap(normalize(psi), normalize(phi))) ** 2
    return 0.0 if x <= 0.0 else float(x)


def relative_energy_error(e_var: float, e0: float) -> float:
    """|e_var - e0| / |e0|."""
    if e0 == 0:
        raise ValueError("relative energy error undefined for e0 = 0")
    return abs(e_var - e0) / abs(e0)


def sorted_probabilities(psi: np.ndarray):
    """(probability, sign) pairs of the normalized, phase-fixed state,
    sorted by ascending probability; the sign is sgn(Re psi), as in
    `sign_average`."""
    psi = fix_phase(normalize(psi))
    probs = np.abs(psi) ** 2
    order = np.argsort(probs, kind="stable")
    return list(zip(probs[order].tolist(), np.sign(psi.real)[order].tolist()))
