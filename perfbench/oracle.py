"""Free-fermion oracle for the open transverse-field Ising chain.

A basis rotation by theta is unitary, so H(theta) has the spectrum of
H(0) = -sum Z_i Z_{i+1} - lam sum X_i for every theta. Through the
Jordan-Wigner map H(0) is a free-fermion chain whose single-particle
energies are the singular values eps_k of the L x L bidiagonal matrix with
lam on the diagonal and 1 on the superdiagonal. The open chain has no
parity constraint, so every level is E0 + 2 sum_k n_k eps_k.
"""

import numpy as np


def single_particle_energies(L: int, lam: float) -> np.ndarray:
    """Ascending eps_k >= 0 of the open chain."""
    m = np.diag(np.full(L, float(lam))) + np.diag(np.ones(L - 1), 1)
    return np.sort(np.linalg.svd(m, compute_uv=False))


def lowest_energies(L: int, lam: float) -> tuple[float, float]:
    """(E0, E1): the ground energy and the first level above it."""
    eps = single_particle_energies(L, lam)
    e0 = -float(np.sum(eps))
    return e0, e0 + 2.0 * float(eps[0])
