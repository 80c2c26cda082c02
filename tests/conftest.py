import numpy as np
import pytest

from nqs_tfim import cumulant, exact, hamiltonian, hilbert, rbm, sr


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Single-site operators in the packaged bit convention: bit set <-> s = +1,
# so Z must have eigenvalue +1 on index 1.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
PAULI_Y = 1j * PAULI_X @ PAULI_Z          # [[0, i], [-i, 0]] in this ordering
IDENTITY = np.eye(2)


def site_operator(op, i, L):
    """Kronecker embedding of a single-site operator; site 0 is the least
    significant bit, hence the last kron factor."""
    out = np.eye(1)
    for k in reversed(range(L)):
        out = np.kron(out, op if k == i else IDENTITY)
    return out


def kron_hamiltonian(L, lam, theta):
    """Independent dense assembly of the rotated TFIM from explicit
    Kronecker products of 2x2 matrices."""
    c, s = np.cos(theta), np.sin(theta)
    sx = [site_operator(PAULI_X, i, L) for i in range(L)]
    sz = [site_operator(PAULI_Z, i, L) for i in range(L)]
    xt = [c * sx[i] + s * sz[i] for i in range(L)]
    zt = [c * sz[i] - s * sx[i] for i in range(L)]
    h = np.zeros((2**L, 2**L))
    for i in range(L - 1):
        h -= zt[i] @ zt[i + 1]
    for i in range(L):
        h -= lam * xt[i]
    return h


def i_sigma_y(j, L):
    """Matrix of i*sigma^y_j in the packaged bit convention."""
    return site_operator(1j * PAULI_Y, j, L)


# ---------------------------------------------------------------------------
# Independent references that tests compare the package against; the package
# itself computes each of these another way.

def row(h, s):
    """All nonzero matrix elements H_{s s'} of row s, from H's term list.

    Returns a list of (s', amplitude) pairs with duplicate targets merged
    and coefficients below the drop tolerance removed.
    """
    out = {}
    for x_mask, z_mask, coeff in h.terms:
        sign = 1 - 2 * (int(~s & z_mask & (h.dim - 1)).bit_count() & 1)
        target = s ^ x_mask
        out[target] = out.get(target, 0.0) + coeff * sign
    return [(t, v) for t, v in sorted(out.items()) if abs(v) > hamiltonian.COEFF_DROP_TOL]


def local_energy(h, w, s):
    """Local energy of a single configuration from `row` and amplitude ratios."""
    lp = rbm.log_psi_all(w)
    total = 0.0 + 0.0j
    for sp, amp in row(h, s):
        total += amp * np.exp(lp[sp] - lp[s])
    return complex(total)


def parity_in_mask(indices, mask):
    """Product of spins over the sites in `mask`, for each index (+1/-1)."""
    idx = np.asarray(indices, dtype=np.uint64)
    down = np.bitwise_count(~idx & np.uint64(mask))
    return (1 - 2 * (down.astype(np.int64) & 1)).astype(np.float64)


def parity_expectation(h, psi):
    """<psi| prod_i sx~_i(theta) |psi> for a normalized state.

    prod_i sx~_i = V P V^T = V^2 P: P = prod_i X_i reverses a vector, and
    P V^T P = V since X R^T X = R on each site.
    """
    return float(np.vdot(psi, hamiltonian.rotate(h, hamiltonian.rotate(h, psi[::-1]))).real)


def log_derivatives_all(w):
    """(2^L, n_var) matrix of log-derivatives O_k(s) = d log Psi / d omega_k
    for every configuration, in flat parameter order."""
    s = hilbert.all_spins(w.L)
    t = np.tanh(s @ w.W + w.b)
    sw = s[:, :, None] * t[:, None, :]
    return np.concatenate(
        [s.astype(complex), t, sw.reshape(s.shape[0], -1)], axis=1
    )


def expectations(h, w):
    """Exact (energy, forces, S-matrix) of sr's moment build, on a fresh set
    of buffers."""
    energy, _, f, s_mat = sr._full_expectations(h, w, sr._allocate_buffers(w.L, w.M))
    return energy, f, s_mat


def reconstruct(c, kept=None):
    """exp(sum_{A in kept} c_A S_A(s)), normalized and phase-fixed.

    `kept` is an array of subset bitmasks; None keeps everything.
    """
    if kept is not None:
        masked = np.zeros_like(c)
        masked[kept] = c[kept]
        c = masked
    signs = 1.0 - 2.0 * (cumulant.subset_orders(c.size.bit_length() - 1) & 1)
    log_amp = cumulant.fwht(signs * c)
    amps = np.exp(log_amp - np.max(log_amp.real))
    return exact.fix_phase(exact.normalize(amps))
