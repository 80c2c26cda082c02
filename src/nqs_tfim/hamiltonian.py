"""Rotated transverse-field Ising chain with open boundaries.

H(theta) = -sum_{i<L-1} sz~_i sz~_{i+1} - lambda * sum_i sx~_i, where the
rotated Paulis are sx~ = cos(t) sx + sin(t) sz and sz~ = cos(t) sz - sin(t) sx.
Expanding gives a fixed collection of X/Z Pauli strings with real
coefficients, stored as (x_mask, z_mask, coeff) triples. The matrix element
of coeff * Z_A X_B between <s| and |s'> is nonzero only for s' = s ^ B and
then equals coeff * prod_{i in A} s_i.

Every routine that applies H to a full vector reads one scipy.sparse CSR
matrix, built on first use and cached on the instance. Row s holds one
entry per flip mask B, at column s ^ B: the sum over the terms with that
mask of coeff * prod_{i in A} s_i (`_mask_table`). `row` works from the
term list directly and serves as the independent oracle.

Every H(theta) is a site-by-site real rotation of the unrotated chain,
H(theta) = V H(0) V^T with V = prod_i R_i(theta/2) (`rotate`), and H(0)
commutes with the parity prod_i X_i, which maps x to its complement ~x.
`RotatedTfim.parity_sectors` gives the two blocks of H(0) in the basis
(|x> +- |~x>)/sqrt(2), x < 2^(L-1), built by `_mask_table` from H(0)'s
term list for the rows x < 2^(L-1) only, so no full-size matrix of H(0) is
formed; exact diagonalization solves them and rotates the eigenvectors back.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from . import hilbert

DENSE_MAX_SITES = 14
COEFF_DROP_TOL = 1e-14
STOQUASTIC_TOL = 1e-12


@dataclass(frozen=True)
class RotatedTfim:
    L: int
    lam: float
    theta: float
    terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        hilbert.check_sites(self.L)
        object.__setattr__(self, "terms", _build_terms(self.L, self.lam, self.theta))

    @property
    def dim(self) -> int:
        return 1 << self.L

    @cached_property
    def elements(self) -> scipy.sparse.csr_array:
        """H as a CSR matrix with one entry per flip mask in every row.

        Masks are stored in ascending order; the entries are those of
        `_mask_table`. Takes n_masks * 2^L * 12 bytes.
        """
        idx = np.arange(self.dim, dtype=np.int32)
        masks, data = _mask_table(self.terms, self.L, idx)
        indptr = np.arange(self.dim + 1, dtype=np.int32) * len(masks)
        return scipy.sparse.csr_array(
            (data.ravel(), (idx[:, None] ^ masks).ravel(), indptr),
            shape=(self.dim, self.dim))

    @cached_property
    def parity_sectors(self) -> tuple:
        """(even, odd) blocks of H(0) on the parity basis (|x> +- |~x>)/sqrt(2).

        x runs over [0, 2^(L-1)) and ~x = x ^ (2^L - 1). The rows x of H(0)
        are built from its term list by `_mask_table`, as `elements` builds
        them, and nothing else of H(0) is formed. With A the columns
        y < 2^(L-1) of those rows and B[x, y] = H(0)[x, ~y] the others, the
        blocks are A + B and A - B: parity symmetry gives
        H(0)[~x, ~y] = H(0)[x, y]. An entry at column c >= 2^(L-1) goes to
        column ~c. Each row keeps one entry per flip mask, so for L <= 2,
        where A and B share a column, that column holds two entries, which
        every product of the CSR matrix adds. Does not depend on theta.
        """
        half = self.dim // 2
        rows = np.arange(half, dtype=np.int32)
        masks, data = _mask_table(_build_terms(self.L, self.lam, 0.0), self.L, rows)
        cols = rows[:, None] ^ masks
        in_b = cols >= half
        cols = np.where(in_b, self.dim - 1 - cols, cols).ravel()
        indptr = np.arange(half + 1, dtype=np.int32) * len(masks)
        return tuple(   # A + B, A - B; own index arrays, as scipy may sort them in place
            scipy.sparse.csr_array((np.where(in_b, sign * data, data).ravel(),
                                    cols.copy(), indptr.copy()), shape=(half, half))
            for sign in (1.0, -1.0))


def _mask_table(terms, L, rows):
    """(masks, data): the ascending flip masks of `terms`, as int32, and
    data[r, k], the entry of row rows[r] at column rows[r] ^ masks[k].

    An entry is the sum of its mask's terms, added in `terms` order starting
    from 0.0. A term's sign is the product of the +-1 spin columns of the
    sites in its z-mask, formed once as int8.
    """
    masks = sorted({x_mask for x_mask, _, _ in terms})
    column = {x_mask: k for k, x_mask in enumerate(masks)}
    spins = [(2 * ((rows >> i) & 1) - 1).astype(np.int8) for i in range(L)]
    data = np.zeros((len(rows), len(masks)))
    for x_mask, z_mask, coeff in terms:
        sign = np.ones(len(rows), dtype=np.int8)
        for i in range(L):
            if z_mask >> i & 1:
                sign *= spins[i]
        data[:, column[x_mask]] += coeff * sign
    return np.array(masks, dtype=np.int32), data


def _build_terms(L, lam, theta):
    c, s = np.cos(theta), np.sin(theta)
    acc = {}

    def add(x_mask, z_mask, coeff):
        key = (x_mask, z_mask)
        acc[key] = acc.get(key, 0.0) + coeff

    for i in range(L - 1):
        zi, zj = 1 << i, 1 << (i + 1)
        # (c Z - s X)_i (c Z - s X)_{i+1} with overall minus sign
        add(0, zi | zj, -c * c)
        add(zj, zi, c * s)       # Z_i X_{i+1}
        add(zi, zj, c * s)       # X_i Z_{i+1}
        add(zi | zj, 0, -s * s)
    for i in range(L):
        m = 1 << i
        add(m, 0, -lam * c)
        add(0, m, -lam * s)

    return tuple(
        (x, z, v) for (x, z), v in sorted(acc.items()) if abs(v) > COEFF_DROP_TOL
    )


def row(h: RotatedTfim, s: int):
    """All nonzero matrix elements H_{s s'} of row s.

    Returns a list of (s', amplitude) pairs with duplicate targets merged
    and coefficients below the drop tolerance removed.
    """
    hilbert.check_config(s, h.L)
    out = {}
    for x_mask, z_mask, coeff in h.terms:
        sign = 1 - 2 * (int(~s & z_mask & (h.dim - 1)).bit_count() & 1)
        target = s ^ x_mask
        out[target] = out.get(target, 0.0) + coeff * sign
    return [(t, v) for t, v in sorted(out.items()) if abs(v) > COEFF_DROP_TOL]


def dense_matrix(h: RotatedTfim) -> np.ndarray:
    """Full 2^L x 2^L real symmetric matrix (L <= 14)."""
    if h.L > DENSE_MAX_SITES:
        raise ValueError(f"dense matrix refused for L={h.L} > {DENSE_MAX_SITES}")
    return h.elements.toarray()


def matvec(h: RotatedTfim, v: np.ndarray) -> np.ndarray:
    """H @ v from the cached CSR matrix, O(n_masks * 2^L).

    A complex v is applied as one product to its real view, the real and
    imaginary parts side by side, so the real matrix is never converted to
    complex and is read once.
    """
    m = h.elements
    v = np.asarray(v)
    if np.iscomplexobj(v):
        v = np.ascontiguousarray(v, dtype=complex)
        pairs = v.view(np.float64).reshape(len(v), -1)
        return (m @ pairs).view(complex).reshape(v.shape)
    return m @ v


def rotate(h: RotatedTfim, v: np.ndarray) -> np.ndarray:
    """V(theta) v, where V = prod_i R_i(theta/2) and H(theta) = V H(0) V^T.

    R = [[c, -s], [s, c]] with c = cos(theta/2), s = sin(theta/2) acts on
    each pair of entries that differ only in bit i, the one with bit i clear
    (s_i = -1) first: (a, b) -> (c a - s b, s a + c b). One pass per site;
    v has 2^L rows and may carry trailing columns, each rotated alike.
    """
    v = np.array(v, dtype=np.result_type(v, float))
    if v.shape[0] != h.dim:
        raise ValueError(f"vector has {v.shape[0]} rows, H has {h.dim}")
    c, s = np.cos(0.5 * h.theta), np.sin(0.5 * h.theta)
    for i in range(h.L):
        pairs = v.reshape(-1, 2, 1 << i, *v.shape[1:])   # axis 1 is bit i
        a, b = pairs[:, 0], pairs[:, 1]   # views: both new halves are computed first
        pairs[:, 0], pairs[:, 1] = c * a - s * b, s * a + c * b
    return v


def is_stoquastic(h: RotatedTfim) -> bool:
    """True iff every off-diagonal matrix element is <= STOQUASTIC_TOL."""
    if h.L > DENSE_MAX_SITES:
        raise ValueError(f"stoquasticity scan refused for L={h.L} > {DENSE_MAX_SITES}")
    m = h.elements.tocoo()
    return not np.any(m.data[m.row != m.col] > STOQUASTIC_TOL)


def phase_amplitude_decomposition(h: RotatedTfim, s: int, sp: int):
    """Write H_{s' s} = -|H| * exp(i Theta); returns (|H|, Theta).

    Elements are real, so Theta is 0 (negative element) or pi (positive).
    """
    amp = dict(row(h, s)).get(sp)
    if amp is None:
        raise ValueError(f"H[{s},{sp}] is zero; phase undefined")
    return abs(amp), (0.0 if amp < 0 else np.pi)


def stoquastic_energy(h: RotatedTfim, amplitudes: np.ndarray) -> float:
    """Sign-free energy: off-diagonal elements replaced by -|H_{s's}|.

    Returns (sum_s H_ss A(s)^2 - sum_{s != s'} |H_{s's}| A(s') A(s)) / sum A^2,
    the variational energy an amplitude-only (phase-free) optimizer sees.
    Diagonal elements keep their sign: they couple to |A|^2 only and carry
    no phase interference, so taking their magnitude would change the
    energy even for exactly uniform phases.
    """
    a = np.asarray(amplitudes, dtype=float)
    norm = np.sum(a * a)
    if norm == 0:
        raise ValueError("amplitude vector is identically zero")
    m = h.elements.tocoo()
    sign_free = np.where(m.row == m.col, m.data, -np.abs(m.data))
    return np.sum(sign_free * a[m.row] * a[m.col]) / norm


def parity_expectation(h: RotatedTfim, psi: np.ndarray) -> float:
    """<psi| prod_i sx~_i(theta) |psi> for a normalized state.

    prod_i sx~_i = V P V^T = V^2 P: P = prod_i X_i reverses a vector, and
    P V^T P = V since X R^T X = R on each site.
    """
    return float(np.vdot(psi, rotate(h, rotate(h, psi[::-1]))).real)
