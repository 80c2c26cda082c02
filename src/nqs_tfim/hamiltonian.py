"""Rotated transverse-field Ising chain with open boundaries.

H(theta) = -sum_{i<L-1} sz~_i sz~_{i+1} - lambda * sum_i sx~_i, where the
rotated Paulis are sx~ = cos(t) sx + sin(t) sz and sz~ = cos(t) sz - sin(t) sx.
Expanding gives a fixed collection of X/Z Pauli strings with real
coefficients, stored as (x_mask, z_mask, coeff) triples. The matrix element
of coeff * Z_A X_B between <s| and |s'> is nonzero only for s' = s ^ B and
then equals coeff * prod_{i in A} s_i.

`matvec` and the other routines that read H's matrix elements use one
scipy.sparse CSR matrix, built on first use and cached on the instance.
Row s holds one entry per flip mask B, at column s ^ B: the sum over the
terms with that mask of coeff * prod_{i in A} s_i (`_mask_table`).

Every H(theta) is a site-by-site real rotation of the unrotated chain,
H(theta) = V H(0) V^T with V = prod_i R_i(theta/2) (`rotate`), and H(0)
commutes with the parity prod_i X_i, which maps x to its complement ~x.
`RotatedTfim.parity_sectors` gives H(0) in the basis (|x> +- |~x>)/sqrt(2),
x < 2^(L-1), as the operators v -> (A +- B) v: A is one half-size CSR
matrix, built by `_mask_table` from H(0)'s term list for those rows only,
and B the top-site flip, one entry of one value per row. Exact
diagonalization solves the two blocks through these operators, rotates
the eigenvectors back and checks them with `apply_from_definition`, which
applies H(theta) as 3L - 2 real 2x2 site maps, with no matrix, no term list
and no `rotate`. So ED forms no full-size matrix of H(0) or H(theta).
"""

from dataclasses import dataclass
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

    def __post_init__(self):
        hilbert.check_sites(self.L)

    @property
    def dim(self) -> int:
        return 1 << self.L

    @cached_property
    def terms(self) -> tuple:
        """The merged (x_mask, z_mask, coeff) Pauli strings of H(theta)."""
        return _build_terms(self.L, self.lam, self.theta)

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
        """(even, odd): H(0) on the parity basis (|x> +- |~x>)/sqrt(2), as the
        functions v -> (A +- B) v of v with 2^(L-1) rows and any trailing
        columns, each mapped alike.

        x runs over [0, 2^(L-1)) and ~x = x ^ (2^L - 1). The rows x of H(0)
        are built from its term list by `_mask_table`, as `elements` builds
        them, and nothing else of H(0) is formed. A is the CSR matrix of the
        flip masks that keep x below 2^(L-1), every mask but the top site's,
        one entry per mask in each row. B[x, y] = H(0)[x, ~y] is the top-site
        flip, one entry per row at column 2^(L-1) - 1 - x, all of one value
        b: -lambda from the table's top-site column, or 0 where
        `_build_terms` drops the field term. So (B v)[x] = b v[::-1][x], and
        parity symmetry makes A + B and A - B the even and odd blocks. For
        L <= 2 the B entry shares its column with an entry of A. Does not
        depend on theta.
        """
        half = self.dim // 2
        rows = np.arange(half, dtype=np.int32)
        masks, data = _mask_table(_build_terms(self.L, self.lam, 0.0), self.L, rows)
        top = masks == half   # H(0) flips single sites, so only this mask leaves the half
        b = float(data[0, top][0]) if top.any() else 0.0
        indptr = np.arange(half + 1, dtype=np.int32) * int(np.count_nonzero(~top))
        a = scipy.sparse.csr_array(
            (data[:, ~top].ravel(), (rows[:, None] ^ masks[~top]).ravel(), indptr),
            shape=(half, half))

        def block(sb):
            def apply(v):   # (A + sb B) v
                w = a @ v
                w += sb * v[::-1]
                return w
            return apply
        return block(b), block(-b)


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


def matvec(h: RotatedTfim, v: np.ndarray) -> np.ndarray:
    """H @ v from the cached CSR matrix, O(n_masks * 2^L), always complex.

    v is applied as two real one-column products, to its real and to its
    imaginary part, so the real matrix is never converted to complex. From
    L = 10 up they are faster than one product to the (2^L, 2) real view,
    scipy's multi-column kernel; the sums are the same.
    """
    m, v = h.elements, np.asarray(v)
    out = np.empty(v.shape, dtype=complex)
    out.real, out.imag = m @ v.real, m @ v.imag
    return out


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


def apply_from_definition(h: RotatedTfim, v: np.ndarray) -> np.ndarray:
    """H(theta) v for a real v of 2^L rows, from the definition
    -sum_i sz~_i sz~_{i+1} - lambda sum_i sx~_i, with no matrix.

    On each pair of entries that differ only in bit i, the one with bit i
    clear first, Z = diag(-1, 1) and X swaps them, so sz~_i = c Z - s X and
    sx~_i = c X + s Z, with c = cos(theta) and s = sin(theta), are real 2x2
    maps. A bond takes two of them and a field term one: 3L - 2 batched
    2x2 products over v, which may carry trailing columns, each mapped
    alike. Uses neither the term list nor `rotate`, so it is an independent
    check of both.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[0] != h.dim:
        raise ValueError(f"vector has {v.shape[0]} rows, H has {h.dim}")
    c, s = np.cos(h.theta), np.sin(h.theta)
    sz = np.array([[-c, -s], [-s, c]])
    sx = np.array([[-s, c], [c, s]])

    def site(m, i, u):   # axis 1 of the reshaped u is bit i
        return (m @ u.reshape(-1, 2, u.size >> (h.L - i))).reshape(u.shape)

    out = np.zeros_like(v)
    for i in range(h.L):
        out -= h.lam * site(sx, i, v)
        if i + 1 < h.L:
            out -= site(sz, i, site(sz, i + 1, v))
    return out


def is_stoquastic(h: RotatedTfim) -> bool:
    """True iff every off-diagonal matrix element is <= STOQUASTIC_TOL."""
    if h.L > DENSE_MAX_SITES:
        raise ValueError(f"stoquasticity scan refused for L={h.L} > {DENSE_MAX_SITES}")
    m = h.elements.tocoo()
    return not np.any(m.data[m.row != m.col] > STOQUASTIC_TOL)


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
