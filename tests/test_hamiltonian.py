import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from nqs_tfim import exact, hamiltonian, sr
from nqs_tfim.hamiltonian import RotatedTfim

from conftest import (kron_hamiltonian, parity_expectation, parity_in_mask, row,
                      site_operator, PAULI_X)


def row_as_dict(h, s):
    return dict(row(h, s))


def test_row_l2_theta0():
    h = RotatedTfim(2, 1.0, 0.0)
    r = row_as_dict(h, 0b11)
    assert r == {0b11: pytest.approx(-1.0), 0b01: pytest.approx(-1.0),
                 0b10: pytest.approx(-1.0)}


def test_row_l1_no_bond():
    h = RotatedTfim(1, 0.7, 0.0)
    r = row_as_dict(h, 0b0)
    assert r == {0b1: pytest.approx(-0.7)}
    # diagonal is zero and therefore dropped from the row


def test_row_matches_kron_oracle(rng):
    for L, lam, theta in [(2, 1.0, np.pi / 2), (3, 0.7, 0.3), (4, 1.5, 2.5),
                          (5, 0.5, np.pi)]:
        h = RotatedTfim(L, lam, theta)
        m = kron_hamiltonian(L, lam, theta)
        for s in rng.integers(0, 2**L, size=8):
            s = int(s)
            r = row_as_dict(h, s)
            dense_row = m[s]
            for sp in range(2**L):
                assert r.get(sp, 0.0) == pytest.approx(dense_row[sp], abs=1e-12)


def test_row_connectivity_bound(rng):
    for L in (3, 6):
        h = RotatedTfim(L, 1.3, 0.4)
        for s in rng.integers(0, 2**L, size=10):
            assert len(row(h, int(s))) <= 1 + 2 * L + 3 * (L - 1)


def test_dense_l1_examples():
    m = RotatedTfim(1, 1.0, 0.0).elements.toarray()
    assert np.allclose(m, [[0, -1], [-1, 0]])
    # -lambda*sigma-z with bit set <-> s = +1: index 1 carries eigenvalue +1
    m = RotatedTfim(1, 1.0, np.pi / 2).elements.toarray()
    assert np.allclose(m, [[1, 0], [0, -1]])


def test_dense_l2_theta0():
    m = RotatedTfim(2, 1.0, 0.0).elements.toarray()
    assert np.allclose(np.diag(m), [-1, 1, 1, -1])
    assert np.allclose(m, kron_hamiltonian(2, 1.0, 0.0))


def test_dense_matches_kron_oracle():
    for L, lam, theta in [(3, 1.5, 0.38 * np.pi), (4, 0.5, 0.46 * np.pi)]:
        m = RotatedTfim(L, lam, theta).elements.toarray()
        assert np.allclose(m, kron_hamiltonian(L, lam, theta), atol=1e-12)


def test_dense_symmetric():
    m = RotatedTfim(6, 1.2, 1.1).elements.toarray()
    assert np.max(np.abs(m - m.T)) < 1e-12


def test_matvec_matches_dense(rng):
    h = RotatedTfim(5, 0.8, 0.7)
    m = h.elements.toarray()
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert np.allclose(hamiltonian.matvec(h, v), m @ v)


def test_complex_matvec_is_bit_identical_to_two_real_products(rng):
    h = RotatedTfim(7, 0.8, 0.7)
    v = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    hv = hamiltonian.matvec(h, v)
    assert np.array_equal(hv.real, hamiltonian.matvec(h, v.real.copy()))
    assert np.array_equal(hv.imag, hamiltonian.matvec(h, v.imag.copy()))


@pytest.mark.parametrize("L", range(1, 9))
def test_apply_from_definition_matches_dense(L, rng):
    for lam, theta in [(1.5, 0.7), (0.5, 0.3), (-0.7, 1.1), (0.0, np.pi / 2)]:
        h = RotatedTfim(L, lam, theta)
        m = h.elements.toarray()
        v = rng.normal(size=(h.dim, 3))
        assert np.allclose(hamiltonian.apply_from_definition(h, v), m @ v, rtol=0, atol=1e-12)
        assert np.allclose(hamiltonian.apply_from_definition(h, v[:, 0]), m @ v[:, 0],
                           rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        hamiltonian.apply_from_definition(h, np.ones(h.dim // 2))


def row_oracle_matrix(h):
    m = np.zeros((h.dim, h.dim))
    for s in range(h.dim):
        for sp, amp in row(h, s):
            m[s, sp] = amp
    return m


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi])
@pytest.mark.parametrize("L", range(1, 8))
def test_element_table_matches_row_oracle(L, theta, rng):
    # at pi/2 and pi some expanded coefficients fall below COEFF_DROP_TOL
    h = RotatedTfim(L, 0.9, theta)
    m = row_oracle_matrix(h)
    assert np.allclose(h.elements.toarray(), m, rtol=0, atol=1e-12)
    psi = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    hv = hamiltonian.matvec(h, psi)
    assert np.allclose(hv, m @ psi, rtol=0, atol=1e-12)
    assert np.array_equal(sr.local_energies(h, psi), hv / psi)


def test_element_table_is_built_lazily():
    tracemalloc.start()
    try:
        h = RotatedTfim(24, 1.0, 0.3)
        row(h, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "elements" not in vars(h)


def test_dense_matrix_matches_per_term_accumulation():
    # entries are sums of the terms sharing a flip mask, added in term order
    h = RotatedTfim(6, 1.3, 0.4)
    idx = np.arange(h.dim)
    ref = np.zeros((h.dim, h.dim))
    for x_mask, z_mask, coeff in h.terms:
        ref[idx, idx ^ x_mask] += coeff * parity_in_mask(idx, z_mask)
    assert np.array_equal(h.elements.toarray(), ref)


def per_term_elements(h):
    """The CSR arrays built with one parity_in_mask per term (oracle)."""
    idx = np.arange(h.dim, dtype=np.int32)
    masks = sorted({x_mask for x_mask, _, _ in h.terms})
    column = {x_mask: k for k, x_mask in enumerate(masks)}
    data = np.zeros((h.dim, len(masks)))
    for x_mask, z_mask, coeff in h.terms:
        data[:, column[x_mask]] += coeff * parity_in_mask(idx, z_mask)
    indices = idx[:, None] ^ np.array(masks, dtype=np.int32)
    indptr = np.arange(h.dim + 1, dtype=np.int32) * len(masks)
    return data.ravel(), indices.ravel(), indptr


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi])
@pytest.mark.parametrize("L", [1, 2, 6, 12, 14])
def test_element_table_is_bit_identical_to_per_term_build(L, theta):
    m = RotatedTfim(L, 0.9, theta).elements
    data, indices, indptr = per_term_elements(RotatedTfim(L, 0.9, theta))
    assert np.array_equal(m.data, data)
    assert np.array_equal(np.signbit(m.data), np.signbit(data))
    assert np.array_equal(m.indices, indices)
    assert np.array_equal(m.indptr, indptr)


@pytest.mark.parametrize("L", [10, 12])
def test_matvec_matches_dense_at_lanczos_sizes(L, rng):
    h = RotatedTfim(L, 1.1, 0.3)
    m = h.elements.toarray()
    v = rng.normal(size=h.dim)
    assert np.allclose(hamiltonian.matvec(h, v), m @ v, rtol=0, atol=1e-12)
    v = v + 1j * rng.normal(size=h.dim)
    assert np.allclose(hamiltonian.matvec(h, v), m @ v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi])
@pytest.mark.parametrize("L", range(2, 9))
def test_stoquastic_scans_match_dense_reference(L, theta, rng):
    h = RotatedTfim(L, 0.9, theta)
    m = h.elements.toarray()
    diag = np.diag(np.diag(m))
    off = m - diag
    assert hamiltonian.is_stoquastic(h) == bool(np.all(off <= 1e-12))
    sign_free = diag - np.abs(off)
    a = rng.uniform(0.1, 1.0, size=h.dim)
    assert hamiltonian.stoquastic_energy(h, a) == pytest.approx(
        a @ sign_free @ a / (a @ a), rel=1e-12)


def test_spectrum_theta_invariant():
    for L in (2, 5, 8):
        ref = np.linalg.eigvalsh(RotatedTfim(L, 1.3, 0.0).elements.toarray())
        for theta in (0.1 * np.pi, 0.25 * np.pi, 0.5 * np.pi, np.pi):
            ev = np.linalg.eigvalsh(RotatedTfim(L, 1.3, theta).elements.toarray())
            assert np.max(np.abs(ev - ref)) < 1e-10


def test_theta_pi_half_is_hadamard_conjugation():
    # X <-> Z swap: H(pi/2) = Hd H(0) Hd, with the single-site Hadamard
    # written in the packaged bit order, Hd_1 = (X + Z)/sqrt(2)
    from conftest import PAULI_Z
    hd1 = (PAULI_X + PAULI_Z) / np.sqrt(2)
    for L in (2, 4, 6):
        hd = np.eye(1)
        for _ in range(L):
            hd = np.kron(hd, hd1)
        m0 = RotatedTfim(L, 0.9, 0.0).elements.toarray()
        m1 = RotatedTfim(L, 0.9, np.pi / 2).elements.toarray()
        assert np.allclose(m1, hd @ m0 @ hd, atol=1e-12)


def test_is_stoquastic_cases():
    assert hamiltonian.is_stoquastic(RotatedTfim(4, 0.5, 0.0))
    assert hamiltonian.is_stoquastic(RotatedTfim(4, 1.5, np.pi / 2))
    assert not hamiltonian.is_stoquastic(RotatedTfim(4, 1.5, np.pi))
    # at lambda = 1.0 the bond cross-terms beat the field term away from 0, pi/2
    assert not hamiltonian.is_stoquastic(RotatedTfim(4, 1.0, 0.25 * np.pi))


def test_stoquastic_energy_uniform_l1():
    h = RotatedTfim(1, 1.0, 0.0)
    assert hamiltonian.stoquastic_energy(h, np.ones(2)) == pytest.approx(-1.0)


def test_stoquastic_energy_exact_ground_state():
    h = RotatedTfim(6, 1.5, 0.0)
    summary = exact.ground_states(h, k=1)
    amps = np.abs(summary.states[:, 0])
    assert hamiltonian.stoquastic_energy(h, amps) == pytest.approx(
        summary.energies[0], abs=1e-10)


def test_stoquastic_energy_delta_peak():
    # delta state on the ferromagnetic configuration: diagonal is negative,
    # so the sign-free energy is -|H_ss| = H_ss
    h = RotatedTfim(3, 0.9, 0.6)
    s = 0b111
    a = np.zeros(8)
    a[s] = 1.0
    diag = dict(row(h, s))[s]
    assert diag < 0
    assert hamiltonian.stoquastic_energy(h, a) == pytest.approx(-abs(diag))


def test_stoquastic_energy_zero_guard():
    with pytest.raises(ValueError):
        hamiltonian.stoquastic_energy(RotatedTfim(2, 1.0, 0.0), np.zeros(4))


def test_parity_expectation_examples():
    L = 4
    up = np.zeros(2**L, dtype=complex)
    up[-1] = 1.0  # all bits set = all spins up
    h = RotatedTfim(L, 1.0, np.pi / 2)
    assert parity_expectation(h, up) == pytest.approx(1.0)

    uniform = np.full(2**L, 1 / 4.0, dtype=complex)
    h0 = RotatedTfim(L, 1.0, 0.0)
    assert parity_expectation(h0, uniform) == pytest.approx(1.0)


def test_parity_matches_kron_product():
    L, lam, theta = 4, 0.8, 0.3
    h = RotatedTfim(L, lam, theta)
    c, s = np.cos(theta), np.sin(theta)
    from conftest import PAULI_Z
    p = np.eye(2**L)
    for i in range(L):
        p = p @ (c * site_operator(PAULI_X, i, L) + s * site_operator(PAULI_Z, i, L))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    psi /= np.linalg.norm(psi)
    assert parity_expectation(h, psi) == pytest.approx(
        np.real(np.vdot(psi, p @ psi)), abs=1e-12)


def test_parity_commutes_and_labels_doublet():
    h = RotatedTfim(6, 0.5, 0.0)
    summary = exact.ground_states(h, k=2)
    p0 = parity_expectation(h, summary.states[:, 0])
    p1 = parity_expectation(h, summary.states[:, 1])
    assert abs(abs(p0) - 1) < 1e-10
    assert abs(abs(p1) - 1) < 1e-10
    assert p0 * p1 < 0  # opposite parities in the symmetry-broken doublet


@pytest.mark.parametrize("L", range(1, 7))
def test_rotation_maps_unrotated_chain_to_rotated(L):
    h0 = RotatedTfim(L, 0.7, 0.0).elements.toarray()
    for theta in (0.3, np.pi / 2, 2.5):
        h = RotatedTfim(L, 0.7, theta)
        v = hamiltonian.rotate(h, np.eye(h.dim))
        assert np.allclose(v @ v.T, np.eye(h.dim), atol=1e-14)
        assert np.max(np.abs(v @ h0 @ v.T - h.elements.toarray())) < 1e-13


def test_rotate_acts_on_each_column_alike(rng):
    h = RotatedTfim(5, 1.1, 0.8)
    v = rng.normal(size=(h.dim, 3)) + 1j * rng.normal(size=(h.dim, 3))
    w = hamiltonian.rotate(h, v)
    for j in range(3):
        assert np.array_equal(w[:, j], hamiltonian.rotate(h, v[:, j]))
    assert np.array_equal(hamiltonian.rotate(RotatedTfim(5, 1.1, 0.0), v), v)
    with pytest.raises(ValueError):
        hamiltonian.rotate(h, np.ones(h.dim // 2))


def parity_projector(L, sign):
    """Columns (|x> + sign |~x>)/sqrt(2) for x < 2^(L-1)."""
    dim, half = 1 << L, 1 << (L - 1)
    p = np.zeros((dim, half))
    p[np.arange(half), np.arange(half)] = 2**-0.5
    p[dim - 1 - np.arange(half), np.arange(half)] = sign * 2**-0.5
    return p


def dense_sector_blocks(h):
    """A + B and A - B of h.parity_sectors as dense arrays."""
    return [block(np.eye(h.dim // 2)) for block in h.parity_sectors]


@pytest.mark.parametrize("L", range(1, 11))
@pytest.mark.parametrize("lam", [-0.7, 0.0, 0.9])
def test_parity_sector_operators_map_each_column_alike(L, lam, rng):
    h = RotatedTfim(L, lam, 0.3)
    v = rng.normal(size=(h.dim // 2, 3))
    for block in h.parity_sectors:
        w = block(v)
        assert w.shape == v.shape
        for j in range(v.shape[1]):
            assert np.array_equal(w[:, j], block(v[:, j]))


@pytest.mark.parametrize("L", range(1, 7))
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_parity_sectors_are_dense_projections(L, theta):
    h = RotatedTfim(L, 0.9, theta)
    h0 = RotatedTfim(L, 0.9, 0.0).elements.toarray()
    for sign, block in zip((1, -1), dense_sector_blocks(h)):
        p = parity_projector(L, sign)
        assert block.shape == (h.dim // 2, h.dim // 2)
        assert np.max(np.abs(block - p.T @ h0 @ p)) < 1e-14


def test_parity_sectors_are_cached_per_instance():
    h = RotatedTfim(4, 0.9, 0.3)
    assert "parity_sectors" not in h.__dict__
    assert h.parity_sectors is h.parity_sectors
    assert RotatedTfim(4, 0.9, 0.3).parity_sectors is not h.parity_sectors


@pytest.mark.parametrize("L", [1, 2, 3, 6])
def test_parity_sectors_leave_the_matrix_of_h_alone(L):
    # the blocks are built from the term list: h's matrix is neither built
    # nor changed
    h = RotatedTfim(L, 0.9, 0.0)
    h.parity_sectors
    assert "elements" not in vars(h)
    h = RotatedTfim(L, 0.9, 0.0)
    m = h.elements
    before = [a.copy() for a in (m.indptr, m.indices, m.data)]
    h.parity_sectors
    assert h.elements is m
    for a, b in zip(before, (m.indptr, m.indices, m.data)):
        assert np.array_equal(a, b)


def parity_sectors_cut_from_h0(L, lam):
    """The blocks as cut from the rows x < 2^(L-1) of the full CSR matrix
    of H(0), summed and sorted (oracle)."""
    m, half = RotatedTfim(L, lam, 0.0).elements, 1 << (L - 1)
    rows = m.indptr[: half + 1]
    cols, data = m.indices[: rows[-1]], m.data[: rows[-1]]
    in_b = cols >= half
    cols = np.where(in_b, 2 * half - 1 - cols, cols)
    blocks = []
    for sign in (1.0, -1.0):
        block = scipy.sparse.csr_array(
            (np.where(in_b, sign * data, data), cols.copy(), rows.copy()), shape=(half, half))
        block.sum_duplicates()
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("L", range(1, 13))
def test_half_size_blocks_are_bit_identical_to_the_cut_from_h0(L):
    for lam in (-0.7, 0.0, 0.9):
        for theta in (0.0, 0.3):
            new = dense_sector_blocks(RotatedTfim(L, lam, theta))
            for got, want in zip(new, parity_sectors_cut_from_h0(L, lam)):
                want = want.toarray()
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
