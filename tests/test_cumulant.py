import numpy as np
import pytest
import scipy.linalg

from nqs_tfim import cumulant, exact, hilbert, rbm
from nqs_tfim.hamiltonian import RotatedTfim
from nqs_tfim.rbm import RbmParameters

from conftest import reconstruct


def product_over_subset(s, mask, L):
    """S_A(s) = prod_{i in A} s_i computed spin by spin (oracle)."""
    out = 1.0
    for i in range(L):
        if (mask >> i) & 1:
            out *= 1 if (s >> i) & 1 else -1
    return out


def brute_force_coefficients(psi, L):
    """c_A from a dense linear solve of log psi = sum_A c_A S_A (oracle)."""
    n = 1 << L
    design = np.array(
        [[product_over_subset(s, a, L) for a in range(n)] for s in range(n)]
    )
    log_psi = np.log(np.abs(psi)) + 1j * np.angle(psi)
    return np.linalg.solve(design, log_psi)


# ----------------------------------------------------------------------- fwht

def test_fwht_length_two():
    assert np.allclose(cumulant.fwht([1.0, 0.0]), [1.0, 1.0])
    assert np.allclose(cumulant.fwht([3.0, 1.0]), [4.0, 2.0])


def test_fwht_length_four():
    # explicit 4x4 Hadamard matrix oracle
    h2 = np.array([[1, 1], [1, -1]])
    h4 = np.kron(h2, h2)
    v = np.array([1.0, 2.0, -3.0, 0.5])
    assert np.allclose(cumulant.fwht(v), h4 @ v)


def test_fwht_self_inverse(rng):
    for L in (1, 3, 5):
        v = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        assert np.allclose(cumulant.fwht(cumulant.fwht(v)), (1 << L) * v)


def test_fwht_matches_hadamard_matrix(rng):
    for L in range(1, 9):
        v = rng.normal(size=1 << L)
        assert np.allclose(cumulant.fwht(v), scipy.linalg.hadamard(1 << L) @ v)
        v = v + 1j * rng.normal(size=1 << L)
        assert np.allclose(cumulant.fwht(v), scipy.linalg.hadamard(1 << L) @ v)


def loop_fwht(v):
    """The stage-by-stage in-place loop: stage h = 1, 2, 4, ... combines
    the entries h apart within blocks of 2h (oracle for bit identity)."""
    v = np.array(v, dtype=complex)
    h = 1
    while h < v.size:
        pairs = v.reshape(-1, 2, h)
        x, y = pairs[:, 0, :], pairs[:, 1, :]
        a = x + y
        np.subtract(x, y, out=y)
        x[...] = a
        h *= 2
    return v


@pytest.mark.parametrize("L", range(1, 15))
def test_fwht_is_bit_identical_to_stage_loop(rng, L):
    v = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    assert np.array_equal(cumulant.fwht(v), loop_fwht(v))
    assert np.array_equal(cumulant.fwht(v.real), loop_fwht(v.real))


@pytest.mark.parametrize("L", range(1, 15))
def test_fwht_transforms_real_and_imaginary_planes_separately(rng, L):
    x, y = rng.normal(size=1 << L), rng.normal(size=1 << L)
    both = cumulant.fwht(x + 1j * y)
    assert np.array_equal(both, cumulant.fwht(x) + 1j * cumulant.fwht(y))
    assert both.real.tobytes() == cumulant.fwht(x).real.tobytes()
    assert both.imag.tobytes() == cumulant.fwht(y).real.tobytes()


def test_fwht_leaves_its_input_alone(rng):
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    before = v.copy()
    out = cumulant.fwht(v)
    assert np.array_equal(v, before)
    assert not np.shares_memory(out, v)
    assert np.array_equal(cumulant.fwht([2.5]), [2.5])


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        cumulant.fwht([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cumulant.fwht([])


def test_subset_orders():
    assert list(cumulant.subset_orders(3)) == [0, 1, 1, 2, 1, 2, 2, 3]


# --------------------------------------------------------------- coefficients

def test_coefficients_match_dense_solve_oracle(rng):
    L = 4
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    psi += 3.0  # keep amplitudes away from zero
    psi = exact.fix_phase(exact.normalize(psi))
    coeffs = cumulant.cumulant_coefficients(psi)
    assert np.allclose(coeffs, brute_force_coefficients(psi, L), atol=1e-10)


def test_uniform_state_is_constant_only():
    L = 3
    psi = np.full(1 << L, 1.0 / np.sqrt(1 << L), dtype=complex)
    c = cumulant.cumulant_coefficients(psi)
    assert np.allclose(c[1:], 0.0, atol=1e-14)
    assert c[0] == pytest.approx(np.log(psi[0].real))


def test_product_state_has_only_single_site_terms(rng):
    # psi(s) = prod_i exp(a_i s_i): coefficients are exactly {c_0, c_{2^i}}
    L = 4
    a = rng.normal(size=L) * 0.4
    spins = hilbert.all_spins(L)
    psi = np.exp(spins @ a).astype(complex)
    psi = exact.fix_phase(exact.normalize(psi))
    coeffs = cumulant.cumulant_coefficients(psi)
    orders = cumulant.subset_orders(L)
    assert np.allclose(coeffs[orders > 1], 0.0, atol=1e-12)
    for i in range(L):
        assert coeffs[1 << i] == pytest.approx(a[i], abs=1e-12)


def test_pair_interaction_state_has_only_pair_terms():
    # psi(s) = exp(J s_0 s_2) puts weight only on c_0 and c_{0b101}
    L = 3
    spins = hilbert.all_spins(L)
    psi = np.exp(0.7 * spins[:, 0] * spins[:, 2]).astype(complex)
    psi = exact.fix_phase(exact.normalize(psi))
    c = cumulant.cumulant_coefficients(psi)
    assert c[0b101] == pytest.approx(0.7, abs=1e-12)
    others = np.ones(1 << L, dtype=bool)
    others[[0, 0b101]] = False
    assert np.allclose(c[others], 0.0, atol=1e-12)


def test_rbm_state_contains_high_orders(rng):
    # a generic RBM is not a pair-factorized ansatz: some order > 2
    # coefficient must be non-negligible
    L = 6
    def cmplx(*shape):
        return rng.normal(0, 0.4, shape) + 1j * rng.normal(0, 0.4, shape)
    w = RbmParameters(cmplx(L), cmplx(L), cmplx(L, L))
    psi = rbm.full_state_vector(w)
    c = cumulant.cumulant_coefficients(psi)
    orders = cumulant.subset_orders(L)
    assert np.max(np.abs(c[orders > 2])) > 1e-6


def test_coefficients_reject_all_zero():
    with pytest.raises(ValueError):
        cumulant.cumulant_coefficients(np.zeros(8, dtype=complex))


def test_coefficients_reject_bad_length():
    with pytest.raises(ValueError):
        cumulant.cumulant_coefficients(np.ones(6, dtype=complex))


def test_zero_amplitudes_are_clamped():
    psi = np.array([1.0, 0.0, 1.0, 1.0], dtype=complex)
    coeffs = cumulant.cumulant_coefficients(psi)
    assert np.all(np.isfinite(coeffs))


# ------------------------------------------------------------- reconstruction

def test_roundtrip_full_reconstruction(rng):
    L = 5
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    psi += 3.0
    psi = exact.fix_phase(exact.normalize(psi))
    coeffs = cumulant.cumulant_coefficients(psi)
    assert exact.infidelity(reconstruct(coeffs), psi) < 1e-12


def test_truncation_with_all_terms_is_exact(rng):
    L = 4
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    psi += 3.0
    psi = exact.fix_phase(exact.normalize(psi))
    coeffs = cumulant.cumulant_coefficients(psi)
    state = reconstruct(coeffs, cumulant.magnitude_ranking(coeffs)[:1 << L])
    assert exact.infidelity(state, psi) < 1e-12


def test_truncation_to_constant_is_uniform(rng):
    # keeping only the (dominant) constant term gives the uniform state
    L = 3
    psi = exact.normalize(np.exp(0.05 * np.arange(8)).astype(complex))
    coeffs = cumulant.cumulant_coefficients(psi)
    kept = cumulant.magnitude_ranking(coeffs)[:1]
    assert kept[0] == 0
    uniform = np.full(8, 1 / np.sqrt(8))
    assert exact.infidelity(reconstruct(coeffs, kept), uniform) < 1e-12


def test_magnitude_ranking_orders_and_ties():
    c = np.array([0.5, 2.0, -2.0, 0.1], dtype=complex)
    ranking = cumulant.magnitude_ranking(c)
    # |c_1| = |c_2| = 2 tie broken by ascending bitmask
    assert list(ranking) == [1, 2, 0, 3]


def test_magnitude_ranking_matches_lexsort_with_ties_and_zeros(rng):
    # magnitudes drawn from a few values, so most entries tie; about two in
    # seven are exact zeros, half of them with a negative-zero real part
    L = 8
    values = np.array([0.0, -0.0, 0.25, -0.25, 0.25j, 1.0, -1.0])
    for _ in range(5):
        c = rng.choice(values, size=1 << L) + 0j
        expected = np.lexsort((np.arange(c.size), -np.abs(c)))
        got = cumulant.magnitude_ranking(c)
        assert np.array_equal(got, expected)


def reference_curve(source, reference, ns):
    """The infidelity curve rebuilt from `reconstruct` and `exact.infidelity`
    one N at a time (oracle)."""
    coeffs = cumulant.cumulant_coefficients(exact.fix_phase(exact.normalize(source)))
    ranking = cumulant.magnitude_ranking(coeffs)
    return [(int(n), exact.infidelity(reconstruct(coeffs, ranking[: int(n)]),
                                      reference)) for n in ns]


def curve_sources(L, rng):
    """A real ED ground state and a complex perturbation of it."""
    psi = exact.ground_states(RotatedTfim(L, 1.5, 0.3), k=1).states[:, 0]
    noise = rng.normal(size=psi.size) + 1j * rng.normal(size=psi.size)
    perturbed = psi * np.exp(0.3 * noise)
    return psi, perturbed


@pytest.mark.parametrize("L", [4, 9, 12])
def test_infidelity_curve_matches_per_n_reconstruction(rng, L):
    psi, perturbed = curve_sources(L, rng)
    grid = cumulant.default_n_grid(L)   # every N up to L = 10
    if L == 9:
        grid = grid[::3]
    shuffled = rng.permutation(np.concatenate([grid, grid[:: max(1, len(grid) // 20)]]))
    for source in (psi, perturbed):
        for ns in (grid, shuffled):
            got = cumulant.infidelity_curve(source, psi, ns)
            want = reference_curve(source, psi, ns)
            assert [n for n, _ in got] == [n for n, _ in want] == [int(n) for n in ns]
            assert np.allclose([v for _, v in got], [v for _, v in want],
                               rtol=0, atol=1e-13)


def test_infidelity_curve_does_not_depend_on_order_or_repeats(rng):
    psi, perturbed = curve_sources(6, rng)
    ns = np.arange(1, 65)
    ascending = dict(cumulant.infidelity_curve(perturbed, psi, ns))
    mixed = [64, 1, 1, 30, 2, 64, 17, 16, 40, 3]
    for n, value in cumulant.infidelity_curve(perturbed, psi, mixed):
        assert value == ascending[n]


def count_transforms(monkeypatch):
    """Make cumulant.fwht count its calls; returns the counter list."""
    calls, fwht = [], cumulant.fwht
    monkeypatch.setattr(cumulant, "fwht", lambda v: calls.append(1) or fwht(v))
    return calls


@pytest.mark.parametrize("L", [4, 9])
def test_sign_free_curve_pairs_truncations_bit_for_bit(rng, monkeypatch, L):
    psi, _ = curve_sources(L, rng)
    # odd count, unsorted, repeated, and the full expansion N = 2^L
    ns = [5, 1 << L, 3, 3, 1, 12, 1 << L, 2, 7]
    calls = count_transforms(monkeypatch)
    got = cumulant.infidelity_curve(psi, psi, ns)
    assert len(calls) == 1 + (len(ns) + 1) // 2   # coefficients, then one per pair
    for n, value in got:
        assert value == cumulant.infidelity_curve(psi, psi, [n])[0][1]
    assert [n for n, _ in got] == ns
    want = reference_curve(psi, psi, ns)
    assert np.allclose([v for _, v in got], [v for _, v in want], rtol=0, atol=1e-13)


def test_signed_real_curve_takes_one_transform_per_n(rng, monkeypatch):
    psi, _ = curve_sources(6, rng)
    signed = psi.real * np.where(rng.random(psi.size) < 0.2, -1.0, 1.0)
    ns = [40, 2, 64, 2, 9]
    calls = count_transforms(monkeypatch)
    got = cumulant.infidelity_curve(signed, psi, ns)
    assert len(calls) == 1 + len(ns)
    want = reference_curve(signed, psi, ns)
    assert np.allclose([v for _, v in got], [v for _, v in want], rtol=0, atol=1e-13)


def test_negative_zero_imaginary_parts_count_as_sign_free(rng, monkeypatch):
    psi, _ = curve_sources(5, rng)
    source = psi.real.astype(complex)
    source.imag = -0.0
    assert np.all(np.signbit(source.imag))
    ns = [1, 8, 32, 3]
    calls = count_transforms(monkeypatch)
    got = cumulant.infidelity_curve(source, psi, ns)
    assert len(calls) == 1 + len(ns) // 2
    assert got == cumulant.infidelity_curve(psi, psi, ns)


@pytest.mark.parametrize("source, reference, shapes", [
    (np.ones(16), np.ones((4, 4)), r"\(16,\) and \(4, 4\)"),
    (np.ones(16), np.ones(8), r"\(16,\) and \(8,\)"),
    (np.ones((4, 4)), np.ones((4, 4)), r"\(4, 4\) and \(4, 4\)"),
])
def test_state_shape_mismatches_are_refused(source, reference, shapes):
    with pytest.raises(ValueError, match=shapes):
        exact.infidelity(source, reference)
    with pytest.raises(ValueError, match=shapes):
        cumulant.infidelity_curve(source, reference, [1])


@pytest.mark.parametrize("bad", [0, -1, 17])
def test_infidelity_curve_rejects_n_outside_range(bad):
    psi = exact.normalize(np.exp(0.1 * np.arange(16)).astype(complex))
    with pytest.raises(ValueError, match=f"N={bad}"):
        cumulant.infidelity_curve(psi, psi, [1, bad])


def test_infidelity_curve_rejects_zero_reference():
    psi = exact.normalize(np.exp(0.1 * np.arange(8)).astype(complex))
    with pytest.raises(ValueError):
        cumulant.infidelity_curve(psi, np.zeros(8), [1])


def test_infidelity_plateaus_at_truncation_level():
    # truncating the exact ground state: infidelity decreases with N and the
    # full reconstruction is exact
    h = RotatedTfim(6, 1.5, 0.3)
    psi = exact.ground_states(h).states[:, 0]
    psi = exact.fix_phase(psi)
    curve = cumulant.infidelity_curve(psi, psi, [1, 8, 64])
    infs = [inf for _, inf in curve]
    assert infs[0] > infs[1] > infs[2]
    assert infs[2] < 1e-12


def test_default_n_grid(monkeypatch):
    assert np.array_equal(cumulant.default_n_grid(3), np.arange(1, 9))
    monkeypatch.setattr(cumulant, "N_GRID_POINTS", 50)
    grid = cumulant.default_n_grid(12)
    assert grid[0] == 1 and grid[-1] == 1 << 12
    assert np.all(np.diff(grid) > 0)
    assert len(grid) <= 50


def test_coefficient_relative_errors():
    c_exact = np.array([2.0, 1.0, 0.0, 0.5], complex)
    c_model = np.array([2.2, 1.0, 0.3, 0.5], complex)
    ranking, err = cumulant.coefficient_relative_errors(c_model, c_exact)
    assert list(ranking) == [0, 1, 3, 2]
    assert err[0] == pytest.approx(0.1)
    assert err[1] == pytest.approx(0.0)
    assert err[2] == pytest.approx(0.0)
    assert np.isnan(err[3])  # exact coefficient is zero: undefined


def test_coefficient_relative_errors_mismatched_sizes():
    a = np.ones(4, complex)
    b = np.ones(8, complex)
    with pytest.raises(ValueError):
        cumulant.coefficient_relative_errors(a, b)
