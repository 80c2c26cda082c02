import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from nqs_tfim import cumulant, exact, hamiltonian, hilbert, rbm
from nqs_tfim.hamiltonian import RotatedTfim

from conftest import parity_expectation


def test_ground_states_l1():
    summary = exact.ground_states(RotatedTfim(1, 1.0, 0.0), k=2)
    assert np.allclose(summary.energies, [-1.0, 1.0])


def test_ground_states_matches_dense_oracle():
    h = RotatedTfim(2, 1.0, 0.0)
    summary = exact.ground_states(h, k=1)
    ref = np.linalg.eigvalsh(h.elements.toarray())[0]
    assert summary.energies[0] == pytest.approx(ref, abs=1e-12)


def test_ground_states_residuals_and_order():
    h = RotatedTfim(8, 1.2, 0.3)
    summary = exact.ground_states(h, k=2)
    assert np.all(np.diff(summary.energies) >= -1e-12)
    for j in range(2):
        v = summary.states[:, j]
        res = np.linalg.norm(hamiltonian.matvec(h, v) - summary.energies[j] * v)
        assert res < 1e-8


def test_iterative_solver_path():
    # L = 13 is above exact.DENSE_SOLVE_MAX_SITES (9); check the Lanczos
    # branch against theta invariance and its own residuals
    s_a = exact.ground_states(RotatedTfim(13, 1.5, 0.0), k=2)
    s_b = exact.ground_states(RotatedTfim(13, 1.5, 0.3), k=2)
    assert np.allclose(s_a.energies, s_b.energies, atol=1e-8)


def test_lanczos_states_repeat_bit_for_bit():
    h = RotatedTfim(13, 0.5, 0.3)
    s_a, s_b = exact.ground_states(h), exact.ground_states(h)
    assert np.array_equal(s_a.energies, s_b.energies)
    assert np.array_equal(s_a.states, s_b.states)


@pytest.mark.parametrize("L", [4, 5, 6, 8])
def test_ed_columns_do_not_depend_on_k(L):
    # each state is a contiguous column, so what reads it sums in the same
    # order whatever k is
    phi = rbm.full_state_vector(rbm.init_random(L, 1.0, seed=L, scale=0.3))
    ns = cumulant.default_n_grid(L)
    for theta in np.linspace(0.05, 1.5, 8):
        h = RotatedTfim(L, 1.5, theta)
        curves = []
        for k in (1, 2):
            states = exact.ground_states(h, k).states
            assert states.flags.f_contiguous
            curves.append(cumulant.infidelity_curve(phi, states[:, 0], ns))
        assert curves[0] == curves[1], theta


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("lam", [0.5, 1.5])
@pytest.mark.parametrize("L", [9, 10, 11])
def test_dense_and_lanczos_paths_agree(monkeypatch, L, lam, theta):
    h = RotatedTfim(L, lam, theta)
    monkeypatch.setattr(exact, "DENSE_SOLVE_MAX_SITES", hilbert.MAX_SITES)
    dense = exact.ground_states(h, k=2)
    monkeypatch.setattr(exact, "DENSE_SOLVE_MAX_SITES", 0)
    lanczos = exact.ground_states(h, k=2)
    assert np.max(np.abs(dense.energies - lanczos.energies)) < 1e-10
    for j in range(2):
        assert exact.infidelity(dense.states[:, j], lanczos.states[:, j]) < 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("lam", [-0.7, 0.1, 1.0, 1.5])
@pytest.mark.parametrize("L", [10, 11])
def test_lanczos_matches_dense_solve_for_several_levels(monkeypatch, L, lam, theta):
    # at lam < 0 an all-ones start vector is orthogonal to a block's ground
    # state, so the seeded random start is what finds it
    h = RotatedTfim(L, lam, theta)
    monkeypatch.setattr(exact, "DENSE_SOLVE_MAX_SITES", hilbert.MAX_SITES)
    dense = exact.ground_states(h, k=2)
    monkeypatch.setattr(exact, "DENSE_SOLVE_MAX_SITES", 0)
    for k in (1, 2):
        lanczos = exact.ground_states(h, k=k)
        assert np.max(np.abs(lanczos.energies - dense.energies[:k])) < 1e-10, k
        for j in range(k):
            assert exact.infidelity(dense.states[:, j], lanczos.states[:, j]) < 1e-10, (k, j)


def test_lanczos_start_vector_reaches_below_the_all_ones_vector():
    # minus a graph Laplacian on 256 vertices: the all-ones vector is an
    # eigenvector at the top of the spectrum, exactly so in floating point
    # (0/1 edges, 1/sqrt(256) = 1/16), so a Lanczos run started from it
    # stops at once with a zero residual at energy 0
    rng = np.random.default_rng(5)
    edges = scipy.sparse.random(256, 256, density=0.03, random_state=rng)
    edges = ((edges + edges.T) > 0).astype(float)
    edges.setdiag(0.0)
    m = (edges - scipy.sparse.diags(np.asarray(edges.sum(axis=1)).ravel())).tocsr()
    assert not np.any(m @ np.full(256, 1 / 16))
    energy, _ = exact._lanczos(lambda v: m @ v, 256, "test matrix")
    assert abs(energy - np.linalg.eigvalsh(m.toarray())[0]) < 1e-10


def test_lanczos_refuses_to_run_past_its_step_cap(monkeypatch):
    monkeypatch.setattr(exact, "LANCZOS_MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match="in 5 steps for the L=10, lambda=1.5, even parity block"):
        exact.ground_states(RotatedTfim(10, 1.5, 0.3))


def test_call_at_nonzero_theta_builds_no_matrix_of_h(monkeypatch):
    # the blocks of H(0) come from its term list, and the residual check
    # applies H(theta) from its definition
    built = []
    build = RotatedTfim.elements.func

    def counting_build(h):
        built.append(h.theta)
        return build(h)

    elements = functools.cached_property(counting_build)
    elements.__set_name__(RotatedTfim, "elements")
    monkeypatch.setattr(RotatedTfim, "elements", elements)
    for L in (6, 10):
        built.clear()
        exact.ground_states(RotatedTfim(L, 1.5, 0.3))
        assert built == []


def test_call_at_lanczos_size_allocates_no_full_size_matrix():
    # 2.33 MB at L = 12 while the check built the CSR matrix of H(theta) and
    # the two blocks had their own matrices; 0.97 MB with one half-size
    # matrix of H(0) and a matrix-free check
    exact.ground_states(RotatedTfim(12, 1.5, 0.3))   # warm-up, outside the trace
    tracemalloc.start()
    try:
        exact.ground_states(RotatedTfim(12, 1.5, 0.3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25e6


@pytest.mark.parametrize("L", [6, 12])
def test_residual_check_catches_a_wrong_rotation(monkeypatch, L):
    # the check applies H(theta) from its definition, not through `rotate`,
    # so states rotated by -theta fail it
    rotate = hamiltonian.rotate
    monkeypatch.setattr(hamiltonian, "rotate",
                        lambda h, v: rotate(RotatedTfim(h.L, h.lam, -h.theta), v))
    with pytest.raises(RuntimeError, match="eigenpair 0 residual"):
        exact.ground_states(RotatedTfim(L, 1.5, 0.3))


def test_gap_shrinks_in_broken_phase():
    gaps = {}
    for lam in (0.5, 1.0, 2.0):
        gaps[lam] = exact.ground_states(RotatedTfim(10, lam, 0.0), k=2).gap
    assert gaps[1.0] / gaps[2.0] < 0.2
    assert gaps[0.5] < gaps[1.0]


def test_eigenvalue_theta_invariance():
    ref = exact.ground_states(RotatedTfim(10, 0.9, 0.0), k=2).energies
    for theta in (0.1 * np.pi, 0.5 * np.pi):
        ev = exact.ground_states(RotatedTfim(10, 0.9, theta), k=2).energies
        assert np.max(np.abs(ev - ref)) < 1e-9


def test_sign_average_examples():
    v = exact.normalize(np.ones(8, dtype=complex))
    assert exact.sign_average(v) == pytest.approx(1.0)
    assert exact.sign_average(np.array([1, -1]) / np.sqrt(2)) == pytest.approx(0.0)


def test_sign_average_perron_frobenius():
    for L, lam, theta in [(6, 1.5, 0.0), (6, 0.5, 0.0), (6, 1.5, np.pi / 2)]:
        h = RotatedTfim(L, lam, theta)
        assert hamiltonian.is_stoquastic(h)
        psi = exact.ground_states(h, k=1).states[:, 0]
        assert exact.sign_average(psi) == pytest.approx(1.0, abs=1e-10)


def test_sign_average_of_a_complex_state_reads_its_real_part():
    # after phase fixing the signs of the real parts are +, 0, +, 0
    v = exact.normalize(np.array([1.0, 1.0j, 0.5, 0.0]))
    assert exact.sign_average(v) == pytest.approx(1.25 / 2.25)


def test_signs_of_a_noisy_state_are_those_of_its_real_part():
    # an ED state with a sign structure, plus imaginary noise of the size
    # that SR leaves on a trained RBM
    psi = exact.ground_states(RotatedTfim(6, 0.5, 0.25 * np.pi), k=1).states[:, 0]
    noisy = exact.normalize(psi + 1e-2j * np.random.default_rng(6).standard_normal(64))
    assert exact.sign_average(psi) < 0.9
    # the noise moves Born weight of about 6e-3 between configurations
    assert exact.sign_average(noisy) == pytest.approx(exact.sign_average(psi), abs=1e-3)
    order = np.argsort(np.abs(exact.fix_phase(exact.normalize(noisy))) ** 2, kind="stable")
    assert [s for _, s in exact.sorted_probabilities(noisy)] == np.sign(psi.real)[order].tolist()


def test_fix_phase_pins_largest_amplitude():
    v = np.array([0.2j, -0.9, 0.1]) / np.linalg.norm([0.2, 0.9, 0.1])
    w = exact.fix_phase(v)
    assert w[1].real > 0
    assert abs(w[1].imag) < 1e-15


def test_degenerate_superpositions_basis_pair():
    plus, minus = exact.degenerate_superpositions(
        np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(plus, [1, 1] / np.sqrt(2))
    assert np.allclose(minus, [1, -1] / np.sqrt(2))


def test_degenerate_superpositions_classical_limit():
    # lambda = 0: parity cat states recombine into the classical products
    L = 4
    dim = 2**L
    up = np.zeros(dim); up[-1] = 1.0
    down = np.zeros(dim); down[0] = 1.0
    cat_even = (up + down) / np.sqrt(2)
    cat_odd = (up - down) / np.sqrt(2)
    plus, minus = exact.degenerate_superpositions(cat_even, cat_odd)
    assert exact.infidelity(plus, up) < 1e-14
    assert exact.infidelity(minus, down) < 1e-14


def test_infidelity_examples(rng):
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert exact.infidelity(v, v) == pytest.approx(0.0, abs=1e-14)
    assert exact.infidelity(v, np.exp(0.7j) * v) == pytest.approx(0.0, abs=1e-14)
    a = np.array([1.0, 0.0]); b = np.array([0.0, 2.0])
    assert exact.infidelity(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        exact.infidelity(a, np.zeros(2))


def test_infidelity_of_a_nan_state_is_nan():
    psi = exact.ground_states(RotatedTfim(3, 1.5, 0.3)).states[:, 0]
    nan = np.full(8, np.nan)
    assert np.isnan(exact.infidelity(nan, psi))
    assert np.isnan(exact.infidelity(psi, nan))


def test_relative_energy_error():
    assert exact.relative_energy_error(-10.0, -10.0) == 0.0
    assert exact.relative_energy_error(-9.9, -10.0) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        exact.relative_energy_error(1.0, 0.0)


def test_sorted_probabilities_uniform():
    v = np.full(4, 0.5)
    out = exact.sorted_probabilities(v)
    assert all(p == pytest.approx(0.25) and s == 1.0 for p, s in out)


def test_sorted_probabilities_delta():
    v = np.zeros(4); v[2] = 1.0
    out = exact.sorted_probabilities(v)
    assert out[-1] == (pytest.approx(1.0), 1.0)
    assert all(p == 0.0 and s == 0.0 for p, s in out[:-1])


def test_sorted_probabilities_zero_parity_sector():
    # at theta = pi/2 in the broken phase, the odd-parity sector is empty
    psi = exact.ground_states(RotatedTfim(8, 0.5, np.pi / 2), k=1).states[:, 0]
    out = exact.sorted_probabilities(psi)
    probs = np.array([p for p, _ in out])
    assert np.sum(probs < 1e-20) >= 2**7


def test_near_degeneracy_flag():
    # splitting ~ exp(-L/xi): far below threshold at lambda = 0.1, well
    # above it in the paramagnet
    assert exact.ground_states(RotatedTfim(10, 0.1, 0.0), k=2).near_degenerate
    assert not exact.ground_states(RotatedTfim(10, 2.0, 0.0), k=2).near_degenerate


@pytest.mark.parametrize("L", range(1, 9))
def test_sector_solve_matches_full_spectrum(L):
    for lam in (-1.5, -0.3, 0.0, 0.1, 1.0, 1.5):
        for theta in (0.0, 0.3, np.pi / 2):
            h = RotatedTfim(L, lam, theta)
            ref = np.linalg.eigvalsh(h.elements.toarray())
            for k in (1, 2):
                energies = exact.ground_states(h, k=k).energies
                assert np.max(np.abs(energies - ref[:k])) < 1e-12, (lam, theta, k)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_ferromagnet_doublet_is_a_parity_pair_on_both_paths(monkeypatch, theta):
    # the doublet is split by ~1e-11 here, so a full-space solve returns a
    # rounding-dependent mix of its two states
    h = RotatedTfim(11, 0.1, theta)
    monkeypatch.setattr(exact, "DENSE_SOLVE_MAX_SITES", hilbert.MAX_SITES)
    dense = exact.ground_states(h, k=2)
    monkeypatch.setattr(exact, "DENSE_SOLVE_MAX_SITES", 0)
    lanczos = exact.ground_states(h, k=2)
    for j in range(2):
        assert exact.infidelity(dense.states[:, j], lanczos.states[:, j]) < 1e-10
    for summary in (dense, lanczos):
        parities = [parity_expectation(h, summary.states[:, j]) for j in range(2)]
        assert np.allclose(np.abs(parities), 1.0, atol=1e-10, rtol=0)
        assert parities[0] * parities[1] < 0


def test_even_state_comes_first_when_the_odd_minimum_is_one_ulp_lower(monkeypatch):
    # the doublet at L = 10, lambda = 0.1 is split by far less than the
    # residual tolerance, so its odd energy can be moved onto the even one
    lanczos, found = exact._lanczos, {}

    def odd_one_ulp_lower(block, n, name):
        energy, u = lanczos(block, n, name)
        if "odd" in name:
            return np.nextafter(found["even"], -np.inf), u
        found["even"] = energy
        return energy, u

    monkeypatch.setattr(exact, "_lanczos", odd_one_ulp_lower)
    h = RotatedTfim(10, 0.1, 0.0)
    for k in (1, 2):
        summary = exact.ground_states(h, k=k)
        assert summary.energies[0] == found["even"]
        assert parity_expectation(h, summary.states[:, 0]) == pytest.approx(1.0, abs=1e-10)
    assert -1e-12 * abs(found["even"]) < summary.gap < 0


@pytest.mark.parametrize("L, k", [(3, 0), (3, -1), (3, 3), (3, 9), (11, 4), (11, 1024)])
def test_ground_states_checks_k_before_solving(L, k):
    h = RotatedTfim(L, 1.0, 0.3)
    with pytest.raises(ValueError, match=f"k={k}"):
        exact.ground_states(h, k=k)
    assert "parity_sectors" not in h.__dict__

