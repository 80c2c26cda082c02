import numpy as np
import pytest

from nqs_tfim import exact, hilbert, rbm
from nqs_tfim.rbm import RbmParameters

from conftest import i_sigma_y, log_derivatives_all


def brute_force_psi(w, index):
    """Direct product evaluation of the ansatz, no logs anywhere."""
    s = np.array([1.0 if (index >> i) & 1 else -1.0 for i in range(w.L)])
    val = np.exp(np.sum(w.a * s))
    for j in range(w.M):
        val *= np.cosh(w.b[j] + np.sum(w.W[:, j] * s))
    return val


def random_params(rng, L, alpha=1.0, scale=0.3):
    M = rbm.n_hidden(L, alpha)
    n = L + M + L * M
    vec = rng.normal(0, scale, n) + 1j * rng.normal(0, scale, n)
    return RbmParameters.from_vector(vec, L, M)


def test_log_psi_zero_params_uniform():
    w = RbmParameters(np.zeros(3, complex), np.zeros(3, complex),
                      np.zeros((3, 3), complex))
    lp = rbm.log_psi_all(w)
    for s in range(8):
        assert lp[s] == pytest.approx(0.0)


def test_log_psi_bias_only():
    a0 = 0.37 - 0.12j
    w = RbmParameters(np.array([a0]), np.zeros(1, complex), np.zeros((1, 1), complex))
    lp = rbm.log_psi_all(w)
    assert lp[0b1] == pytest.approx(a0)
    assert lp[0b0] == pytest.approx(-a0)


def test_log_psi_matches_brute_force(rng):
    for _ in range(10):
        w = random_params(rng, 4, alpha=1.5)
        lp = rbm.log_psi_all(w)
        for s in range(16):
            got = np.exp(lp[s])
            assert got == pytest.approx(brute_force_psi(w, s), rel=1e-12)


def test_log_psi_all_consistent(rng):
    # every configuration at once against one configuration at a time
    w = random_params(rng, 5)
    lp = rbm.log_psi_all(w)
    spins = hilbert.all_spins(w.L)
    for s in (0, 7, 19, 31):
        assert lp[s] == pytest.approx(rbm.log_psi_and_tanh(w, spins[s:s + 1])[0][0], rel=1e-12)


def test_log_psi_overflow_safe():
    w = RbmParameters(np.zeros(2, complex), np.full(2, 500.0 + 0j),
                      np.zeros((2, 2), complex))
    lp = rbm.log_psi_all(w)[0b00]
    assert np.isfinite(lp)
    assert lp == pytest.approx(2 * (500.0 - np.log(2)))


def fields_only(b):
    """One site with no couplings, so theta = b for both configurations."""
    b = np.asarray(b, dtype=complex)
    return RbmParameters(np.zeros(1, complex), b, np.zeros((1, len(b)), complex))


def assert_log_psi_and_tanh_match_elementwise(w, s):
    """Fused kernel against np.tanh and the sum of elementwise log cosh, each
    of which errs by a few ulp too: tanh within 8 eps of each value, log Psi
    within 8 eps of the sum of the absolute terms and equal modulo 2 pi i."""
    theta = s @ w.W + w.b
    eps = np.finfo(float).eps
    lp, t = rbm.log_psi_and_tanh(w, s)
    t_ref = np.tanh(theta)
    assert np.all(np.abs(t - t_ref) <= 8 * eps * np.abs(t_ref))
    log_cosh = np.log(np.cosh(theta))
    lp_ref = s @ w.a + np.sum(log_cosh, axis=1)
    scale = np.abs(s @ w.a) + np.sum(np.abs(log_cosh), axis=1)
    assert np.all(np.isfinite(lp))
    assert np.all(np.abs(lp.real - lp_ref.real) <= 8 * eps * scale)
    turns = (lp.imag - lp_ref.imag) / (2 * np.pi)
    assert np.all(np.abs(turns - np.round(turns)) * 2 * np.pi <= 8 * eps * scale)


@pytest.mark.parametrize("b", [
    # |theta| from 1 down to 1e-12, in all four quadrants
    [10.0**-k * np.exp(1j * (0.3 + k * np.pi / 2)) for k in range(13)],
    # Re theta = +-500: exp(-2 theta) overflows for one sign, cosh theta does not
    [500 + 0.2j, -500 + 0.2j, 500 - 3j, -500 + 40j],
    # near the poles theta = i pi (k + 1/2), where cosh theta -> 0
    [0.5j * np.pi + d for d in (1e-3, -1e-3, 1e-3j, 1e-8 + 1e-8j, 0.0, -1e-12)]
    + [-0.5j * np.pi + 1e-6, 1.5j * np.pi - 1e-6j],
    # forty factors of |cosh| ~ 1e-10: their product, 1e-400, underflows
    [0.5j * np.pi + 1e-10 * (1 + 1j * k) for k in range(40)],
])
def test_log_psi_and_tanh_match_elementwise_at_extreme_fields(b):
    s = np.array([[1.0], [-1.0]])
    assert_log_psi_and_tanh_match_elementwise(fields_only(b), s)


def test_log_psi_and_tanh_match_elementwise_over_several_blocks(rng):
    L = 11   # 2048 rows, several blocks of the fused kernel
    assert 2**L > rbm.ROW_BLOCK
    # multiples of 1/256, so that theta is exact however it is summed
    w = RbmParameters.from_vector(
        np.round(random_params(rng, L, alpha=2.0, scale=1.0).to_vector() * 256) / 256,
        L, 2 * L)
    assert_log_psi_and_tanh_match_elementwise(w, hilbert.all_spins(L))


def test_log_derivatives_zero_params():
    w = RbmParameters(np.zeros(2, complex), np.zeros(2, complex),
                      np.zeros((2, 2), complex))
    o = log_derivatives_all(w)[0b01]
    assert np.allclose(o[:2], [1, -1])     # s_i
    assert np.allclose(o[2:], 0.0)         # tanh(0) = 0


def test_log_derivatives_finite_differences(rng):
    step = 1e-6
    for _ in range(10):
        w = random_params(rng, 3, alpha=1.0)
        s = int(rng.integers(0, 8))
        o = log_derivatives_all(w)[s]
        vec = w.to_vector()
        for k in range(w.n_var):
            e = np.zeros_like(vec); e[k] = step
            num = (rbm.log_psi_all(RbmParameters.from_vector(vec + e, w.L, w.M))[s]
                   - rbm.log_psi_all(RbmParameters.from_vector(vec - e, w.L, w.M))[s]) / (2 * step)
            assert abs(num - o[k]) < 1e-6


def test_log_derivatives_flip_negates_bias_entry(rng):
    w = random_params(rng, 4)
    s = 0b0110
    i = 2
    o = log_derivatives_all(w)
    o1, o2 = o[s], o[s ^ (1 << i)]
    assert o2[i] == pytest.approx(-o1[i])


def test_full_state_vector_zero_params():
    w = RbmParameters(np.zeros(3, complex), np.zeros(1, complex),
                      np.zeros((3, 1), complex))
    psi = rbm.full_state_vector(w)
    assert np.allclose(psi, np.full(8, 1 / np.sqrt(8)))


def test_full_state_vector_peaked():
    w = RbmParameters(np.full(3, 10.0 + 0j), np.zeros(1, complex),
                      np.zeros((3, 1), complex))
    psi = rbm.full_state_vector(w)
    target = np.zeros(8); target[-1] = 1.0
    assert exact.infidelity(psi, target) < 1e-8


def test_full_state_vector_normalized(rng):
    w = random_params(rng, 6, scale=0.5)
    assert np.linalg.norm(rbm.full_state_vector(w)) == pytest.approx(1.0, abs=1e-12)


def test_pi_rotation_zero_params_l1():
    w = RbmParameters(np.zeros(1, complex), np.zeros(1, complex),
                      np.zeros((1, 1), complex))
    wr = rbm.apply_pi_rotation(w, 0)
    assert wr.a[0] == pytest.approx(-1j * np.pi / 2)
    psi = rbm.full_state_vector(wr)
    target = i_sigma_y(0, 1) @ rbm.full_state_vector(w)
    assert exact.infidelity(psi, target) < 1e-12


def test_pi_rotation_matches_operator(rng):
    for _ in range(5):
        w = random_params(rng, 4)
        psi = rbm.full_state_vector(w)
        for j in range(4):
            mapped = rbm.full_state_vector(rbm.apply_pi_rotation(w, j))
            target = i_sigma_y(j, 4) @ psi
            assert exact.infidelity(mapped, target) < 1e-10


def test_pi_rotation_twice_is_identity_up_to_sign(rng):
    w = random_params(rng, 3)
    w2 = rbm.apply_pi_rotation(rbm.apply_pi_rotation(w, 1), 1)
    assert exact.infidelity(rbm.full_state_vector(w2), rbm.full_state_vector(w)) < 1e-12


def ndown_phases(L):
    return np.array([np.exp(1j * np.pi * (L - s.bit_count())) for s in range(2**L)])


def test_full_chain_rotation_general(rng):
    # rotating every site: amplitudes pick up exp(i pi N_down(s)) and the
    # argument is globally spin-flipped
    L = 4
    w = random_params(rng, L)
    psi = rbm.full_state_vector(w)
    wr = w
    for j in range(L):
        wr = rbm.apply_pi_rotation(wr, j)
    rotated = rbm.full_state_vector(wr)
    flipped = psi[np.arange(2**L) ^ (2**L - 1)]
    assert exact.infidelity(rotated, ndown_phases(L) * flipped) < 1e-10


def test_full_chain_rotation_is_ndown_phase_on_symmetric_state(rng):
    # for a spin-flip-symmetric state the rule reduces to the pointwise
    # phase factor exp(i pi N_down(s))
    L = 4
    W = rng.normal(0, 0.3, (L, L)) + 1j * rng.normal(0, 0.3, (L, L))
    w = RbmParameters(np.zeros(L, complex), np.zeros(L, complex), W)
    psi = rbm.full_state_vector(w)
    assert np.allclose(psi, psi[np.arange(2**L) ^ (2**L - 1)])  # symmetric
    wr = w
    for j in range(L):
        wr = rbm.apply_pi_rotation(wr, j)
    rotated = rbm.full_state_vector(wr)
    assert exact.infidelity(rotated, ndown_phases(L) * psi) < 1e-10


def test_init_random_determinism_and_counts():
    w1 = rbm.init_random(10, 1.0, seed=42, scale=0.01)
    w2 = rbm.init_random(10, 1.0, seed=42, scale=0.01)
    assert np.array_equal(w1.to_vector(), w2.to_vector())
    assert w1.n_var == 120
    assert rbm.init_random(10, 2.0, seed=0).n_var == 230
    w3 = rbm.init_random(10, 1.0, seed=43, scale=0.01)
    assert not np.array_equal(w1.to_vector(), w3.to_vector())


def test_json_roundtrip(rng):
    w = random_params(rng, 5, alpha=2.0)
    w2 = rbm.from_json(rbm.to_json(w, meta={"seed": 7}))
    assert np.array_equal(w.to_vector(), w2.to_vector())
