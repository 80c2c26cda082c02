"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failing run) and asserts the same condition. The slow
variational criteria share trained states through module-level caches so the
whole file stays within its runtime budget.
"""

import functools

import numpy as np
import pytest

from nqs_tfim import cumulant, exact, hilbert, rbm, sr
from nqs_tfim.hamiltonian import RotatedTfim, is_stoquastic
from nqs_tfim.rbm import RbmParameters
from nqs_tfim.sr import SrConfig

from conftest import i_sigma_y, log_derivatives_all, reconstruct


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_rbm(rng, L, M=None, scale=0.3):
    M = M or L
    def c(*shape):
        return rng.normal(0, scale, shape) + 1j * rng.normal(0, scale, shape)
    return RbmParameters(c(L), c(M), c(L, M))


def test_01_spectrum_invariance():
    # the whole spectrum of H(theta) against that of H(0), and the two
    # levels ED solves against its lowest two
    L = 8
    thetas = [0.0, 0.1 * np.pi, 0.25 * np.pi, 0.5 * np.pi, np.pi]
    worst = 0.0
    for lam in (0.5, 1.0, 1.5):
        ref = np.linalg.eigvalsh(RotatedTfim(L, lam, thetas[0]).elements.toarray())
        for theta in thetas:
            h = RotatedTfim(L, lam, theta)
            e = np.linalg.eigvalsh(h.elements.toarray())
            e2 = exact.ground_states(h, k=2).energies
            worst = np.max([worst, np.max(np.abs(e - ref)), np.max(np.abs(e2 - ref[:2]))])
    report(1, "spectrum invariant under basis rotation", worst < 1e-9,
           f"max deviation {worst:.2e}")


def test_02_stoquasticity_classification():
    L, lam = 6, 1.5
    ok = (is_stoquastic(RotatedTfim(L, lam, 0.0))
          and is_stoquastic(RotatedTfim(L, lam, np.pi / 2))
          and not is_stoquastic(RotatedTfim(L, lam, np.pi)))
    report(2, "stoquastic at 0 and pi/2, non-stoquastic at pi", ok)


def test_03_perron_frobenius_sign():
    L, lam = 6, 1.5
    worst = 0.0
    for theta in (0.0, np.pi / 2):
        psi = exact.ground_states(RotatedTfim(L, lam, theta)).states[:, 0]
        worst = np.maximum(worst, abs(exact.sign_average(psi) - 1.0))
    report(3, "stoquastic ground states have unit sign average", worst < 1e-10,
           f"max |1 - sign avg| {worst:.2e}")


def test_04_rbm_gradient_oracle():
    L, alpha, step = 4, 2, 1e-6
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        w = random_rbm(rng, L, M=alpha * L)
        s = int(rng.integers(0, 2**L))
        grad = log_derivatives_all(w)[s]
        vec = w.to_vector()
        for k in rng.choice(len(vec), size=6, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += step
            vm[k] -= step
            num = (rbm.log_psi_all(RbmParameters.from_vector(vp, L, w.M))[s]
                   - rbm.log_psi_all(RbmParameters.from_vector(vm, L, w.M))[s]) / (2 * step)
            worst = np.maximum(worst, abs(grad[k] - num))
    report(4, "log-derivatives match finite differences", worst < 1e-6,
           f"max deviation {worst:.2e}")


def test_05_pi_rotation_exactness():
    L = 6
    rng = np.random.default_rng(77)
    comp = np.arange(2**L) ^ (2**L - 1)
    worst_site, worst_chain = 0.0, 0.0
    for _ in range(20):
        w = random_rbm(rng, L)
        psi = rbm.full_state_vector(w)
        for j in range(L):
            mapped = rbm.full_state_vector(rbm.apply_pi_rotation(w, j))
            applied = i_sigma_y(j, L) @ psi
            worst_site = np.maximum(worst_site, exact.infidelity(mapped, applied))
        wr = w
        for j in range(L):
            wr = rbm.apply_pi_rotation(wr, j)
        rotated = rbm.full_state_vector(wr)
        phases = np.array([np.exp(1j * np.pi * (L - s.bit_count()))
                           for s in range(2**L)])
        worst_chain = np.maximum(worst_chain,
                                 exact.infidelity(rotated, phases * psi[comp]))
    ok = worst_site < 1e-10 and worst_chain < 1e-10
    report(5, "pi-rotation parameter map is exact", ok,
           f"per-site {worst_site:.2e}, full-chain {worst_chain:.2e}")


def test_06_zero_variance():
    h = RotatedTfim(8, 1.5, 0.25 * np.pi)
    summary = exact.ground_states(h)
    psi = summary.states[:, 0]
    e_loc = sr.local_energies(h, psi)
    p = np.abs(psi) ** 2
    energy = np.sum(p * e_loc)
    var = float(np.sum(p * np.abs(e_loc - energy) ** 2))
    bound = 1e-16 * summary.energies[0] ** 2
    report(6, "exact amplitudes give zero local-energy variance", var <= bound,
           f"var {var:.2e} vs bound {bound:.2e}")


@functools.lru_cache(maxsize=None)
def easy_case_run(master_seed):
    """Shared pipeline for criteria 7 and 14: eta search then best-of-3."""
    h = RotatedTfim(6, 1.5, 0.0)
    base = SrConfig(n_iter=2000, alpha=1.0)
    trial = sr.hyperparameter_search(
        h, trials=20, base=SrConfig(n_iter=400, seed=master_seed, alpha=1.0))
    runs, best = sr.multi_seed_run(
        h, SrConfig(eta=trial.config.eta, n_iter=base.n_iter,
                    seed=master_seed, alpha=1.0), 3)
    return best


def test_07_easy_case_convergence():
    h = RotatedTfim(6, 1.5, 0.0)
    spec = exact.ground_states(h)
    best = easy_case_run(123)
    err = exact.relative_energy_error(best.energy, spec.energies[0])
    infid = exact.infidelity(best.state, spec.states[:, 0])
    ok = err <= 1e-6 and infid <= 1e-5
    report(7, "searched-eta SR converges in the trivial basis", ok,
           f"rel energy error {err:.2e}, infidelity {infid:.2e}")


@functools.lru_cache(maxsize=None)
def basis_dependence_infidelity(theta_key):
    theta = {"zero": 0.0, "quarter": 0.25 * np.pi}[theta_key]
    h = RotatedTfim(8, 1.5, theta)
    psi = exact.ground_states(h).states[:, 0]
    cfg = SrConfig(eta=0.02, n_iter=1000, seed=321, alpha=1.0)
    _, best = sr.multi_seed_run(h, cfg, 5)
    return exact.infidelity(best.state, psi)


def test_08_basis_dependence():
    inf0 = basis_dependence_infidelity("zero")
    inf45 = basis_dependence_infidelity("quarter")
    ratio = inf45 / inf0
    report(8, "rotated basis at least 10x harder to learn", ratio >= 10.0,
           f"infidelity {inf45:.2e} vs {inf0:.2e}, ratio {ratio:.1f}")


def test_09_degeneracy_pathology():
    h = RotatedTfim(8, 0.5, 0.25 * np.pi)
    summary = exact.ground_states(h, k=2)
    psi, psi1 = summary.states[:, 0], summary.states[:, 1]
    plus, minus = exact.degenerate_superpositions(psi, psi1)
    cfg = SrConfig(eta=0.02, n_iter=1000, seed=555, alpha=1.0)
    _, best = sr.multi_seed_run(h, cfg, 3)
    sign = exact.sign_average(best.state)
    ov_psi = abs(np.vdot(psi, best.state)) ** 2
    ov_minus = abs(np.vdot(minus, best.state)) ** 2
    ok = sign >= 0.9 and ov_psi < ov_minus
    report(9, "RBM picks the sign-simple degenerate superposition", ok,
           f"sign {sign:.4f}, |<RBM|psi>|^2 {ov_psi:.4f} vs "
           f"|<RBM|minus>|^2 {ov_minus:.4f}")


def test_10_fwht_identities():
    rng = np.random.default_rng(10)
    worst_inv = 0.0
    for _ in range(50):
        L = int(rng.integers(1, 11))
        v = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        back = cumulant.fwht(cumulant.fwht(v)) / (1 << L)
        worst_inv = np.maximum(worst_inv, np.max(np.abs(back - v)))
    worst_round = 0.0
    for _ in range(5):
        L = 6
        psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
        psi += 3.0  # strictly nonzero amplitudes
        psi = exact.fix_phase(exact.normalize(psi))
        coeffs = cumulant.cumulant_coefficients(psi)
        worst_round = np.maximum(worst_round,
                                 exact.infidelity(reconstruct(coeffs), psi))
    ok = worst_inv < 1e-12 and worst_round <= 1e-12
    report(10, "Walsh-Hadamard self-inverse and exact round trip", ok,
           f"inverse {worst_inv:.2e}, round trip {worst_round:.2e}")


def test_11_jastrow_containment():
    L = 6
    rng = np.random.default_rng(11)
    spins = hilbert.all_spins(L)
    J = rng.normal(0, 0.4, (L, L))
    J = np.triu(J, k=1)
    log_psi = np.einsum("si,ij,sj->s", spins, J, spins)
    psi = exact.fix_phase(exact.normalize(np.exp(log_psi).astype(complex)))
    orders = cumulant.subset_orders(L)
    c = cumulant.cumulant_coefficients(psi)
    off_pair = float(np.max(np.abs(c[(orders != 0) & (orders != 2)])))
    direct = cumulant.fwht(psi) / (1 << L)
    order4 = float(np.max(np.abs(direct[orders == 4])))
    ok = off_pair < 1e-10 and order4 > 1e-6
    report(11, "two-body Jastrow contained at cumulant orders {0,2}", ok,
           f"max off-pair cumulant {off_pair:.2e}, "
           f"max order-4 direct coefficient {order4:.2e}")


def test_12_cumulant_plateau():
    L, lam, theta, alpha = 8, 1.5, 0.2 * np.pi, 1.0
    h = RotatedTfim(L, lam, theta)
    psi = exact.fix_phase(exact.ground_states(h).states[:, 0])
    cfg = SrConfig(eta=0.01, n_iter=300, seed=7, alpha=alpha)
    _, best = sr.multi_seed_run(h, cfg, 3)
    full_inf = exact.infidelity(best.state, psi)
    n_var = best.trace.final_params.n_var
    ns = np.arange(1, (1 << L) + 1)
    exact_curve = dict(cumulant.infidelity_curve(psi, psi, ns))
    rbm_curve = dict(cumulant.infidelity_curve(best.state, psi, ns))
    # first N where the truncated-RBM curve departs from the exact-state curve
    n_dev = next((n for n in ns if rbm_curve[n] > 3 * max(exact_curve[n], 1e-16)
                  and n > 4), None)
    window = (n_var // 2, 2 * n_var)
    tail_ok = all(rbm_curve[n] <= 3 * full_inf for n in ns if n > n_var)
    ok = (n_dev is not None and window[0] <= n_dev <= window[1] and tail_ok)
    report(12, "truncation curve deviates near N_var then plateaus", ok,
           f"n_var {n_var}, deviation at N={n_dev}, window {window}, "
           f"full infidelity {full_inf:.2e}, tail within 3x: {tail_ok}")


def test_13_gap_structure():
    L, theta = 10, 0.0
    gaps = {lam: exact.ground_states(RotatedTfim(L, lam, theta), k=2).gap
            for lam in (0.5, 1.0, 2.0)}
    ok = gaps[1.0] < gaps[2.0] / 5 and gaps[0.5] < gaps[1.0]
    report(13, "gap shrinks toward and through the critical point", ok,
           f"gaps {gaps[0.5]:.3e} (0.5), {gaps[1.0]:.3e} (1.0), "
           f"{gaps[2.0]:.3e} (2.0)")


def test_14_determinism():
    first = easy_case_run(123)
    easy_case_run.cache_clear()
    second = easy_case_run(123)
    diff = abs(first.energy - second.energy)
    report(14, "identical master seed reproduces the final energy",
           diff <= 1e-10, f"|dE| {diff:.2e}")
