import dataclasses
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nqs_tfim import exact, hilbert, rbm, sr
from nqs_tfim.hamiltonian import RotatedTfim
from nqs_tfim.rbm import RbmParameters
from nqs_tfim.sr import SrConfig

from conftest import expectations, kron_hamiltonian, local_energy, log_derivatives_all


def uniform_rbm(L):
    return RbmParameters(
        np.zeros(L, complex), np.zeros(L, complex), np.zeros((L, L), complex)
    )


def random_params(rng, L, M=None, scale=0.3):
    M = M or L
    def c(*shape):
        return rng.normal(0, scale, shape) + 1j * rng.normal(0, scale, shape)
    return RbmParameters(c(L), c(M), c(L, M))


def normalized_state(w):
    lp = rbm.log_psi_all(w)
    psi = np.exp(lp - np.max(lp.real))
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------- local energy

def test_local_energy_uniform_rbm_ferromagnetic_config():
    # L=2, lambda=1, theta=0, s=(+1,+1): E_loc = -1 (bond) - 2 (two flips,
    # unit amplitude ratio for the uniform state)
    h = RotatedTfim(2, 1.0, 0.0)
    w = uniform_rbm(2)
    assert local_energy(h, w, 0b11) == pytest.approx(-3.0)


def test_local_energies_match_single_config_version(rng):
    h = RotatedTfim(3, 0.7, 0.3)
    w = random_params(rng, 3)
    psi = normalized_state(w)
    vec = sr.local_energies(h, psi)
    for s in range(8):
        assert vec[s] == pytest.approx(local_energy(h, w, s), abs=1e-10)


def test_local_energies_zero_amplitude_warns(caplog):
    h = RotatedTfim(2, 1.0, 0.0)
    psi = np.array([1.0, 0.0, 1.0, 1.0], dtype=complex)
    with caplog.at_level(logging.WARNING, logger="nqs_tfim.sr"):
        for _ in range(2):   # every call is logged, not only the first
            vec = sr.local_energies(h, psi)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == 2 * [
        ("nqs_tfim.sr", logging.WARNING,
         "1 configurations with zero amplitude excluded from local energies")]
    assert vec[1] == 0.0


def test_local_energies_constant_for_eigenstate():
    # an exact eigenstate has zero-variance local energy = E0 everywhere
    h = RotatedTfim(4, 1.2, 0.4)
    spec = exact.ground_states(h)
    psi = spec.states[:, 0]
    e_loc = sr.local_energies(h, psi)
    assert np.allclose(e_loc, spec.energies[0], atol=1e-8)


# ---------------------------------------------------------------- expectations

def double_loop_expectations(h, w):
    """Independent oracle: dense H, explicit sums over all configurations."""
    hm = kron_hamiltonian(h.L, h.lam, h.theta)
    psi = normalized_state(w)
    p = np.abs(psi) ** 2
    e_loc = (hm @ psi) / psi
    energy = np.sum(p * e_loc)
    o = log_derivatives_all(w)
    n = o.shape[1]
    f = np.zeros(n, complex)
    s_mat = np.zeros((n, n), complex)
    o_mean = np.zeros(n, complex)
    for s in range(2**h.L):
        o_mean += p[s] * o[s]
    for k in range(n):
        f[k] = sum(p[s] * e_loc[s] * np.conj(o[s, k]) for s in range(2**h.L))
        f[k] -= energy * np.conj(o_mean[k])
    for k in range(n):
        for kp in range(n):
            s_mat[k, kp] = sum(
                p[s] * np.conj(o[s, k]) * o[s, kp] for s in range(2**h.L)
            ) - np.conj(o_mean[k]) * o_mean[kp]
    return energy, f, s_mat


def test_expectations_match_double_loop_oracle(rng):
    h = RotatedTfim(3, 0.9, 0.25)
    for M in (3, 6):   # alpha = 1 and 2
        w = random_params(rng, 3, M)
        energy, f, s_mat = expectations(h, w)
        e_ref, f_ref, s_ref = double_loop_expectations(h, w)
        assert energy == pytest.approx(e_ref, abs=1e-10)
        assert np.allclose(f, f_ref, atol=1e-10)
        assert np.allclose(s_mat, s_ref, atol=1e-10)


def dense_o_expectations(h, w):
    """Reference: forces and S from the dense (2^L, n_var) log-derivative
    matrix O, as <E_loc O*> - E <O*> and (p O)^H O - <O>^H <O>. Also
    returns p and the largest |<E_loc O*>| and |<O* O>| terms, the size
    of what cancels in f and S."""
    lp = rbm.log_psi_all(w)
    psi = np.exp(lp - np.max(lp.real))
    p = np.abs(psi) ** 2
    p /= p.sum()
    e_loc = sr.local_energies(h, psi)
    energy = np.sum(p * e_loc)
    o = log_derivatives_all(w)
    o_mean = p @ o
    f = (p * e_loc) @ o.conj() - energy * (p @ o.conj())
    moments = (o.conj() * p[:, None]).T @ o
    s_mat = moments - np.outer(o_mean.conj(), o_mean)
    size_f = np.max(np.abs(p * e_loc) @ np.abs(o))
    return energy, f, s_mat, p, size_f, np.max(np.abs(moments))


@pytest.mark.parametrize("scale", [0.3, 3.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("L", [1, 2, 5, 8])
def test_expectations_match_dense_o_formula(L, alpha, scale):
    M = max(1, round(alpha * L))
    w = random_params(np.random.default_rng(10 * L + M), L, M, scale)
    if scale > 1:
        # Re b = 0 gives Re theta(-s) = -Re theta(s), so log cosh takes both
        # branches; Re a ~ 250/L spreads |psi|^2 over about e^-1000, so some
        # of the Born weights underflow to 0
        w = RbmParameters(w.a + 250 / L, 1j * w.b.imag, w.W)
    h = RotatedTfim(L, 1.1, 0.4)
    e_ref, f_ref, s_ref, p, size_f, size_s = dense_o_expectations(h, w)
    if scale > 1:
        theta = hilbert.all_spins(L) @ w.W + w.b
        assert (theta.real < 0).any() and (theta.real > 0).any()
        assert (p == 0).any()
    energy, f, s_mat = expectations(h, w)
    assert energy == e_ref
    assert np.max(np.abs(f - f_ref)) <= 1e-12 * size_f
    assert np.max(np.abs(s_mat - s_ref)) <= 1e-12 * size_s
    assert np.array_equal(s_mat, s_mat.conj().T)


@pytest.mark.parametrize("scale", [0.3, 3.0])
def test_expectations_match_dense_o_formula_over_several_blocks(scale):
    assert 2**10 > rbm.ROW_BLOCK   # the cases above fit in one block
    test_expectations_match_dense_o_formula(10, 1.0, scale)


@pytest.mark.parametrize("scale", [0.3, 3.0])
def test_expectations_match_dense_o_formula_with_several_high_sites(scale):
    # L = 12: 8 blocks, and 3 sites above the 9 that vary inside a block
    assert 2**12 == 8 * rbm.ROW_BLOCK
    test_expectations_match_dense_o_formula(12, 1.0, scale)


def test_zero_born_weights_are_left_out_of_energy_and_variance():
    h = RotatedTfim(8, 1.1, 0.4)
    w = random_params(np.random.default_rng(0), 8, 8, 3.0)
    w = RbmParameters(w.a + 60, w.b, w.W)   # |psi| spans far below 1e-308
    lp = rbm.log_psi_all(w)
    psi = np.exp(lp - np.max(lp.real))
    p = np.abs(psi) ** 2
    p /= p.sum()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # E_loc overflows
        e_loc = (kron_hamiltonian(8, 1.1, 0.4) @ psi) / psi
    assert not np.isfinite(e_loc[p == 0]).all()   # 0 * inf would be NaN
    kept = p > 0
    e_ref = np.sum(p[kept] * e_loc[kept])
    var_ref = np.sum(p[kept] * np.abs(e_loc[kept] - e_ref) ** 2)
    energy, var = sr.energy_and_variance(h, w)
    assert energy == pytest.approx(e_ref, rel=1e-12)
    assert var == pytest.approx(var_ref, rel=1e-10)
    energy, f, s_mat = expectations(h, w)
    assert energy == pytest.approx(e_ref, rel=1e-12)
    assert np.isfinite(f).all() and np.isfinite(s_mat).all()


def test_s_matrix_hermitian_psd(rng):
    h = RotatedTfim(3, 1.3, 0.6)
    w = random_params(rng, 3)
    _, _, s_mat = expectations(h, w)
    assert np.allclose(s_mat, s_mat.conj().T, atol=1e-12)
    assert np.array_equal(s_mat, s_mat.conj().T)
    evals = np.linalg.eigvalsh(s_mat)
    assert evals.min() > -1e-10


def test_energy_is_variational_upper_bound(rng):
    h = RotatedTfim(4, 1.5, 0.0)
    e0 = exact.ground_states(h).energies[0]
    for k in range(5):
        w = random_params(np.random.default_rng(k), 4)
        energy, _ = sr.energy_and_variance(h, w)
        assert energy.real >= e0 - 1e-10


def test_force_matches_finite_difference_of_energy(rng):
    # central differences of the exact-summation energy w.r.t. the real and
    # imaginary parts of each parameter; f_k is the conjugate-Wirtinger
    # gradient dE/dw*_k = (dE/dRe + i dE/dIm)/2
    h = RotatedTfim(2, 0.8, 0.5)
    w = random_params(rng, 2)
    _, f, _ = expectations(h, w)
    vec = w.to_vector()
    step = 1e-6

    def energy_at(v):
        wp = rbm.RbmParameters.from_vector(v, w.L, w.M)
        return sr.energy_and_variance(h, wp)[0].real

    for k in range(len(vec)):
        vp, vm = vec.copy(), vec.copy()
        vp[k] += step
        vm[k] -= step
        d_re = (energy_at(vp) - energy_at(vm)) / (2 * step)
        vp, vm = vec.copy(), vec.copy()
        vp[k] += 1j * step
        vm[k] -= 1j * step
        d_im = (energy_at(vp) - energy_at(vm)) / (2 * step)
        assert f[k] == pytest.approx((d_re + 1j * d_im) / 2, abs=1e-5)


# ----------------------------------------------------------------- sr updates

def test_solve_sr_system_residual():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    s_mat = a.conj().T @ a
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    eps = 1e-4
    d = sr.solve_sr_system(s_mat, f, eps)
    assert np.allclose((s_mat + eps * np.eye(8)) @ d, f, atol=1e-9)


def test_solve_sr_system_raises_on_singular_matrix():
    eps = 1e-4
    with pytest.raises(RuntimeError, match="zhesv"):
        sr.solve_sr_system(-eps * np.eye(4, dtype=complex), np.ones(4, complex), eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_solve_sr_system_raises_on_a_non_finite_force(bad):
    # the residual is then NaN, and NaN > tol is False
    f = np.array([bad, 1, 2], dtype=complex)
    with pytest.raises(RuntimeError, match="residual"):
        sr.solve_sr_system(np.eye(3, dtype=complex), f, 1e-4)


def test_single_step_decreases_energy():
    h = RotatedTfim(3, 1.5, 0.0)
    trace = sr.optimize(h, SrConfig(eta=0.02, n_iter=2, init_scale=0.1))
    assert trace.energies[1].real < trace.energies[0].real


def test_optimize_converges_to_ground_state():
    h = RotatedTfim(4, 1.5, 0.0)
    spec = exact.ground_states(h)
    cfg = SrConfig(eta=0.02, n_iter=400, seed=5)
    trace = sr.optimize(h, cfg)
    assert trace.converged
    err = exact.relative_energy_error(trace.final_energy.real, spec.energies[0])
    assert err < 1e-6
    psi = rbm.full_state_vector(trace.final_params)
    assert exact.infidelity(psi, spec.states[:, 0]) < 1e-6
    # energies should be monotone-ish: final well below initial
    assert trace.energies[-1].real < trace.energies[0].real


@pytest.mark.parametrize("L", [6, 12])
def test_final_params_have_the_final_energy(L):
    h = RotatedTfim(L, 1.5, 0.3)
    trace = sr.optimize(h, SrConfig(eta=0.05, n_iter=5, seed=3))
    assert trace.converged
    assert sr.energy_and_variance(h, trace.final_params)[0] == trace.final_energy


def test_optimize_trace_shapes():
    h = RotatedTfim(2, 1.0, 0.0)
    cfg = SrConfig(eta=0.01, n_iter=7, seed=1)
    trace = sr.optimize(h, cfg)
    assert len(trace.energies) == 7
    assert len(trace.variances) == 7
    assert len(trace.grad_norms) == 7
    assert len(trace.param_norms) == 7


def test_optimize_deterministic():
    h = RotatedTfim(3, 1.0, 0.2)
    cfg = SrConfig(eta=0.02, n_iter=50, seed=42)
    t1 = sr.optimize(h, cfg)
    t2 = sr.optimize(h, cfg)
    assert np.array_equal(t1.energies, t2.energies)
    assert np.array_equal(t1.final_params.to_vector(), t2.final_params.to_vector())


def patch_expectations(monkeypatch, edit):
    """Pass every result of sr._full_expectations through edit."""
    real = sr._full_expectations
    monkeypatch.setattr(sr, "_full_expectations",
                        lambda h, w, bufs: edit(*real(h, w, bufs)))


def test_optimize_aborts_on_non_finite_s_matrix(monkeypatch):
    def nan_s(energy, var, f, s_mat):
        s_mat = s_mat.copy()
        s_mat[0, 1] = np.nan
        return energy, var, f, s_mat

    patch_expectations(monkeypatch, nan_s)
    trace = sr.optimize(RotatedTfim(3, 1.5, 0.0), SrConfig(n_iter=5, seed=1))
    assert not trace.converged
    assert "non-finite" in trace.abort_reason
    assert len(trace.energies) == 1


def test_optimize_aborts_on_infinite_variance(monkeypatch):
    patch_expectations(monkeypatch, lambda energy, var, f, s_mat: (energy, np.inf, f, s_mat))
    trace = sr.optimize(RotatedTfim(3, 1.5, 0.0), SrConfig(n_iter=5, seed=1))
    assert not trace.converged
    assert "non-finite" in trace.abort_reason
    assert trace.variances[-1] == np.inf


@pytest.mark.parametrize("eta", [100.0, 1e4])
def test_optimize_aborts_when_the_parameters_diverge(eta):
    # every variational energy lies within the spectrum, so an energy bound
    # never trips; these runs end far from E0 with ||w|| of 3.6e3 and 3.6e5
    trace = sr.optimize(RotatedTfim(4, 1.5, 0.3), SrConfig(eta=eta, n_iter=60, seed=0))
    assert not trace.converged
    assert trace.abort_reason == f"divergence guard tripped at iteration {len(trace.energies) - 1}"
    assert trace.param_norms[-1] > sr.DIVERGENCE_FACTOR * max(trace.param_norms[0], 1.0)


def test_working_set_estimate_at_the_largest_size():
    L, M = 16, rbm.n_hidden(16, 4.0)
    n_var = L + M + L * M
    # arrays of 2^L rows: s_hat, tanh theta, the complex log Psi, psi, H psi
    # and E_loc, the Born weights, and the CSR matrix of H (2L flip masks per
    # row, 12 bytes each); G and its sum have only one block of rows; S, the
    # outer-product buffer and the copy of S + eps are n_var x n_var
    g_block = rbm.ROW_BLOCK * 16 * (M + 1) * (M + 2) // 2
    held = (2**L * (8 * (L + 1 + 2 * M) + 4 * 16 + 8 + 2 * L * 12) + 2 * g_block
            + 3 * 16 * n_var**2)
    assert held <= sr.working_set_bytes(L, M) < 1.3 * held


def test_optimize_refuses_a_run_that_cannot_fit(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a 2^L array was allocated before the memory check")

    monkeypatch.setattr(sr, "_physical_memory_bytes", lambda: 10**6)
    monkeypatch.setattr(rbm, "log_psi_all", forbidden)
    monkeypatch.setattr(hilbert, "all_spins", forbidden)
    need = sr.working_set_bytes(10, 10)
    message = f"L=10, M=10 needs about {need:.3g} bytes, more than the 1e+06 bytes"
    with pytest.raises(MemoryError, match=re.escape(message)):
        sr.optimize(RotatedTfim(10, 1.0, 0.0), SrConfig(n_iter=1))


# One call each: optimize for a few iterations, and expectations at fixed
# parameters; M = 20 at L = 10 gives alpha = 2 and 230 parameters.
REUSE_CALLS = [(kind, L, M) for L, M in ((6, 6), (10, 20), (12, 12))
               for kind in ("optimize", "expectations")]


def reuse_call(kind, L, M):
    """Arrays from one optimize or expectations call at (L, M)."""
    h = RotatedTfim(L, 1.5, 0.6)
    if kind == "optimize":
        trace = sr.optimize(h, SrConfig(eta=0.02, n_iter=4, seed=L + M, alpha=M / L))
        return {"energies": trace.energies, "variances": trace.variances,
                "grad_norms": trace.grad_norms, "params": trace.final_params.to_vector()}
    w = rbm.init_random(L, M / L, seed=L * M, scale=0.3)
    energy, f, s_mat = expectations(h, w)
    return {"energy": np.array([energy]), "f": f, "s_mat": s_mat}


def fresh_process_call(tmp_path, kind, L, M):
    """reuse_call as the first call of a fresh interpreter."""
    out = tmp_path / f"{kind}-{L}-{M}.npz"
    env = dict(os.environ)
    src = str(Path(sr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, numpy as np\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import test_sr\n"
            "np.savez(sys.argv[2], **test_sr.reuse_call(sys.argv[3], int(sys.argv[4]),"
            " int(sys.argv[5])))\n")
    subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), str(out),
                    kind, str(L), str(M)], env=env, timeout=300, check=True)
    with np.load(out) as saved:
        return dict(saved)


def test_buffer_reuse_leaks_nothing_between_runs_or_shapes(tmp_path):
    fresh = {call: fresh_process_call(tmp_path, *call) for call in REUSE_CALLS}
    # the shapes alternate, each run after runs and calls of other shapes
    for call in REUSE_CALLS[::-1] + REUSE_CALLS:
        got = reuse_call(*call)
        assert got.keys() == fresh[call].keys()
        for name in got:
            assert np.array_equal(got[name], fresh[call][name]), (call, name)
    L, M = 12, 12
    lp, t = rbm.log_psi_and_tanh(rbm.init_random(L, 1.0, seed=1), hilbert.all_spins(L))
    assert lp.shape == (2**L,) and t.shape == (2**L, M)


def test_iterations_of_one_run_leave_nothing_to_the_next(monkeypatch):
    # every iteration after the first, whose buffers were used before,
    # against a fresh set of buffers at the same parameters
    h = RotatedTfim(12, 1.5, 0.6)
    seen = []
    real = sr._full_expectations

    def recording(h, w, bufs):
        energy, var, f, s_mat = real(h, w, bufs)
        seen.append((w.to_vector(), energy, f.copy(), s_mat.copy()))
        return energy, var, f, s_mat

    monkeypatch.setattr(sr, "_full_expectations", recording)
    sr.optimize(h, SrConfig(eta=0.02, n_iter=4, seed=5))
    monkeypatch.undo()
    assert len(seen) == 4
    for vec, energy, f, s_mat in seen[1:]:
        e_ref, f_ref, s_ref = expectations(h, RbmParameters.from_vector(vec, 12, 12))
        assert energy == e_ref
        assert np.array_equal(f, f_ref) and np.array_equal(s_mat, s_ref)


def test_config_validation():
    with pytest.raises(ValueError):
        SrConfig(eta=-0.1)
    with pytest.raises(ValueError):
        SrConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SrConfig(n_iter=0)


# --------------------------------------------------------------------- seeds

def test_derive_seed_oracle():
    master = 1234
    expected = int(np.random.SeedSequence([master, 3]).generate_state(1)[0])
    assert sr.derive_seed(master, 3) == expected


def test_derive_seed_distinct():
    seeds = [sr.derive_seed(0, i) for i in range(20)]
    assert len(set(seeds)) == 20


def test_hyperparameter_search_deterministic():
    h = RotatedTfim(3, 1.5, 0.0)
    base = SrConfig(n_iter=40, seed=9, alpha=1.0)
    r1 = sr.hyperparameter_search(h, trials=4, base=base)
    r2 = sr.hyperparameter_search(h, trials=4, base=base)
    assert r1.config.eta == r2.config.eta
    assert r1.trace.final_energy == r2.trace.final_energy
    assert sr.ETA_SEARCH_RANGE[0] <= r1.config.eta <= sr.ETA_SEARCH_RANGE[1]


def test_hyperparameter_search_needs_trials():
    h = RotatedTfim(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        sr.hyperparameter_search(h, trials=0, base=SrConfig(seed=0))


def test_multi_seed_run_best_is_lowest():
    h = RotatedTfim(3, 1.5, 0.0)
    cfg = SrConfig(eta=0.02, n_iter=60, seed=11)
    runs, best = sr.multi_seed_run(h, cfg, 3)
    assert len(runs) == 3
    assert best.energy == min(r.energy for r in runs)
    assert len({r.seed for r in runs}) == 3
    for r in runs:
        assert r.state.shape == (8,)
        assert np.linalg.norm(r.state) == pytest.approx(1.0)


def ending_in_nan_for(bad_seeds, monkeypatch):
    """Patch sr.optimize so runs with a seed in bad_seeds end in NaN energy
    while still reporting convergence."""
    real = sr.optimize

    def patched(h, cfg):
        trace = real(h, cfg)
        if cfg.seed in bad_seeds:
            trace = dataclasses.replace(trace, energies=np.append(trace.energies, np.nan))
        return trace

    monkeypatch.setattr(sr, "optimize", patched)


def test_multi_seed_run_never_picks_non_finite(monkeypatch):
    h = RotatedTfim(3, 1.5, 0.0)
    cfg = SrConfig(eta=0.02, n_iter=20, seed=11)
    ending_in_nan_for({sr.derive_seed(11, 0)}, monkeypatch)
    runs, best = sr.multi_seed_run(h, cfg, 2)
    assert np.isnan(runs[0].energy)
    assert best is runs[1] and np.isfinite(best.energy)


def test_multi_seed_run_raises_when_none_finite(monkeypatch):
    h = RotatedTfim(3, 1.5, 0.0)
    cfg = SrConfig(eta=0.02, n_iter=20, seed=11)
    ending_in_nan_for({sr.derive_seed(11, i) for i in range(2)}, monkeypatch)
    with pytest.raises(RuntimeError):
        sr.multi_seed_run(h, cfg, 2)


def test_multi_seed_run_never_picks_an_aborted_run(monkeypatch):
    # realization 0 aborts with the lowest energy of the two
    h = RotatedTfim(3, 1.5, 0.0)
    cfg = SrConfig(eta=0.02, n_iter=20, seed=11)
    real = sr.optimize

    def patched(h, cfg):
        trace = real(h, cfg)
        if cfg.seed == sr.derive_seed(11, 0):
            trace = dataclasses.replace(trace, energies=np.append(trace.energies, -100.0),
                                        converged=False, abort_reason="injected abort")
        return trace

    monkeypatch.setattr(sr, "optimize", patched)
    runs, best = sr.multi_seed_run(h, cfg, 2)
    assert runs[0].energy < runs[1].energy
    assert best is runs[1]


def test_run_all_keeps_the_completed_run_when_another_ends_non_finite():
    # at eta = 1e307 the parameters overflow before the divergence guard trips
    runs, best = sr.run_all(RotatedTfim(4, 1.5, 0.3), [SrConfig(eta=0.02, n_iter=20, seed=1),
                                                      SrConfig(eta=1e307, n_iter=20, seed=2)])
    assert best is runs[0] and np.isfinite(best.state).all()
    assert not runs[1].trace.converged
    assert np.isnan(runs[1].state).all()


def test_run_all_logs_each_aborted_run_once(caplog):
    with caplog.at_level(logging.WARNING, logger="nqs_tfim.sr"):
        sr.run_all(RotatedTfim(4, 1.5, 0.3), [SrConfig(eta=1e307, n_iter=20, seed=2),
                                             SrConfig(eta=0.02, n_iter=20, seed=1)])
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("nqs_tfim.sr", logging.WARNING,
         "SR run at eta=1e+307, seed 2 aborted: non-finite energy at iteration 1")]


def ending_one_ulp_lower_per_index(seeds, monkeypatch):
    """Patch sr.optimize so the run with seeds[i] ends at -2 minus i ulps."""
    real = sr.optimize

    def patched(h, cfg):
        trace = real(h, cfg)
        energy = -2.0
        for _ in range(seeds.index(cfg.seed)):
            energy = np.nextafter(energy, -np.inf)
        return dataclasses.replace(trace, energies=np.append(trace.energies, energy))

    monkeypatch.setattr(sr, "optimize", patched)


def test_multi_seed_run_breaks_ties_by_lowest_index(monkeypatch):
    h = RotatedTfim(3, 1.5, 0.0)
    cfg = SrConfig(eta=0.02, n_iter=5, seed=11)
    ending_one_ulp_lower_per_index([sr.derive_seed(11, i) for i in range(3)], monkeypatch)
    runs, best = sr.multi_seed_run(h, cfg, 3)
    assert runs[2].energy < runs[1].energy < runs[0].energy
    assert best is runs[0]


def test_hyperparameter_search_breaks_ties_by_lowest_index(monkeypatch):
    h = RotatedTfim(3, 1.5, 0.0)
    base = SrConfig(n_iter=5, seed=9)
    ending_one_ulp_lower_per_index([sr.derive_seed(9, t) for t in range(3)], monkeypatch)
    best = sr.hyperparameter_search(h, trials=3, base=base)
    assert best.config.seed == sr.derive_seed(9, 0)


def test_a_lower_energy_beyond_the_tie_tolerance_wins():
    e = -2.0 * (1 + 10 * sr.ENERGY_TIE_RTOL)
    assert sr._lowest([-2.0, e, np.nan]) == 1
    assert sr._lowest([np.nan, -np.inf]) is None


def test_hyperparameter_search_never_picks_non_finite(monkeypatch):
    h = RotatedTfim(3, 1.5, 0.0)
    base = SrConfig(n_iter=20, seed=9)
    ending_in_nan_for({sr.derive_seed(9, 0)}, monkeypatch)
    best = sr.hyperparameter_search(h, trials=2, base=base)
    assert best.config.seed == sr.derive_seed(9, 1)
    assert np.isfinite(best.trace.final_energy)
