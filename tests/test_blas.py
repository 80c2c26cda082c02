import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nqs_tfim
from nqs_tfim import _blas, exact, experiments, rbm, sr
from nqs_tfim.hamiltonian import RotatedTfim

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# numpy and scipy.linalg load first, as in a session that imports them before
# the package; the pin must still reach both libraries
REPORT_THREADS = (
    "import json, numpy, scipy.linalg\n"
    "import nqs_tfim\n"
    "from nqs_tfim import _blas\n"
    "print(json.dumps({name: get() for name, (_, get)"
    " in _blas.openblas_libraries().items()}))\n"
)


def threads_after_import(extra_env: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(nqs_tfim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra_env)
    done = subprocess.run([sys.executable, "-c", REPORT_THREADS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("extra_env, expected", [
    ({}, 1),                                  # no user choice: pinned to one
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),       # the user's choice is kept
])
def test_import_sets_each_openblas_thread_count(extra_env, expected):
    counts = threads_after_import(extra_env)
    if not counts:
        pytest.skip("no OpenBLAS loaded in this environment")
    assert counts == {name: expected for name in counts}


def test_sr_energies_do_not_depend_on_thread_count():
    libs = _blas.openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this environment")
    h = RotatedTfim(8, 1.5, 0.3)
    cfg = sr.SrConfig(eta=0.05, n_iter=100, seed=3)
    before = {name: get() for name, (_, get) in libs.items()}
    energies = {}
    try:
        for n in (2, 1):
            for setter, _ in libs.values():
                setter(n)
            energies[n] = sr.optimize(h, cfg).energies
    finally:
        for name, (setter, _) in libs.items():
            setter(before[name])
    assert np.array_equal(energies[1], energies[2])


def test_sr_energies_do_not_depend_on_thread_count_over_several_blocks():
    # L = 12: 4096 configurations in several row blocks, and a 168 x 168 S
    libs = _blas.openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this environment")
    h = RotatedTfim(12, 1.5, 0.3)
    assert h.dim > 2 * rbm.ROW_BLOCK
    cfg = sr.SrConfig(eta=0.05, n_iter=30, seed=3)
    before = {name: get() for name, (_, get) in libs.items()}
    energies = {}
    try:
        for n in (2, 1):
            for setter, _ in libs.values():
                setter(n)
            energies[n] = sr.optimize(h, cfg).energies
    finally:
        for name, (setter, _) in libs.items():
            setter(before[name])
    assert np.array_equal(energies[1], energies[2])


def test_states_at_l14_do_not_depend_on_thread_count():
    # the norm of a 2^L-entry state, the overlap and norms of an
    # infidelity, and an overlap as the degeneracy runner takes it; a BLAS
    # dot product splits them over threads. At L = 16 the Lanczos dot
    # products and norms on 2^15-entry vectors too
    libs = _blas.openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this environment")
    rng = np.random.default_rng(5)
    before = {name: get() for name, (_, get) in libs.items()}
    for L in (14, 16):
        h = RotatedTfim(L, 1.5, 0.3)
        w = rbm.RbmParameters(*(0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
                                for shape in ((L,), (L,), (L, L))))
        states = {}
        try:
            for n in (2, 1):
                for setter, _ in libs.values():
                    setter(n)
                psi, phi = exact.ground_states(h).states, rbm.full_state_vector(w)
                states[n] = (psi, phi, exact.infidelity(phi, psi[:, 0]),
                             exact.overlap(psi[:, 0], phi))
        finally:
            for name, (setter, _) in libs.items():
                setter(before[name])
        for at_one, at_two in zip(states[1], states[2]):
            assert np.array_equal(at_one, at_two), f"L={L}"


def test_result_index_reads_thread_counts_without_probing_again(tmp_path, monkeypatch):
    libs = _blas.openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this environment")
    experiments.ResultIndex(tmp_path)
    opened, loaded = [], []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: loaded.append(args))
    before = _blas.thread_counts()
    try:
        for setter, _ in libs.values():
            setter(2)
        index = experiments.ResultIndex(tmp_path)
    finally:
        for name, (setter, _) in libs.items():
            setter(before[name])
    assert "/proc/self/maps" not in opened
    assert loaded == []
    assert index.blas_threads == {name: 2 for name in libs}
