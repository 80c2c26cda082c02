import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nqs_tfim
from nqs_tfim import _blas, rbm, sr
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
