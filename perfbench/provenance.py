"""What a result record needs to be explained later: library versions, core
count, BLAS thread settings as inherited and as the loaded BLAS reports
them, and the source commit."""

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# numpy bundles an ILP64 OpenBLAS (suffix 64_), scipy an LP64 one; both
# carry the scipy_ symbol prefix. Plain OpenBLAS names cover system builds.
_GETTERS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def loaded_openblas():
    """{library file name: {"threads": n, "config": str}} for each OpenBLAS
    mapped into this process. The libraries are only queried, never set."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for threads_sym, config_sym in _GETTERS:
            if not hasattr(lib, threads_sym):
                continue
            get_threads = getattr(lib, threads_sym)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            info = {"threads": int(get_threads())}
            if hasattr(lib, config_sym):
                get_config = getattr(lib, config_sym)
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                info["config"] = get_config().decode(errors="replace").strip()
            out[Path(path).name] = info
            break
    return out


def git_commit(root: Path):
    """HEAD commit read from root/.git without running git; None when the
    tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import nqs_tfim
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nqs_tfim": nqs_tfim.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "openblas": loaded_openblas(),
        "git_commit": git_commit(root),
        "workload": workload,
        "seed": seed,
    }
