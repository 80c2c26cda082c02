"""RBM neural quantum states on the basis-rotated transverse-field Ising
chain: exact-summation training, exact diagonalization baselines, and
magnitude-ranked cumulant-expansion diagnostics."""

from . import _blas, cumulant, exact, hamiltonian, hilbert, rbm, sr
from .hamiltonian import RotatedTfim
from .rbm import RbmParameters
from .sr import SrConfig

# after the submodules above have loaded numpy's and scipy.linalg's OpenBLAS
_blas.pin_single_thread()

__all__ = [
    "cumulant", "exact", "hamiltonian", "hilbert", "rbm", "sr",
    "RotatedTfim", "RbmParameters", "SrConfig",
]

__version__ = "0.1.0"
