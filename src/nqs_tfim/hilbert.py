"""Bit-level handling of spin-1/2 configurations on an L-site chain.

A configuration is an integer index in [0, 2^L). Bit i encodes site i
(little-endian): bit set means s_i = +1, bit clear means s_i = -1.
"""

import numpy as np

# The largest chain: ED, every shipped config and every paper run stop at
# L = 16, where a state vector of 2^L complex amplitudes takes 1 MB.
MAX_SITES = 16


def check_sites(L: int) -> None:
    if not 1 <= L <= MAX_SITES:
        raise ValueError(f"site count L={L} outside [1, {MAX_SITES}]")


def all_spins(L: int) -> np.ndarray:
    """(2^L, L) array of spin values (+1/-1) for every configuration.

    Row s is the configuration with index s; column i is site i.
    """
    check_sites(L)
    idx = np.arange(1 << L, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(L, dtype=np.uint32)) & 1
    return (2 * bits.astype(np.int8) - 1).astype(np.float64)
