import numpy as np
import pytest

from nqs_tfim import hilbert

from conftest import parity_in_mask


def test_enumeration_complete():
    for L in (1, 3, 6):
        spins = hilbert.all_spins(L)
        assert spins.shape == (2**L, L)
        # every configuration appears exactly once
        idx = ((spins + 1) // 2 * (2 ** np.arange(L))).sum(axis=1)
        assert sorted(idx.astype(int)) == list(range(2**L))


def test_all_spins_matches_spin_at():
    # the spin at site i of configuration c is bit i of c: set is +1
    L = 5
    spins = hilbert.all_spins(L)
    for c in (0, 7, 19, 31):
        for i in range(L):
            assert spins[c, i] == (1 if (c >> i) & 1 else -1)


def test_parity_in_mask_matches_products(rng):
    L = 6
    spins = hilbert.all_spins(L)
    idx = np.arange(1 << L)
    for _ in range(20):
        mask = int(rng.integers(0, 1 << L))
        expected = np.prod(spins[:, [i for i in range(L) if mask >> i & 1]], axis=1) \
            if mask else np.ones(1 << L)
        assert np.array_equal(parity_in_mask(idx, mask), expected)


def test_site_cap():
    with pytest.raises(ValueError):
        hilbert.check_sites(25)
    with pytest.raises(ValueError):
        hilbert.check_sites(0)
