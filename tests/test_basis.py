"""Digit encoding, sectors, and the global-flip permutation."""

import itertools

import numpy as np
import pytest

from darkfilter.basis import (
    BasisEncoding,
    digits_of,
    magnetization_of,
    string_parity_sign,
)
from darkfilter.errors import ValidationError
from darkfilter.spin_model import ChainParams, build_hamiltonian


def test_digits_little_endian():
    d = digits_of(3)
    idx = 5                      # 5 = 2 + 1*3: digits (2, 1, 0)
    assert list(d[idx]) == [2, 1, 0]
    recon = (d * 3 ** np.arange(3)).sum(axis=1)
    assert np.array_equal(recon, np.arange(27))


@pytest.mark.parametrize("L", [1, 4, 6])
def test_digits_table_is_cached_and_read_only(L):
    table = digits_of(L)
    assert digits_of(L) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    fresh = digits_of.__wrapped__(L)
    assert fresh is not table and np.array_equal(fresh, table)
    # site 1 is the least significant digit
    product = np.array(list(itertools.product(range(3), repeat=L)))[:, ::-1]
    assert np.array_equal(table, product)


def test_magnetization_counts_m_values():
    mags = magnetization_of(2)
    # index 0 is all-plus (M=2), index 8 all-minus (M=-2)
    assert mags[0] == 2
    assert mags[8] == -2
    assert sorted(np.unique(mags)) == [-2, -1, 0, 1, 2]
    assert np.sum(mags == 0) == 3   # +-, 00, -+


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_flip_permutation_is_digit_complement(L):
    # the engines take the flip d -> 2 - d on every site to be the index
    # reversal i -> 3^L - 1 - i, which negates the magnetization
    flipped = ((2 - digits_of(L)) * 3 ** np.arange(L)).sum(axis=1)
    assert np.array_equal(flipped, 3**L - 1 - np.arange(3**L))
    mags = magnetization_of(L)
    assert np.array_equal(mags[::-1], -mags)


def test_sector_indices_partition_the_space():
    # sector M holds the configurations whose site values m sum to M
    L = 3
    mags = magnetization_of(L)
    for M in range(-L, L + 1):
        size = sum(1 for ms in itertools.product((1, 0, -1), repeat=L)
                   if sum(ms) == M)
        assert np.count_nonzero(mags == M) == size
    assert sum(np.count_nonzero(mags == M)
               for M in range(-L, L + 1)) == 3**L


@pytest.mark.parametrize(
    "L,sign",
    [(1, -1), (2, -1), (3, 1), (4, 1), (5, -1), (6, -1), (7, 1), (8, 1)],
)
def test_string_parity_sign_period_four(L, sign):
    assert string_parity_sign(L) == sign


def test_full_space_cap_guard():
    with pytest.raises(ValidationError):
        BasisEncoding.full(11)
    with pytest.raises(ValidationError):
        BasisEncoding.full(0)
    # the Hamiltonian refuses before it builds anything
    with pytest.raises(ValidationError, match="cap"):
        build_hamiltonian(ChainParams(L=11))
