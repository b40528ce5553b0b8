"""The full-space digit encoding of the spin-1 chain.

Each site carries a spin-1 degree of freedom with local S^z eigenvalue
m in {+1, 0, -1}, stored as the base-3 digit (1 - m) in {0, 1, 2}.  The
full-space index is little-endian in the site label: sites are numbered
j = 1..L and index = sum_j digit_j * 3^(j-1), so site 1 is the least
significant digit.  The site labels matter physically because the
protocol's product states carry alternating signs exp(i*pi*j).

A magnetization sector is the set of indices where magnetization_of
equals M, never a basis of its own.  The tower engine's basis is the
(L+1)-dimensional bi-magnon ladder, indexed by the number of bi-magnons
n = 0..L, and a generic engine's is a plain computational basis; an
engine reads its input dimension off its removal state.
"""

from __future__ import annotations

import functools

import numpy as np

from darkfilter.errors import ValidationError

# Dense full-space construction becomes unwieldy beyond this chain length.
FULL_SPACE_CAP = 10


@functools.lru_cache(maxsize=None)
def digits_of(L):
    """Array (3^L, L) of base-3 digits, site j in column j-1.

    Built once per L and shared by every caller, so it is read-only.
    """
    idx = np.arange(3**L)
    out = np.empty((3**L, L), dtype=np.int8)
    for j in range(L):
        out[:, j] = (idx // 3**j) % 3
    out.flags.writeable = False
    return out


def magnetization_of(L):
    """Total S^z eigenvalue per full-space index (m = 1 - digit per site)."""
    return (L - digits_of(L).sum(axis=1, dtype=np.int64)).astype(np.int64)


def full_dimension(L):
    """3^L, the dimension of the full space of L sites.

    Refuses L < 1 and L above FULL_SPACE_CAP (ValidationError).
    """
    if L < 1:
        raise ValidationError("L must be >= 1")
    if L > FULL_SPACE_CAP:
        raise ValidationError(
            f"L={L} exceeds the full-space construction cap "
            f"({FULL_SPACE_CAP}); use the tower-reduced engine for "
            "longer chains"
        )
    return 3**L


def reflection_of(L):
    """Full-space index of each configuration mirrored, site j -> L+1-j."""
    return digits_of(L).astype(np.int64) @ (3 ** np.arange(L - 1, -1, -1))


def reflection_twist(L, M):
    """Sign (+1 or -1) of the twisted reflection R' = R s(M) on sector M.

    R maps the staggered phase exp(i pi j) of site j to (-1)^(L+1)
    exp(i pi j), so a protocol product configuration with n = (L-M)/2
    sites in |-> picks up (-1)^((L+1) n): nothing for odd L, (-1)^n for
    even L.  s(M) undoes that sign, so the protocol states are R'-even.
    Sectors the product states miss (L - M odd) take n = (L-|M|)//2; s is
    even in M throughout, so R' commutes with the spin flip.
    """
    n = (L - np.abs(M)) // 2
    return 1 - 2 * (((L + 1) * n) % 2)


def string_parity_sign(L):
    """Sign picked up by a tower state under the global spin flip.

    The flip maps the n-bi-magnon state to the (L-n) one times
    (-1)^(L(L+1)/2), the parity of the sum of all site labels.
    """
    return -1.0 if (L * (L + 1) // 2) % 2 else 1.0
