"""Bitmask helpers.

Element sets are plain Python ints with bit i standing for element id i.
Arbitrary-width ints keep the kernels free of word-size bookkeeping.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress

_SELECTOR = bytes.maketrans(b"01", b"\x00\x01")


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pick(table: Sequence, mask: int) -> Iterator:
    """Yield ``table[i]`` for the set bits i of ``mask``, in ascending order.

    The binary digits of mask, lowest first, become the selector bytes of
    ``itertools.compress``, so the walk over the bits runs in C.  Bits at
    or beyond ``len(table)`` are ignored.
    """
    return compress(table, bin(mask)[:1:-1].encode("ascii").translate(_SELECTOR))


def lowest_bit(mask: int) -> int:
    """Index of the least set bit; mask must be nonzero."""
    return (mask & -mask).bit_length() - 1


def highest_bit(mask: int) -> int:
    """Index of the greatest set bit; mask must be nonzero."""
    return mask.bit_length() - 1
