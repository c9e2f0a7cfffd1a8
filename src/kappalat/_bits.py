"""Bitmask helpers.

Element sets are plain Python ints with bit i standing for element id i.
Arbitrary-width ints keep the kernels free of word-size bookkeeping.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


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


def lowest_bit(mask: int) -> int:
    """Index of the least set bit; mask must be nonzero."""
    return (mask & -mask).bit_length() - 1


def highest_bit(mask: int) -> int:
    """Index of the greatest set bit; mask must be nonzero."""
    return mask.bit_length() - 1
