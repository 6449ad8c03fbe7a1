"""Bitmask subsets and small integer-vector helpers.

Ground sets are 0..n-1; subsets are Python int bitmasks (arbitrary width,
canonical for n <= 64 per the data model). Vectors over a ground set are
plain tuples indexed by element.

bits(mask) is the one loop over a mask's elements. Below 2^16 it returns
a tuple joined from two shared 256-entry byte tables (built at import,
about 41 KB; a mask within one byte gets that byte's shared tuple); a
wider or negative mask gets a lazy generator, so a mask far wider than any
ground set costs only the bits read from it.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def _lazy_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# _BYTE_BITS[b]: the set bit positions of a byte b; _HIGH_BITS[b]: the same
# shifted by 8, for the high byte of a 16-bit mask
_BYTE_BITS = tuple(tuple(_lazy_bits(b)) for b in range(256))
_HIGH_BITS = tuple(tuple(e + 8 for e in t) for t in _BYTE_BITS)


def bits(mask: int) -> Iterable[int]:
    """The set bit positions in ascending order: a tuple for
    0 <= mask < 2^16 (a shared one when the mask lies within one byte),
    else a lazy generator."""
    if 0 <= mask < 0x10000:
        return _BYTE_BITS[mask & 0xFF] + _HIGH_BITS[mask >> 8]
    return _lazy_bits(mask)


def elements(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


size = int.bit_count


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending from mask to 0 (0 included)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_subset(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"subset 0b{mask:b} out of range for ground set of size {n}")


def vec_sum(vec, mask: int):
    """x(S): sum of vector entries over the elements of mask."""
    total = 0
    for e in bits(mask):
        total += vec[e]
    return total


def vec_support(vec) -> int:
    m = 0
    for e, v in enumerate(vec):
        if v:
            m |= 1 << e
    return m


def indicator(mask: int, n: int, value=1) -> tuple:
    """The vector value * 1_mask as a tuple of length n (bits of mask at n
    or above are ignored)."""
    vec = [0] * n
    for e in bits(mask):
        if e >= n:
            break
        vec[e] = value
    return tuple(vec)
