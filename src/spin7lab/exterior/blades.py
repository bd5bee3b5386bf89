"""Bitmask encoding of basis blades e^{i1} ^ ... ^ e^{ik}.

A blade is an int whose bit (i-1) is set iff the covector e^i appears.
The generator count defaults to the eight covectors of R^8, whose blades
of each degree are tabulated once, at import, in the order of their index
tuples (``BLADES``), with each mask's position in that order
(``BLADE_POSITION``).  Signs come from counting transpositions, so
everything stays exact.
"""

from __future__ import annotations

from itertools import combinations

DIM = 8
FULL_MASK = (1 << DIM) - 1

__all__ = ["DIM", "FULL_MASK", "BLADES", "BLADE_POSITION", "wedge_sign",
           "contract_sign", "pair_sign_mask", "mask_of", "indices_of",
           "complement_sign"]


def wedge_sign(m1: int, m2: int) -> int:
    """Sign of blade(m1) ^ blade(m2) relative to blade(m1 | m2); 0 on overlap."""
    if m1 & m2:
        return 0
    return -1 if (m1 & _sign_mask(m2)).bit_count() & 1 else 1


def _sign_mask(m2: int) -> int:
    """The mask S with wedge_sign(m1, m2) = (-1)^|m1 & S| for every m1
    disjoint from m2: each generator j of m2 moves left past the
    generators of m1 above j, and the parity of those counts summed over
    j is the parity of |m1 & S| for S the XOR of the bits above each j."""
    s = 0
    t = m2
    while t:
        low = t & -t
        s ^= -(low << 1)
        t ^= low
    return s


def pair_sign_mask(a: int, b: int) -> int:
    """The mask S with e_a⌟e_b⌟e^m = (-1)^|m & S| e^(m ^ a ^ b) for every
    blade m holding both generators, given as the bits a ≠ b: e_b comes
    out past m's generators below b, then e_a past those of m ^ b below a."""
    return (b - 1) ^ (a - 1) & ~b


def contract_sign(slot: int, mask: int) -> int:
    """Sign picked up when e_slot (0-based) is pulled out of the front of mask.

    Returns 0 if the slot is absent, else (-1)**(number of earlier slots).
    """
    bit = 1 << slot
    if not (mask & bit):
        return 0
    return -1 if (mask & (bit - 1)).bit_count() & 1 else 1


def mask_of(indices, dim: int = DIM) -> tuple[int, int]:
    """(sign, mask) for a possibly unsorted list of 1-based indices in 1..dim.

    The sign is the parity of the permutation sorting the indices; it is 0
    when an index repeats (the blade collapses).
    """
    mask = 0
    sign = 1
    for idx in indices:
        if not 1 <= idx <= dim:
            raise ValueError(f"index {idx} out of range 1..{dim}")
        bit = 1 << (idx - 1)
        if mask & bit:
            return 0, 0
        # count already-placed indices larger than idx
        if (mask >> idx).bit_count() & 1:
            sign = -sign
        mask |= bit
    return sign, mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Increasing 1-based indices of a blade mask."""
    out = []
    t = mask
    while t:
        low = t & -t
        out.append(low.bit_length())
        t ^= low
    return tuple(out)


def complement_sign(mask: int) -> int:
    """Sign s with blade(mask) ^ blade(~mask) = s * e^{1..8}; the Hodge sign."""
    return wedge_sign(mask, FULL_MASK ^ mask)


BLADES = tuple(tuple(mask_of(c)[1] for c in combinations(range(1, DIM + 1), k))
               for k in range(DIM + 1))
BLADE_POSITION = tuple({m: i for i, m in enumerate(masks)} for masks in BLADES)
