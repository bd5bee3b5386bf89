"""Sign bookkeeping of the bitmask blade encoding.

The oracle for every sign here is an independent inversion count on index
sequences, written out below without reference to the bitmask code paths.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from spin7lab.exterior.blades import (BLADES, DIM, FULL_MASK,
                                      complement_sign, contract_sign,
                                      indices_of, mask_of, pair_sign_mask,
                                      wedge_sign)


def perm_sign(seq) -> int:
    """Parity of the permutation sorting seq, by inversion count; 0 on repeats."""
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions & 1 else 1


masks = st.integers(min_value=0, max_value=FULL_MASK)
index_tuples = st.lists(st.integers(min_value=1, max_value=DIM),
                        min_size=0, max_size=6)


@given(index_tuples)
def test_mask_of_matches_inversion_count(indices):
    sign, mask = mask_of(indices)
    assert sign == perm_sign(indices)
    if sign:
        assert indices_of(mask) == tuple(sorted(indices))
    else:
        assert mask == 0


def test_mask_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        mask_of([0])
    with pytest.raises(ValueError):
        mask_of([9])


@given(masks, masks)
def test_wedge_sign_is_concatenation_parity(m1, m2):
    if m1 & m2:
        assert wedge_sign(m1, m2) == 0
    else:
        concat = indices_of(m1) + indices_of(m2)
        assert wedge_sign(m1, m2) == perm_sign(concat)


@given(masks, masks)
def test_wedge_sign_graded_antisymmetry(m1, m2):
    if m1 & m2:
        return
    k, l = m1.bit_count(), m2.bit_count()
    assert wedge_sign(m1, m2) == (-1) ** (k * l) * wedge_sign(m2, m1)


@given(masks, st.integers(min_value=0, max_value=DIM - 1))
def test_contract_sign_counts_earlier_slots(mask, slot):
    if not (mask & (1 << slot)):
        assert contract_sign(slot, mask) == 0
    else:
        earlier = sum(1 for p in range(slot) if mask & (1 << p))
        assert contract_sign(slot, mask) == (-1) ** earlier


def test_pair_sign_mask_is_two_contractions():
    # e_a⌟e_b⌟e^m for every pair of distinct generators and every blade
    for a in range(DIM):
        for b in range(DIM):
            if a == b:
                continue
            sign_mask = pair_sign_mask(1 << a, 1 << b)
            for m in range(FULL_MASK + 1):
                sign = contract_sign(b, m) * contract_sign(a, m & ~(1 << b))
                if sign:
                    assert (-1) ** (m & sign_mask).bit_count() == sign
                else:
                    assert not (m >> a & 1 and m >> b & 1)


@given(masks)
def test_complement_sign_double_complement(mask):
    k = mask.bit_count()
    assert (complement_sign(mask) * complement_sign(FULL_MASK ^ mask)
            == (-1) ** (k * (DIM - k)))


def test_blades_of_degree_enumeration():
    for k in range(DIM + 1):
        blades = BLADES[k]
        assert len(blades) == comb(DIM, k)
        assert all(m.bit_count() == k for m in blades)
        # ordering follows the combinations of index tuples
        assert [indices_of(m) for m in blades] == \
            [c for c in combinations(range(1, DIM + 1), k)]
