"""Sign bookkeeping of the bitmask blade encoding.

The oracle for every sign here is an independent inversion count on index
sequences, written out below without reference to the bitmask code paths.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from spin7lab.exterior.blades import (BLADES, DIM, FULL_MASK,
                                      complement_sign, indices_of, mask_of,
                                      wedge_sign)
from spin7lab.exterior.forms import _contractions


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
    # the engine's walk gives e_slot⌟e^mask the sign of moving e^slot to
    # the front of mask's indices
    piece = _contractions({mask: 1}, DIM)[slot]
    if not (mask & (1 << slot)):
        assert piece == {}
    else:
        rest = mask ^ (1 << slot)
        assert piece == {rest: perm_sign((slot + 1,) + indices_of(rest))}


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
