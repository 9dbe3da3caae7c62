"""Multi-index order, enumeration, and arithmetic."""

import itertools
from math import comb

import pytest

from germradius import DimensionMismatch, enumerate_upto
from germradius.mindex import grlex_key, mi_factorial, scale, sub


def test_compare_degree_first_then_lex():
    assert grlex_key((0, 1)) < grlex_key((1, 0))
    assert grlex_key((2, 0)) > grlex_key((0, 1))
    assert grlex_key((1, 2, 0)) == grlex_key((1, 2, 0))


def test_enumerate_upto_small_cases():
    assert enumerate_upto(1, 2) == [(0,), (1,), (2,)]
    assert enumerate_upto(2, 1) == [(0, 0), (0, 1), (1, 0)]
    two_two = enumerate_upto(2, 2)
    assert len(two_two) == comb(4, 2) == 6
    assert two_two[-1] == (2, 0)


@pytest.mark.parametrize("n,d", [(1, 6), (2, 4), (3, 4), (4, 3)])
def test_enumerate_upto_count_and_strict_increase(n, d):
    seq = enumerate_upto(n, d)
    # count oracle: exhaustive generation over the cube, filtered by degree
    brute = [g for g in itertools.product(range(d + 1), repeat=n) if sum(g) <= d]
    assert len(seq) == len(brute) == comb(n + d, n)
    assert set(seq) == set(brute)
    assert seq[0] == (0,) * n
    for a, b in zip(seq, seq[1:]):
        assert grlex_key(a) < grlex_key(b)


def test_total_order_properties():
    for n in (1, 2, 3):
        seq = enumerate_upto(n, 3)
        for a in seq:
            for b in seq:
                ka, kb = grlex_key(a), grlex_key(b)
                assert (ka < kb) + (ka == kb) + (ka > kb) == 1
                assert (ka == kb) == (a == b)
        # transitivity on a subsample
        for a, b, c in itertools.product(seq[: 12], repeat=3):
            if grlex_key(a) <= grlex_key(b) <= grlex_key(c):
                assert grlex_key(a) <= grlex_key(c)


def _plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_additivity(n):
    # if g >= a and h >= b then g+h >= a+b, equality only at equality:
    # exhaustive over all index pairs up to degree 4
    seq = enumerate_upto(n, 4)
    ge_pairs = [(g, a) for g in seq for a in seq if grlex_key(g) >= grlex_key(a)]
    for g, a in ge_pairs:
        for h, b in ge_pairs:
            smaller = grlex_key(_plus(a, b))
            larger = grlex_key(_plus(g, h))
            assert larger >= smaller
            if larger == smaller:
                assert g == a and h == b


def test_mi_factorial():
    assert mi_factorial((0, 0)) == 1
    assert mi_factorial((2, 1)) == 2
    assert mi_factorial((3, 3)) == 36


def test_scale_add_sub():
    assert scale((1, 0), 3) == (3, 0)
    assert sub((2, 1), (1, 1)) == (1, 0)
    assert sub((0, 1), (1, 0)) is None
    with pytest.raises(DimensionMismatch):
        sub((1,), (1, 0))


def test_grlex_key_orders_like_compare():
    seq = enumerate_upto(3, 3)
    assert sorted(seq, key=grlex_key) == seq
