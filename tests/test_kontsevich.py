"""Rational curve counts against the naive evaluator."""

import sys

import pytest

from curvecount import kontsevich, severi

from helpers import naive_rational_count, rational_counts_mod

# produced by the naive evaluator; 1, 1, 12, 620 are classical
FROZEN_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


@pytest.mark.parametrize("d,expected", sorted(FROZEN_COUNTS.items()))
def test_frozen_counts(d, expected):
    assert kontsevich.rational_table(d)[-1] == (d, expected)


@pytest.mark.parametrize("d", range(1, 8))
def test_matches_naive_evaluator(d):
    assert kontsevich.rational_table(d)[-1] == (d, naive_rational_count(d))


def test_table_rows():
    rows = kontsevich.rational_table(6)
    assert rows == [(d, FROZEN_COUNTS[d]) for d in range(1, 7)]


def test_agrees_with_severi_one_node():
    # a rational cubic is a one-nodal cubic
    assert kontsevich.rational_table(3)[-1][1] == severi.severi_degree(
        severi.SeveriIndex(3, 1, (), (3,))
    )


def test_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        kontsevich.rational_table(0)
    with pytest.raises(ValueError):
        kontsevich.rational_table(-3)


def test_paired_sum_matches_naive_evaluator_to_60():
    # the engine sums (d1, n - d1) and (n - d1, d1) as one pair; the naive
    # evaluator sums every split on its own
    assert kontsevich.rational_table(60) == [
        (d, naive_rational_count(d)) for d in range(1, 61)
    ]


def test_one_binomial_form_matches_ordered_splits_mod_p_to_300():
    # the engine carries C(3n-2, 3d2-1) on the larger part of each paired
    # split and divides by M(M-1) once; the oracle sums every ordered split
    # with its own binomials, modulo the Mersenne prime 2^61 - 1
    p = 2 ** 61 - 1
    expected = rational_counts_mod(p, 300)
    rows = kontsevich.rational_table(300)
    assert [(d, n % p) for d, n in rows] == list(enumerate(expected, start=1))


def test_every_table_end_matches_a_longer_table():
    # the degrees in (D/2, D) still carry a binomial when the table ends at
    # D and are divided back there; D runs over both parities
    full = kontsevich.rational_table(81)
    for d_max in range(1, 81):
        assert kontsevich.rational_table(d_max) == full[:d_max], d_max


def test_cold_call_does_not_recurse():
    expected = kontsevich.rational_table(150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        assert kontsevich.rational_table(150) == expected
    finally:
        sys.setrecursionlimit(limit)
