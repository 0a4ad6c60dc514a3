"""Rational curve counts against the naive evaluator."""

import sys

import pytest

from curvecount import kontsevich, severi
from curvecount.kontsevich import KontsevichTable

from helpers import naive_rational_count

# produced by the naive evaluator; 1, 1, 12, 620 are classical
FROZEN_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


@pytest.mark.parametrize("d,expected", sorted(FROZEN_COUNTS.items()))
def test_frozen_counts(d, expected):
    assert kontsevich.rational_count(d) == expected


@pytest.mark.parametrize("d", range(1, 8))
def test_matches_naive_evaluator(d):
    assert kontsevich.rational_count(d) == naive_rational_count(d)


def test_table_rows():
    rows = kontsevich.rational_table(6)
    assert rows == [(d, FROZEN_COUNTS[d]) for d in range(1, 7)]


def test_agrees_with_severi_one_node():
    # a rational cubic is a one-nodal cubic
    assert kontsevich.rational_count(3) == severi.severi_degree(
        severi.SeveriIndex(3, 1, (), (3,))
    )


def test_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        kontsevich.rational_count(0)
    with pytest.raises(ValueError):
        kontsevich.rational_table(0)


def test_table_seeded_and_write_once():
    table = KontsevichTable()
    assert table.get(1) == 1
    kontsevich.rational_count(4, table)
    assert 3 in table and table.get(3) == 12
    table.put(3, 12)  # benign identical rewrite
    with pytest.raises(RuntimeError):
        table.put(3, 13)


def test_shared_table_reused():
    table = KontsevichTable()
    kontsevich.rational_count(6, table)
    size = len(table)
    assert kontsevich.rational_count(6, table) == FROZEN_COUNTS[6]
    assert len(table) == size


def test_cold_call_does_not_recurse():
    expected = kontsevich.rational_table(150)[-1][1]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        assert kontsevich.rational_count(150) == expected
    finally:
        sys.setrecursionlimit(limit)
