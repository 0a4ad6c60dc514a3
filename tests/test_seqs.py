"""Multiplicity-sequence combinatorics."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from curvecount import seqs

from helpers import leq, seq_sub, seqs_of_weight, subseqs, weight

# partition numbers p(0) .. p(10)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def random_seq(rng, max_len=5, max_entry=4):
    return seqs.canon(
        rng.randint(0, max_entry) for _ in range(rng.randint(0, max_len))
    )


def test_canon_trims_trailing_zeros():
    assert seqs.canon((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert seqs.canon((0, 0)) == ()
    assert seqs.canon(()) == ()


def test_canon_is_linear_in_trailing_zeros():
    # one scan for the last nonzero entry, not one slice per zero
    start = time.perf_counter()
    assert seqs.canon((1,) + (0,) * 200000) == (1,)
    assert time.perf_counter() - start < 1.0


def test_canon_rejects_negative():
    with pytest.raises(ValueError):
        seqs.canon((1, -1))


@pytest.mark.parametrize("entries", [(1, 2.5), (2.0,), ("1",)])
def test_canon_rejects_non_integers(entries):
    # operator.index, not int(): nothing is truncated or parsed
    with pytest.raises(TypeError):
        seqs.canon(entries)


def test_canon_takes_any_iterable():
    raw = [2, 0, 1, 0]
    forms = [raw, tuple(raw), (e for e in raw), map(int, raw)]
    assert [seqs.canon(form) for form in forms] == [(2, 0, 1)] * 4


def test_weight():
    assert seqs.weight(()) == 0
    assert seqs.weight((2, 1)) == 4  # 1*2 + 2*1
    assert seqs.weight((0, 0, 3)) == 9


def test_add_sub_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        a = random_seq(rng)
        b = random_seq(rng)
        total = seqs.add(a, b)
        assert seq_sub(total, b) == a
        assert sum(total) == sum(a) + sum(b)
        assert seqs.weight(total) == seqs.weight(a) + seqs.weight(b)


def test_add_takes_a_signed_summand():
    # a - e_j, as the engine lowers a profile; the sum is canonical
    assert seqs.add((2, 1), (0, -1)) == (2,)
    assert seqs.add((0, 0, 1), (0, 1, -1)) == (0, 1)
    with pytest.raises(ValueError):
        seqs.add((1,), (-2,))


def test_add_and_binomial_pad_either_side():
    assert seqs.add((1,), (0, 1)) == seqs.add((0, 1), (1,)) == (1, 1)
    assert seqs.add((), (0, 0, 2)) == seqs.add((0, 0, 2), ()) == (0, 0, 2)
    assert seqs.binomial((1,), (0, 1)) == 0
    assert seqs.binomial((2, 1), (1,)) == 2
    assert seqs.binomial((0, 3), ()) == 1


def test_leq():
    assert leq((), (1,))
    assert leq((1, 1), (2, 1))
    assert not leq((0, 2), (0, 1))
    assert leq((1, 0), (1,))  # padding, canonical or not


def test_binomial_examples():
    # entrywise C(top_k, bot_k)
    assert seqs.binomial((3,), (1,)) == 3
    assert seqs.binomial((3, 2), (1, 2)) == 3
    assert seqs.binomial((2,), (0, 1)) == 0  # bot exceeds top at index 2
    assert seqs.binomial((), ()) == 1


def test_binomial_is_domination_indicator():
    rng = random.Random(11)
    for _ in range(300):
        top = random_seq(rng)
        bot = random_seq(rng)
        value = seqs.binomial(top, bot)
        assert (value > 0) == leq(bot, top)


def test_binomial_pascal_recurrence():
    # C(top, bot) in one coordinate follows Pascal's rule; spot-check the
    # product form against math.comb on random pairs
    rng = random.Random(13)
    for _ in range(200):
        top = random_seq(rng)
        bot = tuple(rng.randint(0, t) for t in top)
        expected = 1
        for t, b in zip(top, bot):
            expected *= comb(t, b)
        assert seqs.binomial(top, bot) == expected


def test_nat_power_examples():
    assert seqs.nat_power(()) == 1  # empty product
    assert seqs.nat_power((2,)) == 1
    assert seqs.nat_power((0, 1)) == 2
    assert seqs.nat_power((1, 2, 1)) == 1 * 4 * 3


def test_nat_power_is_multiplicative():
    rng = random.Random(17)
    for _ in range(200):
        a = random_seq(rng)
        b = random_seq(rng)
        assert seqs.nat_power(seqs.add(a, b)) == seqs.nat_power(a) * seqs.nat_power(b)


@pytest.mark.parametrize("w", range(11))
def test_partition_counts(w):
    assert len(seqs.partitions(w)) == PARTITION_COUNTS[w]


def test_partition_order_examples():
    assert seqs.partitions(0) == ((),)
    assert seqs.partitions(1) == ((1,),)
    assert seqs.partitions(2) == ((2,), (0, 1))
    assert seqs.partitions(3) == ((3,), (1, 1), (0, 0, 1))
    assert seqs.partitions(3, 2) == ((3,), (1, 1))
    assert seqs.partitions(0, 1) == ()


def test_partitions_reject_a_negative_weight():
    with pytest.raises(ValueError):
        seqs.partitions(-1)


@pytest.mark.parametrize("w", range(23))
def test_partitions_with_min_size_filter_the_full_list(w):
    # the pruned enumeration keeps exactly the partitions with >= m parts,
    # in the order of the full list
    full = seqs.partitions(w)
    for m in range(w + 2):
        assert seqs.partitions(w, m) == tuple(c for c in full if sum(c) >= m)


@pytest.mark.parametrize("w", range(11))
def test_partitions_are_canonical_weight_w(w):
    got = seqs.partitions(w)
    assert len(set(got)) == len(got)
    for c in got:
        assert c == seqs.canon(c)
        assert seqs.weight(c) == w


@pytest.mark.parametrize("w", range(9))
def test_partitions_match_brute_force(w):
    assert sorted(seqs.partitions(w)) == seqs_of_weight(w)


def test_subsequences():
    assert seqs.subsequences(()) == [()]
    assert seqs.subsequences((2,)) == [(), (1,), (2,)]
    assert seqs.subsequences((1, 1)) == [(), (0, 1), (1,), (1, 1)]
    rng = random.Random(19)
    for _ in range(50):
        a = random_seq(rng, max_len=4, max_entry=2)
        subs = seqs.subsequences(a)
        assert all(leq(s, a) for s in subs)
        expected_count = 1
        for e in a:
            expected_count *= e + 1
        assert len(subs) == expected_count
        assert subs == sorted(subs)


@pytest.mark.parametrize("w", range(9))
def test_subsequences_match_brute_force(w):
    # every profile of weight <= 8, then with zeros inside and trailing
    for a in seqs_of_weight(w):
        assert seqs.subsequences(a) == subseqs(a)
        padded = (0,) + a + (0, 0)
        assert seqs.subsequences(padded) == subseqs(padded)


@pytest.mark.parametrize("w", range(9))
def test_subsequences_with_a_weight_bound_filter_the_full_list(w):
    for a in seqs_of_weight(w):
        for s in (a, (0,) + a + (0,)):
            for bound in range(-2, weight(s) + 2):
                expected = [b for b in subseqs(s) if weight(b) <= bound]
                assert seqs.subsequences(s, bound) == expected


def test_exact_arithmetic_contract():
    # arbitrary-precision integers: no wraparound at machine-word size
    big = 2 ** 63
    assert seqs.nat_power((big,)) == 1  # 1^big
    assert seqs.binomial((130,), (65,)) == comb(130, 65)
    assert seqs.binomial((130,), (65,)) > 2 ** 63
    # rational normalization is idempotent and canonical
    q = Fraction(2 * big, 4 * big)
    assert q == Fraction(1, 2)
    assert Fraction(q.numerator, q.denominator) == q
    assert Fraction(3, -6).denominator > 0
