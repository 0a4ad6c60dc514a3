"""Severi degree engine against the brute-force oracle and frozen values."""

import ast
import inspect
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest

from curvecount import genfunc, goettsche, seqs, severi
from curvecount.cache import DegreeRecord
from curvecount.severi import MemoStore, SeveriIndex

from helpers import (all_indices, leq, oracle_degree, oracle_first_sum,
                     oracle_second_sum, profiles, seq_binom, seq_sub, subseqs,
                     table_rows, weight)


def idx(d, delta, alpha=(), beta=()):
    return SeveriIndex(d, delta, alpha, beta)


def indices(d, delta_max=None):
    return [SeveriIndex(*raw) for raw in all_indices(d, delta_max)]


# ----------------------------------------------------------- validation
def test_weight_mismatch_rejected():
    with pytest.raises(severi.InvalidIndex, match="got weight 0 for d = 2"):
        severi.validate(2, 1, (), ())
    with pytest.raises(severi.InvalidIndex, match="got weight 2 for d = 3"):
        severi.validate(3, 0, (1,), (1,))


@pytest.mark.parametrize("raw", [(3, 1, (), (3.9,)), (3, 1.5, (), (3,)),
                                 ("3", 1, (), (3,)), (3, 1, ("3",), ())])
def test_non_integers_rejected(raw):
    # nothing is truncated to N(3, 1; (), (3)) = 12 or parsed from a string
    with pytest.raises(TypeError):
        SeveriIndex(*raw)
    with pytest.raises(TypeError):
        severi.validate(*raw)


def test_validate_is_the_checked_constructor():
    assert severi.validate is SeveriIndex


def test_nonpositive_degree_rejected():
    with pytest.raises(severi.InvalidIndex, match="degree d must be >= 1, got 0"):
        severi.validate(0, 0, (), ())


def test_replace_validates():
    index = idx(3, 1, (), (3,))
    with pytest.raises(severi.InvalidIndex, match="got weight 3 for d = 5"):
        index._replace(d=5)
    with pytest.raises(severi.InvalidIndex, match="degree d must be >= 1"):
        index._replace(d=0)
    assert index._replace(delta=2, beta=(3, 0)) == idx(3, 2, (), (3,))


def test_validate_canonicalizes():
    index = severi.validate(3, 1, (3, 0, 0), (0, 0))
    assert index.alpha == (3,)
    assert index.beta == ()


def test_delta_may_be_out_of_range():
    # the index is legal; its degree is 0
    index = severi.validate(2, 5, (), (2,))
    assert severi.severi_degree(index) == 0
    assert severi.severi_degree(severi.validate(2, -1, (), (2,))) == 0


# ------------------------------------------------------- genus, dimension
def test_genus_examples():
    assert severi.genus(idx(3, 1, (), (3,))) == 0
    assert severi.genus(idx(4, 3, (), (4,))) == 0
    assert severi.genus(idx(2, 1, (), (2,))) == -1  # excess node
    assert severi.genus(idx(5, 2, (), (5,))) == 4


def test_dimension_examples():
    assert severi.dimension(idx(3, 1, (), (3,))) == 8
    assert severi.dimension(idx(4, 3, (), (4,))) == 11
    assert severi.dimension(idx(3, 1, (3,), ())) == 5
    assert severi.dimension(idx(1, 0, (1,), ())) == 1
    assert severi.dimension(idx(1, 0, (), (1,))) == 2


def all_valid_indices(d_max):
    return [
        index for d in range(1, d_max + 1) for index in indices(d)
    ]


@pytest.mark.parametrize("d", range(1, 6))
def test_dimension_two_forms_agree_everywhere(d):
    # dimension() evaluates the first closed form; the second, through the
    # genus, is recomputed here
    for index in indices(d):
        r = severi.dimension(index)
        g = severi.genus(index)
        assert r == 2 * index.d + g - 1 + sum(index.beta)


# ------------------------------------------------------------ first sum
def first_sum(index):
    """(j, child) per j with beta_j > 0, from the raisings and lowerings that
    _degree and severi_table read."""
    d, delta, alpha, beta = index
    raised = severi._raisings(alpha, len(beta))
    return [(j, idx(d, delta, raised[j - 1], lowered))
            for j, lowered in severi._lowerings(beta)]


def test_first_sum_examples():
    assert first_sum(idx(3, 1, (), (3,))) == [
        (1, idx(3, 1, (1,), (2,)))
    ]
    assert first_sum(idx(3, 1, (3,), ())) == []
    assert first_sum(idx(2, 0, (), (0, 1))) == [
        (2, idx(2, 0, (0, 1), ()))
    ]


@pytest.mark.parametrize("d", range(1, 8))
def test_first_sum_matches_brute_force(d):
    # children (alpha + e_j, beta - e_j) per j with beta_j > 0, in order of j
    for index in indices(d, 0):
        assert first_sum(index) == oracle_first_sum(*index)


def test_first_sum_children_valid_and_smaller():
    rng = random.Random(23)
    for index in rng.sample(all_valid_indices(5), 60):
        for j, child in first_sum(index):
            assert child.d == index.d and child.delta == index.delta
            assert sum(child.beta) == sum(index.beta) - 1
            assert index.beta[j - 1] > 0


# ------------------------------------------------------------ second sum
def second_sum(index):
    """(coeff, child) of the degeneration sum, sorted, from the split and
    increment tables as _degree and severi_table compose them (d >= 2)."""
    d, delta, alpha, beta = index
    top = d - 1
    min_size = max(top - delta, 0)
    return sorted(
        (assigned * coeff, idx(top, delta - top + c_size, a_prime, b_prime))
        for a_prime, assigned, budget, _ in severi._assigned_splits(alpha, min_size)
        for coeff, c_size, b_prime in severi._degenerations(beta, budget, min_size))


def oracle_terms(index):
    return sorted(oracle_second_sum(*index))


def test_second_sum_frozen_examples():
    # oracle-derived: the (2,0,(1),(1)) list is empty (its only candidate
    # increments are filtered by the delta' bound)
    frozen = {
        idx(2, 0, (1,), (1,)): [],
        idx(3, 1, (), (3,)): [],
        idx(2, 0, (2,), ()): [(1, idx(1, 0, (), (1,)))],
        idx(2, 1, (2,), ()): [
            (1, idx(1, 1, (), (1,))),
            (2, idx(1, 0, (1,), ())),
        ],
        # the three degenerations of the fully-assigned nodal cubic; the
        # coefficient 3 is the entrywise binomial C((3), (1))
        idx(3, 1, (3,), ()): [
            (1, idx(2, 1, (), (2,))),
            (2, idx(2, 0, (), (0, 1))),
            (3, idx(2, 0, (1,), (1,))),
        ],
    }
    for index, terms in frozen.items():
        assert second_sum(index) == oracle_terms(index) == sorted(terms)


@pytest.mark.parametrize("d", range(2, 6))
def test_second_sum_matches_bruteforce_oracle(d):
    for index in indices(d):
        assert second_sum(index) == oracle_terms(index)


def test_second_sum_children_valid():
    for index in indices(5):
        for coeff, child in second_sum(index):
            assert coeff > 0
            assert child.d == index.d - 1
            assert 0 <= child.delta <= index.delta
            assert leq(child.alpha, index.alpha)
            assert leq(index.beta, child.beta)


# --------------------------------------------------------------- degrees
FROZEN_DEGREES = [
    # (d, delta, alpha, beta, degree)
    (1, 0, (1,), (), 1),
    (1, 0, (), (1,), 1),
    (2, 0, (), (2,), 1),
    (2, 0, (1,), (1,), 1),
    (2, 0, (), (0, 1), 2),  # conics tangent to the line
    (2, 1, (), (2,), 3),  # nodal conics
    (2, 1, (1,), (1,), 3),
    (2, 1, (2,), (), 2),
    (2, 1, (), (0, 1), 0),
    (3, 1, (), (3,), 12),  # rational cubics through 8 points
    (3, 1, (3,), (), 10),
    (3, 2, (), (3,), 21),  # conic + line through 7 points: C(7,2)
    (3, 3, (), (3,), 15),  # triangles through 6 points
    (4, 1, (), (4,), 27),
    (4, 2, (), (4,), 225),
    (4, 3, (), (4,), 675),  # 620 irreducible + C(11,2) line + cubic
]


@pytest.mark.parametrize("d,delta,alpha,beta,expected", FROZEN_DEGREES)
def test_frozen_degrees(d, delta, alpha, beta, expected):
    assert severi.severi_degree(idx(d, delta, alpha, beta)) == expected


def test_decomposition_of_the_twelve():
    # walking one point to the line: 12 splits into tangent conics (twice),
    # the three point-conic pairs, nodal conics plus the line, and the
    # nodal-conic term with corrected profile (0),(2)
    memo = MemoStore()
    n = lambda *a: severi.severi_degree(idx(*a), memo)
    assert n(3, 1, (), (3,)) == (
        2 * n(2, 0, (), (2,))
        + 3 * n(2, 0, (1,), (1,))
        + 2 * n(2, 0, (), (0, 1))
        + n(2, 1, (), (2,))
    )
    assert n(3, 1, (3,), ()) == (
        n(2, 1, (), (2,)) + 2 * n(2, 0, (), (0, 1)) + 3 * n(2, 0, (1,), (1,))
    )


def test_vanishing_rule_marks_exactly_the_zero_rows():
    # a reduced curve of genus g has at least 1 - g components, each with a
    # contact point of its own on L: degree 0 exactly when |alpha| + |beta| < 1 - g
    rows = table_rows(severi.severi_table(9, 36))
    assert len(rows) == 20513
    marked = 0
    for rec in rows:
        rule = sum(rec.index.alpha) + sum(rec.index.beta) < 1 - rec.genus
        assert (rec.degree == 0) == rule, rec
        marked += rule
    assert marked == 2420


def test_marked_index_is_answered_without_recursion():
    # C(59, 2) + 30 = 1741 <= 1770 nodes: zero on entry, the memo untouched
    memo = MemoStore()
    assert severi.severi_degree(idx(60, 1770, (), (0, 30)), memo) == 0
    assert len(memo) == memo.hits == 0


def test_memo_holds_no_marked_index():
    memo = MemoStore()
    severi.severi_degree(idx(10, 36, (), (10,)), memo)
    assert 0 not in memo.values()


@pytest.mark.parametrize("d", range(2, 13))
def test_one_node_law(d):
    assert severi.severi_degree(idx(d, 1, (), (d,))) == 3 * (d - 1) ** 2


def test_deep_query_raises_the_recursion_limit_only_for_the_call():
    # _degree nests up to (d+1)(d+2)/2 - 2 = 229 deep at d = 20
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        assert severi.severi_degree(severi.validate(20, 1, (1,), (19,))) == 3 * 19 ** 2
        assert sys.getrecursionlimit() == 150
    finally:
        sys.setrecursionlimit(limit)


def test_stack_room_clamps_the_limit_to_a_c_int():
    # from d ~ 65,530 the raised limit would pass 2**31 - 1 and overflow
    limit = sys.getrecursionlimit()
    with severi._stack_room(70000):
        assert sys.getrecursionlimit() == 2**31 - 1
    assert sys.getrecursionlimit() == limit


# Node polynomials (Kleiman-Piene; Fomin-Mikhalkin): N(d, delta; (), (d)) is a
# polynomial in d of degree 2 delta for d >= delta.  These reach degrees the
# brute-force oracle cannot, where the pruned degeneration sum keeps the
# fewest of its candidates (few nodes, high degree).
def test_two_node_closed_form():
    memo = MemoStore()
    for d in range(2, 12):
        twice = 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)
        assert 2 * severi.severi_degree(idx(d, 2, (), (d,)), memo) == twice


def test_three_node_closed_form():
    memo = MemoStore()
    for d in range(3, 12):
        twice = (9 * d**6 - 54 * d**5 + 9 * d**4 + 423 * d**3 - 458 * d**2
                 - 829 * d + 1050)
        assert 2 * severi.severi_degree(idx(d, 3, (), (d,)), memo) == twice


def test_two_node_closed_form_at_degree_fifty():
    # |c| >= 47 of 48 parts: the increments are pruned where they are made
    assert severi.severi_degree(idx(50, 2, (1,), (49,))) == 25891992


def test_four_node_polynomial_has_degree_eight():
    # alpha = (1) keeps every d on the recursion, off Goettsche's route
    memo = MemoStore()
    values = [severi.severi_degree(idx(d, 4, (1,), (d - 1,)), memo) for d in range(4, 14)]
    assert values[0] > 0
    ninth_difference = sum(
        (-1) ** (9 - i) * comb(9, i) * value for i, value in enumerate(values)
    )
    assert ninth_difference == 0


# Goettsche's form (Kool-Shende-Thomas; Tzeng): severi_degree answers (), (d)
# with d - d0 >= 3 from the window d = d0..d0 + 2, d0 = goettsche.window_start(delta).
# At alpha = () the recursion has the first-sum term j = 1 alone, so
# N(d, delta; (), (d)) = N(d, delta; (1), (d - 1)), which the route never answers.
# Four points lie past the certification test's table (d <= 12): d = 13 at
# delta = 9, 10, and delta = 11, 12 above CERTIFIED_DELTA, where d0 = delta.
ROUTE_GRID = ([(d, delta) for delta in range(1, 9) for d in range(delta + 3, 3 * delta + 4)]
              + [(60, 4), (200, 2), (40, 6)]
              + [(13, 9), (13, 10), (14, 11), (15, 12)]
              + [(d, delta) for delta in range(1, 9)
                 for d in range(goettsche.window_start(delta) + 3, delta + 3)])


def route_mismatches(grid, routed):
    """(d, delta) in grid where the route, from memo routed, and the recursion differ."""
    recursion = MemoStore()
    return [(d, delta) for d, delta in grid
            if severi.severi_degree(idx(d, delta, (), (d,)), routed)
            != severi.severi_degree(idx(d, delta, (1,), (d - 1,)), recursion)]


def test_goettsche_route_equals_the_recursion():
    assert len(ROUTE_GRID) == 96
    assert route_mismatches(ROUTE_GRID, MemoStore()) == []


def test_goettsche_route_catches_a_wrong_window_value():
    # past CERTIFIED_DELTA the route reads its window d0..d0 + 2, d0 = delta,
    # through the memo: N(13, 11) is in the window 11..13 of delta = 11 (a
    # wrong N(12, 11) also reaches N(13, 11) by the recursion, and at t = 3
    # the two errors cancel: (14, 11) reads right, (15, 11) moves)
    routed = MemoStore()
    routed.put(idx(13, 11, (), (13,)), severi.severi_degree(idx(13, 11, (), (13,))) + 1)
    assert route_mismatches([(14, 11), (15, 11)], routed) == [(14, 11), (15, 11)]
    # up to it the constants answer before the memo is read
    routed = MemoStore()
    routed.put(idx(4, 2, (), (4,)), severi.severi_degree(idx(4, 2, (), (4,))) + 1)
    assert route_mismatches([(4, 2), (7, 2)], routed) == []


@lru_cache(maxsize=None)
def node_rows(d_max, delta_max):
    """{d: [N(d, delta; (), (d)) for delta <= delta_max]} from severi_table, which never routes."""
    return {d: (degrees + [0] * delta_max)[:delta_max + 1]
            for d, layer in enumerate(severi.severi_table(d_max, delta_max), start=1)
            for alpha, beta, degrees, _, _ in layer if not alpha and beta == (d,)}


def test_goettsche_windows_are_certified_up_to_the_bound():
    # ell_k(d) = [x^k] x F_d'/F_d is a quadratic in d for d >= k (proven).  Its
    # third differences must vanish on d0 = window_start(k)..bound + 2, a range
    # that holds the proven window k..k + 2, so the quadratic from d0 on is the
    # proven one.  d0 never falls as delta grows, so every ell_k, k <= delta, is
    # that quadratic on the window of delta nodes.  A bound raised past the
    # range where this holds, or a d0 below it (ceil(k/2) fails at every
    # k >= 3), fails here.
    bound = goettsche.CERTIFIED_DELTA
    d_max = bound + 2
    rows = node_rows(d_max, bound)
    ell = {d: goettsche._log_derivative(rows[d]) for d in rows}
    for k in range(1, bound + 1):
        d0 = goettsche.window_start(k)
        assert d0 <= k
        third = [ell[d + 3][k] - 3 * ell[d + 2][k] + 3 * ell[d + 1][k] - ell[d][k]
                 for d in range(d0, d_max - 2)]
        assert third == [0] * len(third), k
    starts = [goettsche.window_start(delta) for delta in range(1, 200)]
    assert starts == sorted(starts)
    assert starts[:bound] == [min(k, (k + 1) // 2 + 1) for k in range(1, bound + 1)]
    assert starts[bound:] == list(range(bound + 1, 200))


def test_node_constants_are_their_derivation():
    # (d0, v, D1, D2) of ell_k: its value and forward differences at
    # d0 = window_start(k), on the certified table
    bound = goettsche.CERTIFIED_DELTA
    rows = node_rows(bound + 2, bound)
    ell = {d: goettsche._log_derivative(rows[d]) for d in rows}
    derived = []
    for k in range(1, bound + 1):
        d0 = goettsche.window_start(k)
        v, v1, v2 = (ell[d0 + i][k] for i in range(3))
        derived.append((d0, v, v1 - v, v2 - 2 * v1 + v))
    assert goettsche.NODE_CONSTANTS == tuple(derived)
    assert max(abs(entry).bit_length() for row in derived for entry in row) == 42


def test_a_wrong_node_constant_moves_a_table_point():
    # a +1 at any of the 40 entries moves N(d, delta; (), (d)) at some
    # delta <= CERTIFIED_DELTA and d0 <= d <= CERTIFIED_DELTA + 2
    bound = goettsche.CERTIFIED_DELTA
    rows = node_rows(bound + 2, bound)
    frozen = goettsche.NODE_CONSTANTS

    def moves(d, delta, constants):
        try:  # at a wrong v_10, 10 F_10 is off by 1: its division is not exact
            return goettsche.node_degree(d, delta, constants) != rows[d][delta]
        except ArithmeticError:
            return True

    for k, i in product(range(bound), range(4)):
        wrong = list(frozen[k])
        wrong[i] += 1
        constants = frozen[:k] + (tuple(wrong),) + frozen[k + 1:]
        assert any(moves(d, delta, constants)
                   for delta in range(k + 1, bound + 1) for d in rows
                   if d >= max(row[0] for row in constants[:delta])), (k + 1, i)


def count_routes(monkeypatch):
    """(constants, windows): the lists that (d, delta) of each later
    goettsche.node_degree call from severi, and of each extrapolate call, join."""
    constants, windows = [], []
    node_degree, extrapolate = goettsche.node_degree, goettsche.extrapolate

    def counted_constants(d, delta, *window):  # extrapolate passes its window's constants
        if not window:
            constants.append((d, delta))
        return node_degree(d, delta, *window)

    def counted_window(rows, t):
        delta = len(rows[0]) - 1
        windows.append((goettsche.window_start(delta) + t, delta))
        return extrapolate(rows, t)

    monkeypatch.setattr(goettsche, "node_degree", counted_constants)
    monkeypatch.setattr(goettsche, "extrapolate", counted_window)
    return constants, windows


def test_every_routed_value_is_a_table_row(monkeypatch):
    # route-free: N(d, delta; (), (d)) at d <= 12, delta <= 10 from one memo,
    # against severi_table; the vanishing rule gives every zero, the constants
    # every other value but (5, 9) and (5, 10), below their window d0 = 6, and
    # the memo holds only what the recursion of those two stores
    bound = goettsche.CERTIFIED_DELTA
    rows = node_rows(bound + 2, bound)
    nonzero = {(d, delta) for d in rows for delta in range(1, bound + 1) if rows[d][delta]}
    assert len(nonzero) == 90
    routed = {(d, delta) for d, delta in nonzero if d >= goettsche.window_start(delta)}
    assert nonzero - routed == {(5, 9), (5, 10)}
    constants, windows = count_routes(monkeypatch)
    memo = MemoStore()
    for d, row in rows.items():
        for delta in range(1, bound + 1):
            assert severi.severi_degree(idx(d, delta, (), (d,)), memo) == row[delta], (d, delta)
    assert sorted(constants) == sorted(routed) and windows == []
    below = MemoStore()
    for d, delta in sorted(nonzero - routed):
        severi.severi_degree(idx(d, delta, (), (d,)), below)
    assert dict(memo) == dict(below)


def test_below_its_window_the_route_module_is_the_recursion(monkeypatch):
    # past CERTIFIED_DELTA, where d0 = delta, severi_degree loads goettsche from
    # d = delta // 2 + 1 on; below d0 + 3 it takes neither route and answers
    # with the recursion: the same memo entries and hits
    constants, windows = count_routes(monkeypatch)
    for d, delta in [(8, 11), (10, 11), (12, 11), (13, 11), (10, 12), (14, 12)]:
        index, memo, recursion = idx(d, delta, (), (d,)), MemoStore(), MemoStore()
        value = severi.severi_degree(index, memo)
        with severi._stack_room(d):
            assert severi._degree(index, recursion) == value
        assert dict(memo) == dict(recursion)
        assert memo.hits == recursion.hits
    assert constants == windows == []


@pytest.mark.parametrize("d", range(1, 5))
def test_degrees_match_oracle_everywhere(d):
    memo = MemoStore()
    oracle_memo = {}
    for index in indices(d):
        assert severi.severi_degree(index, memo) == oracle_degree(
            index.d, index.delta, index.alpha, index.beta, oracle_memo
        )


def test_degrees_nonnegative():
    memo = MemoStore()
    for index in all_valid_indices(5):
        assert severi.severi_degree(index, memo) >= 0


def test_memo_transparency():
    # at every index with d <= 6, a degree computed through a warm shared
    # memo equals the same degree recomputed from scratch, and equals the
    # recursion's right-hand side over the oracle's terms
    shared = MemoStore()
    rhs_memo = MemoStore()
    for index in all_valid_indices(6):
        warm = severi.severi_degree(index, shared)
        cold = severi.severi_degree(index, MemoStore())
        assert warm == cold
        if index.d >= 2:
            rhs = sum(
                j * severi.severi_degree(idx(*child), rhs_memo)
                for j, child in oracle_first_sum(*index)
            ) + sum(
                coeff * severi.severi_degree(idx(*child), rhs_memo)
                for coeff, child in oracle_second_sum(*index)
            )
            assert warm == rhs


def test_memo_work_counters_are_pinned():
    # one memo entry per computed index, and every child found in the memo is a hit
    memo = MemoStore()
    assert severi.severi_degree(idx(10, 36, (), (10,)), memo) == 178396887235408616925
    assert (len(memo), memo.hits) == (3438, 25224)


def test_the_node_poly_sweep_never_recurses(monkeypatch):
    # the benchmark's node-poly sweep, d = delta..3 delta + 1 for delta <= 6, one
    # memo: delta = 0 is the closed form and every other point is read from the
    # constants, so _degree never runs, the memo stays empty and no term table grows
    calls = []
    monkeypatch.setattr(severi, "_degree", lambda index, memo: calls.append(index))
    tables = [severi._raisings, severi._lowerings, severi._assigned_splits,
              severi._degenerations]
    before = [table.cache_info() for table in tables]
    memo = MemoStore()
    for delta in range(7):
        for d in range(max(1, delta), 3 * delta + 2):
            severi.severi_degree(idx(d, delta, (), (d,)), memo)
    assert calls == []
    assert len(memo) == memo.hits == 0
    assert [table.cache_info() for table in tables] == before


# delta = 11, past CERTIFIED_DELTA: d = 8..13 recurse, d = 14 reads its window
PAST_THE_BOUND = [(d, 11) for d in range(8, 15)]


def test_degree_runs_once_per_miss_and_never_at_delta_zero(monkeypatch):
    # delta = 0 is the closed form, so every _degree call and every window
    # route stores one memo entry; the constants (the window's delta <= 10
    # rows) store none
    deltas, degree = [], severi._degree

    def counted(index, memo):
        deltas.append(index[1])
        return degree(index, memo)

    monkeypatch.setattr(severi, "_degree", counted)
    constants, windows = count_routes(monkeypatch)
    memo = MemoStore()
    for d, delta in PAST_THE_BOUND:
        severi.severi_degree(idx(d, delta, (), (d,)), memo)
    assert 0 not in deltas
    assert (len(deltas), len(windows), len(constants)) == (17685, 1, 30)
    assert len(deltas) + len(windows) == len(memo)


def test_memo_keys_share_one_tuple_per_profile():
    # every key, routed or recursed, is a _Key copy, never an unchecked SeveriIndex
    memo = MemoStore()
    for d, delta in PAST_THE_BOUND:
        severi.severi_degree(idx(d, delta, (), (d,)), memo)
    assert len(memo) == 17686
    assert all(type(k) is severi._Key for k in memo)
    assert len({id(k.alpha) for k in memo}) == len({k.alpha for k in memo})
    assert len({id(k.beta) for k in memo}) == len({k.beta for k in memo})


def test_a_traced_sweep_counts_each_memo_entry_in_its_layer(tmp_path):
    # bench/tracer.py wraps MemoStore.put and counts its key's .d; the sweep
    # takes the constants, as the benchmark's node-poly op does, and recurses
    # at (8, 11), below its window past CERTIFIED_DELTA
    pairs = [(d, delta) for delta in range(4) for d in range(max(1, delta), 3 * delta + 2)]
    pairs.append((8, 11))
    root, src = (pathlib.Path(f).resolve().parents[1] for f in (__file__, severi.__file__))
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), "--stats-out",
         str(tmp_path / "stats.json"), "--trace-out", str(tmp_path / "trace.json"),
         "sweep", ",".join("%d:%d" % pair for pair in pairs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    memo = MemoStore()
    for d, delta in pairs:
        severi.severi_degree(idx(d, delta, (), (d,)), memo)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["memo_entries"] == len(memo)
    assert {int(d): n for d, n in trace["layer_indices"].items()} == Counter(k[0] for k in memo)


@pytest.mark.parametrize("w", range(9))
def test_assigned_splits_are_every_sub_profile(w):
    # budget = weight(c) = w - 1 - weight(alpha') >= min |c|; alpha' lexicographic
    for alpha in profiles(w):
        every = [(a, seq_binom(alpha, a), w - 1 - weight(a), sum(a))
                 for a in subseqs(alpha)]
        for min_size in range(w + 1):
            expected = tuple(s for s in every if s[2] >= min_size)
            assert severi._assigned_splits(alpha, min_size) == expected


def nodeless_by_factorials(beta):
    value = factorial(sum(beta))
    for k, entry in enumerate(beta, start=1):
        value = value // factorial(entry) * k ** entry
    return value


@pytest.mark.parametrize("w", range(13))
def test_nodeless_closed_form_satisfies_the_induction_step(w):
    # sum_j j * f(beta - e_j) = f(beta): the first sum at delta = 0
    for beta in profiles(w):
        f = severi._nodeless(beta)
        assert f == nodeless_by_factorials(beta)
        if beta:
            assert f == sum(j * severi._nodeless(seq_sub(beta, (0,) * (j - 1) + (1,)))
                            for j, entry in enumerate(beta, start=1) if entry)
    assert severi._nodeless(()) == 1


def test_nodeless_closed_form_is_every_delta_zero_table_row():
    rows = table_rows(severi.severi_table(10, 0))
    assert len(rows) > 0 and all(rec.index.delta == 0 for rec in rows)
    for rec in rows:
        assert severi._nodeless(rec.index.beta) == rec.degree
        assert severi.severi_degree(rec.index) == rec.degree


def test_nodeless_query_leaves_the_memo_empty():
    memo = MemoStore()
    for index in (idx(1, 0, (), (1,)), idx(1, 0, (1,), ()), idx(10, 0, (), (10,)),
                  idx(9, 0, (1, 1), (0, 1, 0, 1)), idx(400, 0, (), (0, 200))):
        assert severi.severi_degree(index, memo) == nodeless_by_factorials(index.beta)
    assert (len(memo), memo.hits) == (0, 0)


def test_table_and_genfunc_never_read_the_closed_form():
    # the delta = 0 rows of severi_table (and the generating polynomial built
    # from them) must come from the recursion, to stay a check on _nodeless
    pointwise = {"_nodeless", "_degree", "severi_degree"}
    table = ast.parse(textwrap.dedent(inspect.getsource(severi.severi_table)))
    module = ast.parse(inspect.getsource(genfunc))
    for tree, banned in ((table, pointwise), (module, {"_nodeless"})):
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & banned


def test_one_degeneration_loop_per_engine():
    # the degeneration table is read by the two engines alone, so the
    # recursion's terms are enumerated once per engine in the whole package
    # (a def's own name is not an ast.Name, so _degenerations' def is no reader)
    readers = set()
    for path in sorted(pathlib.Path(severi.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "_degenerations"
                        or isinstance(node, ast.Attribute)
                        and node.attr == "_degenerations"):
                    readers.add((path.stem, getattr(top, "name", None)))
    assert readers == {("severi", "_degree"), ("severi", "severi_table")}


@pytest.mark.parametrize("d,expected", [
    (9, 63057183029710500),
    (11, 721432313134012578370940),
    (12, 4023459098946292244977486560),
])
def test_genus_zero_degrees_are_pinned(d, expected):
    # genus 0 with (), (d), as for d = 10 above
    assert severi.severi_degree(idx(d, comb(d - 1, 2), (), (d,))) == expected


def test_memo_write_once():
    memo = MemoStore()
    index = idx(3, 1, (1,), (2,))
    severi.severi_degree(index, memo)
    assert memo.put(index, 12) == 12  # benign identical rewrite
    with pytest.raises(RuntimeError):
        memo.put(index, 13)


def test_memo_counters_move():
    memo = MemoStore()
    index = idx(3, 1, (1,), (2,))  # (), (3) takes the constants and is never stored
    severi.severi_degree(index, memo)
    entries = len(memo)
    assert entries > 0
    severi.severi_degree(index, memo)
    assert memo.hits > 0
    assert len(memo) == entries
    assert MemoStore.__slots__ == ("hits",)  # len(memo) is the miss count


# ----------------------------------------------------------------- table
def test_severi_table_contents():
    table = table_rows(severi.severi_table(3, 1))
    keys = [rec.index for rec in table]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    # d = 1: delta = 0 only; d = 2: 5 pairs x 2; d = 3: 10 pairs x 2
    assert len(table) == 2 + 10 + 20
    by_index = {rec.index: rec for rec in table}
    hero = by_index[idx(3, 1, (), (3,))]
    assert hero.degree == 12 and hero.dim == 8 and hero.genus == 0
    for rec in table:
        assert rec.degree >= 0
        assert rec.dim == severi.dimension(rec.index)
        assert rec.genus == severi.genus(rec.index)


def test_severi_table_returns_the_layers():
    # per d, (alpha, beta, degrees by delta, dim, genus at delta = 0), shapes sorted
    table = severi.severi_table(3, 1)
    assert type(table) is list and [len(layer) for layer in table] == [2, 5, 10]
    assert table[0] == [((), (1,), [1], 2, 0), ((1,), (), [1], 1, 0)]
    assert ((), (3,), [1, 12], 9, 1) in table[2]
    assert [shape[:2] for shape in table[2]] == sorted(shape[:2] for shape in table[2])


def test_severi_table_delta_cap():
    # delta_max exceeding d(d-1)/2 is capped per degree
    table = table_rows(severi.severi_table(2, 99))
    assert {rec.index.delta for rec in table if rec.index.d == 1} == {0}
    assert {rec.index.delta for rec in table if rec.index.d == 2} == {0, 1}


def test_severi_table_rejects_bad_bounds():
    # plain ValueError, as for the other engines' bounds: no index is at fault
    for bounds, message in (((0, 1), "d_max must be >= 1, got 0"),
                            ((2, -1), "delta_max must be >= 0, got -1")):
        with pytest.raises(ValueError, match=message) as info:
            severi.severi_table(*bounds)
        assert type(info.value) is ValueError


def test_severi_table_has_no_memo_parameter():
    with pytest.raises(TypeError):
        severi.severi_table(3, 1, memo=MemoStore())


def table_indices(d_max, delta_max):
    return [index for d in range(1, d_max + 1)
            for index in indices(d, delta_max)]


def test_severi_table_equals_the_pointwise_engine_through_degree_8():
    # the layered table engine against severi_degree, one shared memo
    memo = MemoStore()
    table = table_rows(severi.severi_table(8, 100))
    assert len(table) == 9413
    assert [rec.index for rec in table] == table_indices(8, 100)
    for rec in table:
        assert rec.degree == severi.severi_degree(rec.index, memo)
        assert rec.dim == severi.dimension(rec.index)
        assert rec.genus == severi.genus(rec.index)


@pytest.mark.parametrize("d_max,delta_max", [(11, 2), (13, 0), (9, 5)])
def test_truncated_severi_table_equals_the_pointwise_engine(d_max, delta_max):
    memo = MemoStore()
    table = table_rows(severi.severi_table(d_max, delta_max))
    assert [rec.index for rec in table] == table_indices(d_max, delta_max)
    for rec in table:
        assert rec == DegreeRecord(
            rec.index, severi.severi_degree(rec.index, memo),
            severi.dimension(rec.index), severi.genus(rec.index),
        )
