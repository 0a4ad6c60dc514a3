"""Generating function of Severi degrees, one z-series per shape, and the
Getzler identity."""

import ast
import functools
import pathlib

import pytest

from curvecount import cli, genfunc, seqs, severi
from curvecount.severi import MemoStore, SeveriIndex

from helpers import (all_indices, corrupted, oracle_first_sum, oracle_second_sum,
                     table_rows)


def true_degrees():
    memo = MemoStore()
    return lambda index: severi.severi_degree(index, memo)


def table(D):
    return severi.severi_table(D, D * (D - 1) // 2)


def series(D, layers=None):
    # G truncated at curve degree D: one z-series {m: n} per shape (alpha, beta)
    return genfunc._series(table(D) if layers is None else layers)


def image(g, targets):
    # one operator's image of the per-shape series (_subtract takes it away)
    negated = {}
    genfunc._subtract(negated, g, targets)
    return {shape: {m: -n for m, n in terms.items()} for shape, terms in negated.items()}


# ------------------------------------------------------------ the polynomial
def test_generating_function_smallest_truncation():
    # d = 1 contributes 1 * u1 z / 1! and 1 * v1 z^2 / 2!
    assert series(1) == {((1,), ()): {1: 1}, ((), (1,)): {2: 1}}


def test_generating_function_hero_term():
    g = series(3)
    # 12 rational cubics: coefficient 12 on v1^3 z^8/8!
    assert g[(), (3,)][8] == 12
    # zero degrees contribute no term
    assert 1 not in g[(0, 1), ()]
    assert all(type(n) is int and n for terms in g.values() for n in terms.values())


def test_generating_function_z_exponent_bound():
    for D in (1, 2, 3):
        assert all(m <= D * (D + 3) // 2 for terms in series(D).values() for m in terms)


def test_generating_function_rejects_bad_bound():
    # no truncation below degree 1 has a table, and the check wants D >= 2
    for D in (0, -1):
        with pytest.raises(ValueError):
            table(D)
        with pytest.raises(ValueError):
            genfunc.getzler_residual(D)


def test_every_term_is_a_valid_index():
    degrees = true_degrees()
    for (alpha, beta), terms in series(3).items():
        d = seqs.weight(alpha) + seqs.weight(beta)
        assert 1 <= d <= 3
        for m, n in terms.items():
            # reconstruct delta from the z-exponent and check the coefficient
            base_dim = severi.dimension(SeveriIndex(d, 0, alpha, beta))
            delta = base_dim - m
            index = SeveriIndex(d, delta, alpha, beta)
            assert severi.dimension(index) == m
            assert n == degrees(index)


def test_transfer_operator_is_term_exact():
    # the coefficient of u^a/a! v^b z^(r-1)/(r-1)! in the transfer image
    # is the first sum, over the oracle's terms, at the matching index
    D = 3
    moved = image(series(D), genfunc._transfers)
    degrees = true_degrees()
    for d in range(1, D + 1):
        for index in (SeveriIndex(*raw) for raw in all_indices(d)):
            r = severi.dimension(index)
            expected = sum(
                j * degrees(SeveriIndex(*child))
                for j, child in oracle_first_sum(*index)
            )
            assert moved.get((index.alpha, index.beta), {}).get(r - 1, 0) == expected


def test_degeneration_operator_is_term_exact():
    # the coefficient of u^a/a! v^b z^(r-1)/(r-1)! in S is the degeneration
    # sum, over the oracle's terms, evaluated at the matching index
    layers = table(4)
    below = {shape: terms for shape, terms in series(4, layers).items()
             if seqs.weight(shape[0]) + seqs.weight(shape[1]) < 4}
    fed = image(below, genfunc._feeds)
    degrees = true_degrees()
    checked = 0
    rows = table_rows(layers)
    for rec in rows:
        if rec.index.d >= 2:
            expected = sum(coeff * degrees(SeveriIndex(*child))
                           for coeff, child in oracle_second_sum(*rec.index))
            shape = (rec.index.alpha, rec.index.beta)
            assert fed.get(shape, {}).get(rec.dim - 1, 0) == expected
            checked += 1
    assert checked == len(rows) - 2  # all but the two lines of degree 1


# ------------------------------------------------------------ the identity
@pytest.mark.parametrize("D", range(2, 10))
def test_identity_holds(D):
    assert genfunc.getzler_residual(D) == []


def test_identity_rejects_bad_bound():
    with pytest.raises(ValueError):
        genfunc.getzler_residual(1)


# N(3, 1; (), (3)) + 1 at D = 4: its own dG/dz monomial (z-exponent r - 1 = 7)
# and the eleven weight-4 monomials at z^8 whose degeneration sums it feeds
CUBIC_CORRUPTION_FLAGS = [
    ((), (3,), 7),
    ((0, 0, 0, 1), (), 8),
    ((0, 0, 1), (1,), 8),
    ((0, 1), (2,), 8),
    ((0, 2), (), 8),
    ((1,), (3,), 8),
    ((1, 0, 1), (), 8),
    ((1, 1), (1,), 8),
    ((2,), (2,), 8),
    ((2, 1), (), 8),
    ((3,), (1,), 8),
    ((4,), (), 8),
]


def test_single_corruption_is_named():
    # corrupt the 12 rational cubics to 13
    target = SeveriIndex(3, 1, (), (3,))
    bad = genfunc.getzler_residual(4, corrupted(table(4), target))
    assert bad == CUBIC_CORRUPTION_FLAGS


def test_corrupting_any_small_degree_is_detected():
    # every row of the D = 4 table, d = 4 included, raised and lowered by one
    layers = table(4)
    rows = table_rows(layers)
    assert len(rows) == 192
    assert max(rec.index.d for rec in rows) == 4
    for rec in rows:
        for shift in (1, -1):
            bad = genfunc.getzler_residual(4, corrupted(layers, rec.index, shift))
            assert bad, "corruption %+d at %r went unnoticed" % (shift, rec.index)


def test_corrupting_any_top_layer_degree_is_detected():
    # every d = 5 row of the D = 5 table raised by one, from delta = 0 to 10
    layers = table(5)
    top = [rec for rec in table_rows(layers) if rec.index.d == 5]
    assert len(top) == 396
    for rec in top:
        assert genfunc.getzler_residual(5, corrupted(layers, rec.index)), \
            "corruption at %r went unnoticed" % (rec.index,)


def test_corrupting_a_degree_six_row_is_detected_at_seven():
    target = SeveriIndex(6, 10, (), (6,))
    layers = table(7)
    assert [rec.degree for rec in table_rows(layers) if rec.index == target] == [40047888]
    bad = genfunc.getzler_residual(7, corrupted(layers, target))
    assert ((), (6,), 16) in bad


def test_corrupting_a_zero_degree_is_detected():
    target = SeveriIndex(2, 1, (), (0, 1))  # degree 0
    assert severi.severi_degree(target) == 0
    assert genfunc.getzler_residual(3, corrupted(table(3), target))


# ------------------------------------------------------------ independence
def test_genfunc_reads_only_the_table_from_severi():
    # the identity is checked with the table's numbers, none of the engine's sums
    tree = ast.parse(pathlib.Path(genfunc.__file__).read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "severi"}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] == "severi" for alias in node.names}
    assert used | imported == {"severi_table"}


def test_identity_needs_no_engine_sums(monkeypatch):
    def refuse(index, *memo):
        raise AssertionError("getzler_residual asked the engine for %r" % (index,))

    monkeypatch.setattr(severi, "severi_degree", refuse)
    monkeypatch.setattr(severi, "_degree", refuse)
    assert genfunc.getzler_residual(5) == []


def test_a_wrong_degeneration_coefficient_is_caught(monkeypatch, capsys):
    # the mutant doubles every coefficient whose beta + c has an entry of order >= 3
    exact = severi._degenerations

    @functools.lru_cache(maxsize=None)
    def doubled(beta, budget, min_size):
        return tuple((2 * coeff if len(b_prime) > 2 else coeff, c_size, b_prime)
                     for coeff, c_size, b_prime in exact(beta, budget, min_size))

    monkeypatch.setattr(severi, "_degenerations", doubled)
    wrong = SeveriIndex(4, 3, (), (4,))
    assert [rec.degree for rec in table_rows(table(4)) if rec.index == wrong] == [738]  # not 675
    assert genfunc.getzler_residual(4)
    assert cli.main(["verify", "all"]) == 1
    assert "FAIL" in capsys.readouterr().out
