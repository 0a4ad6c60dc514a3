"""Truncated series algebra and the WDVV residual."""

import random
from fractions import Fraction
from math import factorial

import pytest

from curvecount import kontsevich, series
from curvecount.series import BivariateSeries

from helpers import oracle_wdvv_coeff, phi_coeff


def random_series(rng, bound1=5, bound2=5, terms=6):
    coeffs = {}
    for _ in range(terms):
        a = rng.randint(0, bound1)
        b = rng.randint(0, bound2)
        coeffs[(a, b)] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return BivariateSeries(coeffs, bound1=bound1, bound2=bound2)


# --------------------------------------------------------------- algebra
def test_constructor_drops_zeros_and_checks_bounds():
    s = BivariateSeries({(0, 0): 0, (1, 2): 3}, bound1=2, bound2=2)
    assert (0, 0) not in s.coeffs
    assert s.coeff(1, 2) == 3
    with pytest.raises(ValueError):
        BivariateSeries({(3, 0): 1}, bound1=2, bound2=2)


def test_mul_truncates_explicitly():
    cube = BivariateSeries({(0, 3): 1}, bound1=0, bound2=5)
    product = cube * cube
    assert product.coeffs == {}  # x2^6 exceeds the bound
    assert product.bound2 == 5


def test_bounds_are_min_of_operands():
    s = BivariateSeries({(1, 1): 1}, bound1=4, bound2=6)
    t = BivariateSeries({(1, 1): 1}, bound1=5, bound2=3)
    assert (s + t).bound1 == 4 and (s + t).bound2 == 3
    assert (s * t).bound1 == 4 and (s * t).bound2 == 3
    assert (s - t).coeffs == {}


def test_partial_lowers_bound():
    # in divided powers a partial shifts the index and multiplies by nothing
    s = BivariateSeries({(2, 1): 5}, bound1=3, bound2=2)
    d1 = s.partial(1)
    assert d1.coeffs == {(1, 1): 5}
    assert d1.bound1 == 2 and d1.bound2 == 2
    d2 = s.partial(2)
    assert d2.coeffs == {(2, 0): 5}
    assert d2.bound2 == 1
    with pytest.raises(ValueError):
        s.partial(3)


def test_partials_commute():
    rng = random.Random(31)
    for _ in range(40):
        s = random_series(rng)
        ab = s.partial(1).partial(2)
        ba = s.partial(2).partial(1)
        assert ab == ba


def test_leibniz_rule_inside_bounds():
    # d(fg) = df g + f dg on every coefficient both sides can see
    rng = random.Random(37)
    for _ in range(40):
        f = random_series(rng, bound1=4, bound2=4, terms=4)
        g = random_series(rng, bound1=4, bound2=4, terms=4)
        for var in (1, 2):
            left = (f * g).partial(var)
            right = f.partial(var) * g + f * g.partial(var)
            b1 = min(left.bound1, right.bound1)
            b2 = min(left.bound2, right.bound2)
            for a in range(b1 + 1):
                for b in range(b2 + 1):
                    assert left.coeff(a, b) == right.coeff(a, b)


def test_mul_commutes_and_distributes():
    rng = random.Random(41)
    for _ in range(30):
        f = random_series(rng, terms=4)
        g = random_series(rng, terms=4)
        h = random_series(rng, terms=4)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


# ------------------------------------------------------------- potential
def test_potential_smallest_truncation():
    # d_max = 1, no x1 terms: just x2^2/2!, coefficient N(1) = 1
    f = series.quantum_potential(1, 0)
    assert f.coeffs == {(0, 2): 1}
    assert f.bound1 == 0 and f.bound2 == 2


def test_potential_pinned_coefficients():
    f = series.quantum_potential(3, 4)
    # the coefficient of x1^a/a! x2^(3d-1)/(3d-1)! is N(d) * d^a
    assert f.coeff(1, 2) == 1  # N(1) * 1^1
    assert f.coeff(0, 8) == 12  # N(3) * 3^0
    assert f.coeff(3, 5) == 8  # N(2) * 2^3


@pytest.mark.parametrize("d_max,x1_bound", [(2, 3), (3, 5), (4, 4)])
def test_potential_matches_closed_form(d_max, x1_bound):
    counts = dict(kontsevich.rational_table(d_max))
    f = series.quantum_potential(d_max, x1_bound)
    for a in range(x1_bound + 1):
        for b in range(3 * d_max):
            assert f.coeff(a, b) == phi_coeff(a, b, counts) * factorial(a) * factorial(b)


def test_spec_validation():
    with pytest.raises(ValueError, match="d_max must be >= 1"):
        series.quantum_potential(0, 3)
    with pytest.raises(ValueError, match="x1_bound must be >= 0"):
        series.quantum_potential(2, -1)


# ---------------------------------------------------------------- wdvv
def test_window_shape():
    window = series.wdvv_window(4, 6)
    assert set(window) == {(a, b) for b in (2, 5, 8) for a in range(4)}
    assert series.wdvv_window(1, 8) == []


def test_residual_requires_three_derivatives():
    with pytest.raises(ValueError):
        series.wdvv_residual(3, 2)


@pytest.mark.parametrize("d_max", range(1, 7))
@pytest.mark.parametrize("x1_bound", range(3, 9))
def test_residual_empty_with_true_counts(d_max, x1_bound):
    assert series.wdvv_residual(d_max, x1_bound) == []


def test_residual_matches_direct_convolution():
    # engine residual coefficients equal the oracle's on the window,
    # including for corrupted inputs
    counts = dict(kontsevich.rational_table(4))
    counts[3] = 13
    got = dict(series.wdvv_residual(4, 6, counts))
    for a, b in series.wdvv_window(4, 6):
        expected = oracle_wdvv_coeff(a, b, counts)
        assert got.get((a, b), Fraction(0)) == expected


def test_single_corruption_always_detected():
    true_counts = dict(kontsevich.rational_table(6))
    for d in range(2, 7):
        bad = dict(true_counts)
        bad[d] += 1
        residual = series.wdvv_residual(6, 8, bad)
        assert residual, "corruption at d=%d went unnoticed" % d
        # the first failure appears in the window slice b = 3d - 4
        assert residual[0][0][1] == 3 * d - 4


def test_known_corruption_value():
    # N(3) -> 13 leaves residual 1/120 at x1^0 x2^5 (oracle-derived)
    counts = dict(kontsevich.rational_table(3))
    counts[3] = 13
    residual = dict(series.wdvv_residual(3, 3, counts))
    assert residual[(0, 5)] == Fraction(1, 120)
