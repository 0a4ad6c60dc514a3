"""The WDVV residual in closed form per degree, against the plain convolution."""

import random
from fractions import Fraction

import pytest

from curvecount import kontsevich, series

from helpers import oracle_wdvv_coeff

TRUE_COUNTS = dict(kontsevich.rational_table(5))


def count_maps():
    """Counts for d <= 5: the true ones, each single +-1 corruption and a few
    seeded random maps."""
    yield pytest.param(TRUE_COUNTS, id="true")
    for d in TRUE_COUNTS:
        for delta in (1, -1):
            yield pytest.param({**TRUE_COUNTS, d: TRUE_COUNTS[d] + delta},
                               id="N%d%+d" % (d, delta))
    for seed in range(4):
        rng = random.Random(seed)
        yield pytest.param({d: rng.randint(-99, 99) for d in TRUE_COUNTS},
                           id="random%d" % seed)


def residual_of(monkeypatch, d_max, x1_bound, counts):
    """wdvv_residual with kontsevich.rational_table patched to the rows of counts."""
    monkeypatch.setattr(kontsevich, "rational_table", lambda top: sorted(counts.items()))
    return series.wdvv_residual(d_max, x1_bound)


def test_spec_validation():
    with pytest.raises(ValueError, match="d_max must be >= 1"):
        series.wdvv_residual(0, 3)


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


@pytest.mark.parametrize("counts", count_maps())
def test_residual_matches_direct_convolution(monkeypatch, counts):
    # d^a r(d) equals the oracle's convolution, which sums over a1 and b1
    # with no collapse of the x1 half, at every window coefficient
    got = dict(residual_of(monkeypatch, 5, 7, counts))
    for a, b in series.wdvv_window(5, 7):
        assert got.get((a, b), Fraction(0)) == oracle_wdvv_coeff(a, b, counts)


def test_single_corruption_always_detected(monkeypatch):
    true_counts = dict(kontsevich.rational_table(6))
    for d in range(2, 7):
        bad = dict(true_counts)
        bad[d] += 1
        residual = residual_of(monkeypatch, 6, 8, bad)
        assert residual, "corruption at d=%d went unnoticed" % d
        # the first failure appears in the window slice b = 3d - 4
        assert residual[0][0][1] == 3 * d - 4


def test_known_corruption_value(monkeypatch):
    # N(3) -> 13 leaves residual 1/120 at x1^0 x2^5 (oracle-derived)
    counts = dict(kontsevich.rational_table(3))
    counts[3] = 13
    residual = dict(residual_of(monkeypatch, 3, 3, counts))
    assert residual[(0, 5)] == Fraction(1, 120)
