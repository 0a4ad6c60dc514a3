"""Classical cross-checks: Chow ring, Euler numbers, and the two case studies."""

import random
from fractions import Fraction

import pytest

from curvecount import classical, severi
from curvecount.classical import ArithmeticMismatch
from curvecount.series import BivariateSeries
from curvecount.severi import SeveriIndex


# ------------------------------------------------------------ the Chow ring
def chow(coeffs):
    """A class in Q[h1, h2]/(h1^2, h2^3), keyed by exponent pair (i, j)."""
    return BivariateSeries(coeffs, bound1=1, bound2=2)


ONE, H1, H2 = chow({(0, 0): 1}), chow({(1, 0): 1}), chow({(0, 1): 1})


def random_class(rng):
    coeffs = {
        (i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for i in range(2)
        for j in range(3)
    }
    return chow(coeffs)


def test_chow_basis_products():
    assert H1 * H1 == chow({})               # h1^2 = 0
    assert H2 * H2 * H2 == chow({})          # h2^3 = 0
    assert ONE * H1 == H1
    assert (H1 * H2 * H2).coeff(1, 2) == 2   # the point class, 2 (h1 h2^2/2!)
    assert (H2 * H2).coeff(1, 2) == 0        # not top degree in h1
    assert H1.coeff(1, 2) == 0


def test_chow_monomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        chow({(2, 0): 1})
    with pytest.raises(ValueError):
        chow({(0, 3): 1})


def test_chow_ring_laws():
    rng = random.Random(43)
    for _ in range(40):
        x, y, z = (random_class(rng) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


# ------------------------------------------------------ one-node cross-checks
@pytest.mark.parametrize("d", range(2, 13))
def test_one_node_three_ways(d):
    expected = 3 * (d - 1) ** 2
    assert classical.chow_one_node(d) == expected
    assert classical.euler_one_node(d) == expected
    assert severi.severi_degree(SeveriIndex(d, 1, (), (d,))) == expected


def test_chow_one_node_expansion():
    # (h1 + (d-1) h2)^3 = 3 (d-1)^2 h1 h2^2 once h1^2 and h2^3 die, and
    # h1 h2^2 = 2 (h1 h2^2/(1! 2!)) in the divided basis
    d = 5
    h = H1 + chow({(0, 1): d - 1})
    assert h * h * h == chow({(1, 2): 96})


# ------------------------------------------------------------- case studies
def test_cross_ratio_count():
    report = classical.cross_ratio_cubics()
    assert report.count == 12
    assert report.method == "cross-ratio"
    q = report.quantities
    assert q["base-change-order"] == 9
    assert q["reducible-fibers"] == 21
    assert q["separating-reducibles"] == 10
    assert q["zero-points-on-B"] == 20
    assert q["zero-divisor-degree"] == 360
    assert q["pole-constant"] == 252
    # the divisor balance: zero degree = order * N + pole constant
    assert q["zero-divisor-degree"] == 9 * report.count + q["pole-constant"]


def test_fibration_count():
    report = classical.fibration_cubics()
    assert report.count == 12
    assert report.method == "rational-fibration"
    q = report.quantities
    assert q["separating-components"] == 20
    assert q["section-self-intersection"] == -10
    assert q["component-degree-square-sum"] == 78
    assert -9 * q["section-self-intersection"] - q["component-degree-square-sum"] == 12
    assert any("sign" in note for note in report.notes)


def test_case_studies_agree_with_recursion():
    twelve = severi.severi_degree(SeveriIndex(3, 1, (), (3,)))
    assert classical.cross_ratio_cubics().count == twelve
    assert classical.fibration_cubics().count == twelve


def test_tampered_constant_is_caught(monkeypatch):
    monkeypatch.setattr(classical, "SEPARATING_SPLIT", (4, 5))
    with pytest.raises(ArithmeticMismatch):
        classical.fibration_cubics()
    with pytest.raises(ArithmeticMismatch):
        classical.cross_ratio_cubics()


def test_tampered_node_factor_is_caught(monkeypatch):
    monkeypatch.setattr(classical, "NODE_FACTOR", 3)
    with pytest.raises(ArithmeticMismatch):
        classical.cross_ratio_cubics()
