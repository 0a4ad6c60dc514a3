"""Classical cross-checks: Chow ring, Euler numbers, and the two case studies."""

import pytest

from curvecount import classical, severi
from curvecount.classical import ArithmeticMismatch
from curvecount.severi import SeveriIndex


# ------------------------------------------------------ one-node cross-checks
@pytest.mark.parametrize("d", range(2, 13))
def test_one_node_three_ways(d):
    expected = 3 * (d - 1) ** 2
    assert classical.chow_one_node(d) == expected
    assert classical.euler_one_node(d) == expected
    assert severi.severi_degree(SeveriIndex(d, 1, (), (d,))) == expected


def test_chow_one_node_expansion():
    # (h1 + (d-1) h2)^3 multiplied out term by term in Z[h1, h2]/(h1^2, h2^3),
    # keyed (i, j) for h1^i h2^j: only the point class h1 h2^2 survives
    for d in range(1, 30):
        h = {(1, 0): 1, (0, 1): d - 1}
        cube = {(0, 0): 1}
        for _ in range(3):
            product = {}
            for (i, j), u in cube.items():
                for (k, l), v in h.items():
                    if i + k < 2 and j + l < 3:
                        key = (i + k, j + l)
                        product[key] = product.get(key, 0) + u * v
            cube = product
        assert not any(v for key, v in cube.items() if key != (1, 2))
        assert classical.chow_one_node(d) == cube[(1, 2)]
    assert classical.chow_one_node(5) == 48


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
    # each constant off by one, or a wrong split, in every study that reads it
    both = (classical.cross_ratio_cubics, classical.fibration_cubics)
    readers = {"BASE_POINTS": both, "CUBIC_LINE_MEETS": both[:1],
               "CONIC_LINE_MEETS": both, "NODE_FACTOR": both}
    tampered = [(name, getattr(classical, name) + step, studies)
                for name, studies in readers.items() for step in (-1, 1)]
    tampered += [("SEPARATING_SPLIT", split, both)
                 for split in [(4, 5), (4, 6), (5, 6), (6, 4)]]
    for name, value, studies in tampered:
        for study in studies:
            with monkeypatch.context() as patch:
                patch.setattr(classical, name, value)
                with pytest.raises(ArithmeticMismatch):
                    study()


def test_tampered_node_factor_is_caught(monkeypatch):
    monkeypatch.setattr(classical, "NODE_FACTOR", 3)
    with pytest.raises(ArithmeticMismatch):
        classical.cross_ratio_cubics()
