"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; each criterion is also an ordinary test, so a plain
pytest run enforces all of them.
"""

import json
import random
import time
from contextlib import contextmanager

from curvecount import cache, classical, cli, genfunc, kontsevich, seqs, series, severi
from curvecount.severi import MemoStore, SeveriIndex

from helpers import (all_indices, corrupted, naive_rational_count, oracle_degree,
                     oracle_second_sum, seq_sub)


def _announce(number: int, label: str, verdict: str, capsys=None) -> None:
    line = "criterion %d (%s): %s" % (number, label, verdict)
    if capsys is None:
        print(line)
    else:
        with capsys.disabled():
            print(line)


@contextmanager
def criterion(number: int, label: str, capsys=None):
    try:
        yield
    except BaseException:
        _announce(number, label, "FAIL", capsys)
        raise
    _announce(number, label, "PASS", capsys)


def timed():
    return time.perf_counter()


# --------------------------------------------------------------------------
def test_criterion_1_twelve_rational_cubics(capsys):
    with criterion(1, "N(3,1;(),(3)) = 12 in under 0.1s", capsys):
        start = timed()
        value = severi.severi_degree(SeveriIndex(3, 1, (), (3,)))
        elapsed = timed() - start
        assert value == 12
        assert elapsed < 0.1, "took %.3fs" % elapsed


def test_criterion_2_assigned_contacts_and_decomposition(capsys):
    with criterion(2, "N(3,1;(3),()) = 10 and both recursion decompositions", capsys):
        memo = MemoStore()
        n = lambda *a: severi.severi_degree(SeveriIndex(*a), memo)
        assert n(3, 1, (3,), ()) == 10

        # 10 = 1*3 + 2*2 + 3*1: beta = () has no first-sum term, and the
        # degeneration terms come from the oracle, each degree from the engine
        parts = sorted(
            coeff * n(*child) for coeff, child in oracle_second_sum(3, 1, (3,), ())
        )
        assert parts == [3, 3, 4] and sum(parts) == 10

        # 12 = 2*1 + 3*1 + 2*2 + 3, every factor computed by the engine
        assert n(3, 1, (), (3,)) == (
            2 * n(2, 0, (), (2,))
            + 3 * n(2, 0, (1,), (1,))
            + 2 * n(2, 0, (), (0, 1))
            + n(2, 1, (), (2,))
        )
        assert (n(2, 0, (), (2,)), n(2, 0, (1,), (1,)),
                n(2, 0, (), (0, 1)), n(2, 1, (), (2,))) == (1, 1, 2, 3)


def test_criterion_3_one_node_three_routes(capsys):
    with criterion(3, "recursion = Chow = Euler = 3(d-1)^2 for d <= 12 in under 5s",
                   capsys):
        start = timed()
        memo = MemoStore()
        for d in range(2, 13):
            expected = 3 * (d - 1) ** 2
            assert severi.severi_degree(SeveriIndex(d, 1, (), (d,)), memo) == expected
            assert classical.chow_one_node(d) == expected
            assert classical.euler_one_node(d) == expected
        elapsed = timed() - start
        assert elapsed < 5.0, "took %.3fs" % elapsed


def test_criterion_4_rational_counts(capsys):
    with criterion(4, "Kontsevich table through d = 6 with independent checks",
                   capsys):
        start = timed()
        rows = kontsevich.rational_table(6)
        elapsed = timed() - start
        assert rows == [
            (1, 1), (2, 1), (3, 12), (4, 620), (5, 87304), (6, 26312976)
        ]
        assert elapsed < 0.1, "took %.3fs" % elapsed
        # N(3) agrees with the nodal-cubic Severi degree
        assert rows[2][1] == severi.severi_degree(SeveriIndex(3, 1, (), (3,)))
        # N(4) agrees with a non-memoized reimplementation
        assert rows[3][1] == naive_rational_count(4) == 620


def test_criterion_5_wdvv(capsys, monkeypatch):
    with criterion(5, "WDVV residual zero at d_max=6, nonzero under any corruption",
                   capsys):
        start = timed()
        assert series.wdvv_residual(6, 8) == []
        true_counts = kontsevich.rational_table(6)
        for d in range(2, 7):
            corrupted = [(n, count + (n == d)) for n, count in true_counts]
            monkeypatch.setattr(kontsevich, "rational_table", lambda top: corrupted)
            residual = series.wdvv_residual(6, 8)
            assert residual, "corruption at d=%d went unnoticed" % d
            (a, b), value = residual[0]
            assert (a, b) == (0, 3 * d - 4) and value != 0
        elapsed = timed() - start
        assert elapsed < 30.0, "took %.3fs" % elapsed


def test_criterion_6_getzler(capsys, monkeypatch):
    with criterion(6, "Getzler residual empty at D=4, nonzero under any corruption",
                   capsys):
        start = timed()
        assert genfunc.getzler_residual(4) == []
        table = severi.severi_table(4, 6)

        for d in range(1, 4):
            for index in all_indices(d):
                bad_table = corrupted(table, index)
                monkeypatch.setattr(severi, "severi_table", lambda d_max, delta_max: bad_table)
                bad = genfunc.getzler_residual(4)
                assert bad, "corruption at %r went unnoticed" % (index,)
        elapsed = timed() - start
        assert elapsed < 60.0, "took %.3fs" % elapsed


def test_criterion_7_case_studies(capsys):
    with criterion(7, "both classical cubic case studies give 12", capsys):
        cross = classical.cross_ratio_cubics()
        fibration = classical.fibration_cubics()
        assert cross.count == fibration.count == 12
        assert cross.quantities["zero-divisor-degree"] == 360
        assert fibration.quantities["section-self-intersection"] == -10
        assert fibration.quantities["component-degree-square-sum"] == 78


def test_criterion_8_engine_properties(tmp_path, capsys):
    with criterion(8, "property checks: combinatorics, memo, cache, exit codes",
                   capsys):
        # partition counts p(0)..p(10)
        expected_p = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(seqs.partitions(w)) for w in range(11)] == expected_p

        # algebra of entrywise binomials and weighted powers
        rng = random.Random(97)
        for _ in range(60):
            a = seqs.canon(tuple(rng.randint(0, 3) for _ in range(4)))
            b = tuple(rng.randint(0, e) for e in a)
            assert seqs.binomial(a, b) >= 1
            assert seqs.binomial(a, b) == seqs.binomial(a, seq_sub(a, b))
            c = seqs.canon(tuple(rng.randint(0, 2) for _ in range(3)))
            assert (seqs.nat_power(seqs.add(b, c))
                    == seqs.nat_power(seqs.canon(b)) * seqs.nat_power(c))

        # the two dimension formulas agree on every valid index with d <= 5
        pool = [SeveriIndex(*raw) for d in range(1, 6) for raw in all_indices(d)]
        for index in pool:
            r = severi.dimension(index)  # raises if the two forms disagree
            assert r >= index.d + sum(index.beta) >= 1

        # memo transparency on 100 random indices: warm == cold == oracle
        shared = MemoStore()
        oracle_memo = {}
        for index in random.Random(101).sample(pool, 100):
            warm = severi.severi_degree(index, shared)
            cold = severi.severi_degree(index, MemoStore())
            assert warm == cold
            if index.d <= 4:
                assert warm == oracle_degree(
                    index.d, index.delta, index.alpha, index.beta, oracle_memo
                )

        # cache round trip and the documented exit codes
        path = str(tmp_path / "cache.jsonl")
        assert cli.main(
            ["table", "--dmax", "3", "--deltamax", "1", "--cache", path]
        ) == 0
        assert cache.check_cache(path, severi.severi_table(3, 1)) == (None, 32, 32, [])
        assert cli.main(
            ["table", "--dmax", "3", "--deltamax", "1", "--cache", path]
        ) == 0  # idempotent re-run verifies every record

        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[-1])
        record["degree"] = str(int(record["degree"]) + 1)
        lines[-1] = json.dumps(record, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert cli.main(
            ["table", "--dmax", "3", "--deltamax", "1", "--cache", path]
        ) == 1  # tampered record is a verification failure

        assert cli.main(
            ["severi", "--d", "3", "--delta", "0", "--alpha", "1", "--beta", "1"]
        ) == 2  # weight mismatch is a usage error
        assert cli.main(["verify", "getzler", "--D", "11"]) == 2
        capsys.readouterr()  # swallow the CLI output
