"""Command-line contract: formats, exit codes, determinism, fault injection."""

import ast
import hashlib
import json
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import pytest

from curvecount import __version__, cache, cli, classical, genfunc, kontsevich, severi

from helpers import corrupted
from test_readme import EXAMPLES as README_EXAMPLES


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_cli(*argv, patch="", **options):
    """`curvecount argv` run in a fresh interpreter, which runs patch first:
    the suite's own process has imported every module already.  options go
    to subprocess.run."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", patch + "\nfrom curvecount.cli import entry\nentry()",
         *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        **options,
    )


# ----------------------------------------------------------------- severi
def test_severi_text(capsys):
    code, out, err = run(
        ["severi", "--d", "3", "--delta", "1", "--beta", "3"], capsys
    )
    assert code == 0
    assert err == ""
    assert out == (
        "index d=3 delta=1 alpha=() beta=(3)\n"
        "degree 12\n"
        "dim 8\n"
        "genus 0\n"
    )


def test_severi_one_node_at_degree_120(capsys):
    # |c| >= 118: the increments are pruned where they are made; alpha = (1)
    # keeps the query on the recursion, 120 layers deep
    code, out, _ = run(["severi", "--d", "120", "--delta", "1", "--alpha", "1",
                        "--beta", "119"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "degree %d" % (3 * 119 ** 2)


def test_severi_three_nodes_at_degree_100000(capsys):
    # Goettsche's route; Kleiman-Piene: 2 N(d, 3) = 9d^6 - 54d^5 + 9d^4
    # + 423d^3 - 458d^2 - 829d + 1050
    d = 100000
    twice = (9 * d**6 - 54 * d**5 + 9 * d**4 + 423 * d**3 - 458 * d**2
             - 829 * d + 1050)
    code, out, _ = run(["severi", "--d", str(d), "--delta", "3", "--beta", str(d)],
                       capsys)
    assert code == 0
    assert out.splitlines()[1] == "degree %d" % (twice // 2)


def test_severi_nodeless_at_degree_66000(capsys):
    # delta = 0 is the closed form: no recursion through 66,000 layers
    code, out, _ = run(["severi", "--d", "66000", "--delta", "0", "--beta", "66000"],
                       capsys)
    assert code == 0
    assert out.splitlines()[1] == "degree 1"


def test_severi_csv(capsys):
    code, out, _ = run(
        ["severi", "--d", "3", "--delta", "1", "--alpha", "3",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,delta,alpha,beta,degree,dim,genus"
    assert lines[1] == "3,1,3,,10,5,0"


def test_severi_json(capsys):
    code, out, _ = run(
        ["severi", "--d", "4", "--delta", "3", "--beta", "4",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {
        "d": 4, "delta": 3, "alpha": [], "beta": [4],
        "degree": "675", "dim": 11, "genus": 0,
    }


# SHA-256 of the stdout of severi and case-study in each format: key order,
# spacing, quoting and line order all count
STDOUT_SHA256 = {
    ("severi", "--d", "4", "--delta", "1", "--alpha", "1", "--beta", "0,0,1"): {
        "text": "f7398a498af3b39c2d51fd6ca8a1d298bb28584e3696c1ff89bb62a0a7503a8a",
        "csv": "3a7b93981ed1d32bc3bcf5e11f6a08b5f4d231b9cf147df947a33e5a2b6d5598",
        "json": "e423940ad4b9ccffc40ee953121edcea9bf053a5f46a0e67bb1fbfcd3b54b19f",
    },
    ("severi", "--d", "12", "--delta", "55", "--beta", "12"): {
        "text": "3183b051f06fa76e595414c4346d9688d3ab7767d281514225003b9c4a1ddfc2",
        "csv": "9788f43995a804ba92783116d88e5510e1f86ad36661af51a31141d0f436259c",
        "json": "1ff6ae2c2c23bb0a321c7df15620dfa907e06a1460e84e2c7e30f24a83ffc390",
    },
    ("case-study",): {
        "text": "010d7b71cf68b397c3e4a5b04b6d35a7baa6250165a463ca25e1c04a0ea17603",
        "csv": "b2be7f263758424b28fd7fa32c4c52f8643febdf775d0be9b06e1799edb47157",
        "json": "9ab0edd1a02082834bb464211ea4ff1e1e06f7af5e57664e55266469869945fb",
    },
}


@pytest.mark.parametrize("argv", STDOUT_SHA256)
def test_stdout_is_pinned(argv, capsys):
    for fmt, digest in STDOUT_SHA256[argv].items():
        code, out, err = run([*argv, "--format", fmt], capsys)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_severi_weight_mismatch_is_usage_error(capsys):
    code, out, err = run(
        ["severi", "--d", "3", "--delta", "0", "--alpha", "1", "--beta", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "sum(k*alpha_k) + sum(k*beta_k) = d" in err


def test_severi_bad_profile_is_usage_error(capsys):
    code, _, _ = run(
        ["severi", "--d", "3", "--delta", "0", "--beta", "1,x"], capsys
    )
    assert code == 2


def test_severi_negative_profile_entry_is_usage_error(capsys):
    code, out, err = run(
        ["severi", "--d", "3", "--delta", "0", "--beta", "1,-1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "--beta entries must be nonnegative, got '1,-1'" in err


def test_severi_nonpositive_degree_is_usage_error(capsys):
    code, _, err = run(["severi", "--d", "0", "--delta", "0"], capsys)
    assert code == 2
    assert "error:" in err


def test_severi_negative_delta_is_usage_error(capsys):
    # argparse reads "-1" as the value of --delta; the bound declines it
    code, out, err = run(["severi", "--d", "3", "--delta", "-1", "--beta", "3"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --delta: delta must be >= 0, got -1\n")


# ------------------------------------------------------------- kontsevich
def test_kontsevich_csv(capsys):
    code, out, _ = run(["kontsevich", "--max", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["d,n", "1,1", "2,1", "3,12", "4,620"]


def test_kontsevich_json(capsys):
    code, out, _ = run(["kontsevich", "--max", "5", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[-1] == {"d": 5, "n": "87304"}


def test_kontsevich_text_aligns(capsys):
    code, out, _ = run(["kontsevich", "--max", "3"], capsys)
    assert code == 0
    assert out.splitlines() == [" 1   1", " 2   1", " 3  12"]


def test_kontsevich_zero_max_is_usage_error(capsys):
    code, _, err = run(["kontsevich", "--max", "0"], capsys)
    assert code == 2
    assert "d_max must be >= 1" in err


def test_kontsevich_prints_counts_past_the_int_str_digit_cap(monkeypatch, capsys):
    huge = 10**5000 + 7  # 5001 digits, over Python's default 4300-digit cap
    digits = "1" + "0" * 4999 + "7"
    monkeypatch.setattr(kontsevich, "rational_table", lambda d_max: [(1, 1), (2, huge)])
    for fmt in ("text", "csv", "json"):
        code, out, err = run(["kontsevich", "--max", "2", "--format", fmt], capsys)
        assert code == 0, err
        assert digits in out


# SHA-256 of the stdout of `kontsevich --max 580` in each format; no other
# test checks exact values past d = 60, or any value past d = 300
KONTSEVICH_580_SHA256 = {
    "text": "195e90f5b87166b802028413454aa9417bb9b5589e111af6c447bafbcaaa2061",
    "csv": "918e3b21c96b2894a7d8775007ad43a8b18ea3398cffb661ed5708d3fbc09d43",
    "json": "7305e2c8f07e8df9781d8d091b0938a13174b5e40c6301bfbe97bce0262ac1ea",
}


@lru_cache(maxsize=None)
def rows_580():
    """kontsevich.rational_table(580), computed once for the tests below."""
    return kontsevich.rational_table(580)


def test_kontsevich_580_stdout_is_pinned(monkeypatch, capsys):
    rows = rows_580()
    monkeypatch.setattr(kontsevich, "rational_table", lambda d_max: rows[:d_max])
    for fmt, digest in KONTSEVICH_580_SHA256.items():
        code, out, err = run(["kontsevich", "--max", "580", "--format", fmt], capsys)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


class DigestStdout:
    """A stdout that keeps only the SHA-256 of the text written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


def test_kontsevich_580_text_and_csv_print_each_line_as_it_is_formed(monkeypatch):
    # about 2.5 MB of output under a traced peak of 1 MB: a version that
    # formats every line before it prints the first one fails here
    rows = rows_580()
    monkeypatch.setattr(kontsevich, "rational_table", lambda d_max: rows[:d_max])
    for fmt in ("text", "csv"):
        sink = DigestStdout()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["kontsevich", "--max", "580", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.sha.hexdigest() == KONTSEVICH_580_SHA256[fmt]
        assert peak < 1 << 20, (fmt, peak)


# ------------------------------------------------------------------ table
def test_table_requires_cache(capsys):
    code, _, err = run(["table", "--dmax", "2", "--deltamax", "1"], capsys)
    assert code == 2
    assert "--cache" in err


def test_table_create_then_verify(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    code, out, _ = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", path], capsys
    )
    assert code == 0
    assert out == "cache %s\nverified 0\nappended 32\nrecords 32\n" % path
    # second run recomputes, verifies every record, appends nothing
    code, out, _ = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", path], capsys
    )
    assert code == 0
    assert out == "cache %s\nverified 32\nappended 0\nrecords 32\n" % path


def test_fresh_table_cache_bytes_are_pinned(tmp_path, capsys):
    # every record through d = 8; the hash covers the tool version too
    path = tmp_path / "cache.jsonl"
    code, out, _ = run(
        ["table", "--dmax", "8", "--deltamax", "100", "--cache", str(path)], capsys
    )
    assert code == 0
    assert out.endswith("verified 0\nappended 9413\nrecords 9413\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7b81c8be26b7dbc7f98c0de93c84dedca373f6ab95b92f8a7ac046189fdc2c2e"
    )


def _torn(path):
    path.write_bytes(path.read_bytes()[:-5])


def _malformed(path):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")


@pytest.mark.parametrize("damage,code,message", [
    (lambda path: _duplicate_hero_record(path, "13"), 1,
     "stored degree 13, stored again as 12"),
    (_torn, 1, "cache corruption: torn last line 33"),
    (_malformed, 2, "line 34: not valid JSON"),
], ids=["contradiction", "torn", "malformed"])
def test_table_computes_then_checks_the_cache(
    damage, code, message, tmp_path, monkeypatch, capsys
):
    # the table comes first, so canonical lines can be matched by their bytes
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    damage(path)
    damaged = path.read_bytes()
    calls = []
    for module, name in [(severi, "severi_table"), (cache, "check_cache")]:
        def logged(*args, _inner=getattr(module, name), _name=name):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(module, name, logged)
    got, out, err = run(argv, capsys)
    assert (got, out) == (code, "")
    assert message in err
    assert calls == ["severi_table", "check_cache"]
    assert path.read_bytes() == damaged


def test_table_rerun_parses_only_lines_it_would_not_write(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "5", "--deltamax", "10", "--cache", str(path)]
    _, first, _ = run(argv, capsys)
    count = int(first.split("appended ")[1].split()[0])

    def unparsed(line, lineno, torn):
        raise AssertionError("parsed line %d" % lineno)

    with monkeypatch.context() as patch:
        patch.setattr(cache, "_parse_record", unparsed)
        code, canonical, _ = run(argv, capsys)
    assert code == 0
    assert canonical == "cache %s\nverified %d\nappended 0\nrecords %d\n" % (
        path, count, count)
    # lines of another tool version take the parser and verify the same
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1:] = [json.dumps(dict(json.loads(line), **{"tool-version": "0"}))
                 for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(argv, capsys)[:2] == (0, canonical)


def test_table_makes_no_record_for_a_line_it_would_write(tmp_path, monkeypatch, capsys):
    # a fresh write streams the table's lines; a clean re-run verifies them by
    # their bytes: neither builds a row record
    def refuse(*args):
        raise AssertionError("built a DegreeRecord for %r" % (args,))

    monkeypatch.setattr(cache, "DegreeRecord", refuse)
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "5", "--deltamax", "10", "--cache", str(path)]
    assert run(argv, capsys) == (
        0, "cache %s\nverified 0\nappended 588\nrecords 588\n" % path, "")
    assert run(argv, capsys) == (
        0, "cache %s\nverified 588\nappended 0\nrecords 588\n" % path, "")


def test_table_rerun_never_reads_the_cache_whole(tmp_path, monkeypatch, capsys):
    # the re-run iterates the file, so it never holds the whole text at once
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "5", "--deltamax", "10", "--cache", str(path)]
    run(argv, capsys)

    def refuse(*args):
        raise AssertionError("read the cache whole")

    def lines_only(*args, **kwargs):
        handle = open(*args, **kwargs)
        handle.read = handle.readlines = refuse
        return handle

    monkeypatch.setattr(cache, "open", lines_only, raising=False)
    assert run(argv, capsys) == (
        0, "cache %s\nverified 588\nappended 0\nrecords 588\n" % path, "")


def test_table_formats_its_lines_once_over_a_partial_cache(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "cache.jsonl")
    run(["table", "--dmax", "2", "--deltamax", "1", "--cache", path], capsys)
    calls = []

    def counted(table, _inner=cache.table_lines):
        calls.append(table)
        return _inner(table)

    monkeypatch.setattr(cache, "table_lines", counted)
    assert run(["table", "--dmax", "3", "--deltamax", "1", "--cache", path], capsys) == (
        0, "cache %s\nverified 12\nappended 20\nrecords 32\n" % path, "")
    assert len(calls) == 1


def test_table_extends_cache(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    run(["table", "--dmax", "2", "--deltamax", "1", "--cache", path], capsys)
    code, out, _ = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", path], capsys
    )
    assert code == 0
    assert "verified 12\n" in out
    assert "appended 20\n" in out


def test_table_detects_tampering(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    run(["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)], capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        if (record["d"], record["delta"], record["beta"]) == (3, 1, [3]):
            record["degree"] = "13"
            lines[i] = json.dumps(record, sort_keys=True)
            break
    else:
        pytest.fail("expected record not found")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)], capsys
    )
    assert code == 1
    assert "cache corruption" in err
    assert "stored degree 13, recomputed 12" in err


def _duplicate_hero_record(path, degree, after=False):
    """Insert a copy of the N(3,1;(),(3)) record, with this degree, before it
    (or after it)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        if (record["d"], record["delta"], record["beta"]) == (3, 1, [3]):
            record["degree"] = degree
            lines.insert(i + after, json.dumps(record, sort_keys=True))
            break
    else:
        pytest.fail("expected record not found")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_table_reports_contradicting_duplicate_records_as_corruption(
    tmp_path, capsys
):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    _duplicate_hero_record(path, "13")
    before = path.read_bytes()
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == (
        "cache corruption at d=3 delta=1 alpha=[] beta=[3]: "
        "stored degree 13, stored again as 12\n"
    )
    assert path.read_bytes() == before


def test_table_accepts_identical_duplicate_records(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    _duplicate_hero_record(path, "12")
    before = path.read_bytes()
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "cache %s\nverified 32\nappended 0\nrecords 33\n" % path
    assert path.read_bytes() == before


def test_table_reports_a_contradicting_copy_after_its_table_line(tmp_path, capsys):
    # the byte-identical table line comes first, so it is the stored record
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    _duplicate_hero_record(path, "13", after=True)
    before = path.read_bytes()
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == (
        "cache corruption at d=3 delta=1 alpha=[] beta=[3]: "
        "stored degree 12, stored again as 13\n"
    )
    assert path.read_bytes() == before


def test_table_reads_but_does_not_verify_lines_outside_its_bounds(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    run(["table", "--dmax", "4", "--deltamax", "3", "--cache", str(path)], capsys)
    before = path.read_bytes()
    code, out, err = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)], capsys
    )
    assert (code, err) == (0, "")
    assert out == "cache %s\nverified 32\nappended 0\nrecords 132\n" % path
    assert path.read_bytes() == before


def test_table_detects_tampering_among_lines_of_another_version(tmp_path, capsys):
    # no line is byte-identical to a table line: every one is parsed and compared
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [dict(json.loads(line), **{"tool-version": "0"}) for line in lines[1:]]
    (hero,) = [r for r in records if (r["d"], r["delta"], r["beta"]) == (3, 1, [3])]
    hero["degree"] = "13"
    lines[1:] = [json.dumps(record, sort_keys=True) for record in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = path.read_bytes()
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == (
        "cache corruption at d=3 delta=1 alpha=[] beta=[3]: "
        "stored degree 13, recomputed 12\n"
    )
    assert path.read_bytes() == before


def _respelled(line, **fields):
    return json.dumps(dict(json.loads(line), **fields), sort_keys=True)


def test_table_reports_a_contradicting_duplicate_before_a_tampered_row(tmp_path, capsys):
    # every record is checked against the first of its index, in file order,
    # before any is checked against the table
    path = tmp_path / "cache.jsonl"
    run(["table", "--dmax", "4", "--deltamax", "3", "--cache", str(path)], capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[1])["d"] == 1
    lines[1] = _respelled(lines[1], degree="99")
    outside = json.loads(lines[-1])  # d = 4, delta = 3: outside a (3, 1) table
    assert (outside["d"], outside["delta"]) == (4, 3)
    lines.append(_respelled(lines[-1], degree=str(int(outside["degree"]) + 1)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == ("cache corruption at d=4 delta=3 alpha=%s beta=%s: "
                   "stored degree %s, stored again as %d\n"
                   % (outside["alpha"], outside["beta"], outside["degree"],
                      int(outside["degree"]) + 1))


def test_table_reports_the_lowest_tampered_index_first(tmp_path, capsys):
    # rows are checked against the table in index order, not in file order
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    (hero,) = [i for i, line in enumerate(lines[1:], start=1)
               if json.loads(line)["beta"] == [3] and json.loads(line)["delta"] == 1]
    lines[hero] = _respelled(lines[hero], degree="13")
    first = lines.pop(1)
    assert json.loads(first)["d"] == 1
    lines.append(_respelled(first, degree="99"))  # the lowest index, last in the file
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == ("cache corruption at d=1 delta=0 alpha=[] beta=[1]: "
                   "stored degree 99, recomputed 1\n")


def test_table_reports_invalid_index_as_corruption(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    run(["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)], capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[-1])
    record["beta"] = record["beta"] + [1]  # weight no longer equals d
    lines[-1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == (
        "cache corruption: invalid index d=%d delta=%d alpha=%s beta=%s\n"
        % (record["d"], record["delta"], record["alpha"], record["beta"])
    )


def test_table_reports_a_delta_outside_the_node_range_as_corruption(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "2", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"alpha": [], "beta": [1], "d": 1, "degree": "7", "delta": -5, '
                     '"dim": 7, "genus": 5, "tool-version": "0.1.0"}\n')
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "cache corruption: invalid index d=1 delta=-5 alpha=[] beta=[1]\n"


@pytest.mark.parametrize("duplicate", [False, True], ids=["recomputed", "duplicate"])
@pytest.mark.parametrize("field", ["dim", "genus"])
def test_table_corruption_names_the_field_that_differs(tmp_path, capsys, field,
                                                       duplicate):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    assert (record["d"], record["delta"], record["beta"]) == (1, 0, [1])
    true = record[field]
    record[field] = 99
    tampered = json.dumps(record, sort_keys=True)
    if duplicate:
        lines.insert(1, tampered)
    else:
        lines[1] = tampered
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == ("cache corruption at d=1 delta=0 alpha=[] beta=[1]: "
                   "stored %s 99, %s %d\n"
                   % (field, "stored again as" if duplicate else "recomputed", true))


def test_table_reports_torn_last_line_as_corruption(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) - 30], encoding="utf-8")  # crash mid-append
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "cache corruption: torn last line 33\n"
    # recovery as the README says: delete the torn line and re-run
    lines = path.read_text(encoding="utf-8").splitlines()[:-1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "cache %s\nverified 31\nappended 1\nrecords 32\n" % path


@pytest.mark.parametrize("cut", [1, 20, -1])
def test_table_reports_torn_header_as_corruption(tmp_path, capsys, cut):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(header[:cut], encoding="utf-8")  # crash in the first write
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "cache corruption: torn header\n"
    # recovery as the README says: delete the file and re-run
    path.unlink()
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "cache %s\nverified 0\nappended 32\nrecords 32\n" % path


def test_table_rejects_a_record_with_non_integer_fields(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "2", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    assert (record["d"], record["beta"]) == (1, [1])
    record.update({"d": 1.9, "delta": False, "beta": [True], "dim": 2.5,
                   "degree": 1.0})
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = path.read_bytes()
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: malformed record: ")
    assert path.read_bytes() == before


def test_table_rejects_a_cache_that_is_not_utf8(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"\xff\n")
    proc = fresh_cli("table", "--dmax", "2", "--deltamax", "1", "--cache", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read %s: " % path)
    assert "Traceback" not in proc.stderr
    assert path.read_bytes() == b"\xff\n"


@pytest.mark.parametrize("text,error", [
    ('%s\n%s\n' % (cache._header_line(), "[" * 100000), "line 2: not valid JSON: "),
    ('{"format-version": %s}\n' % ("9" * 5000), "%s: unsupported format-version"),
], ids=["nested-record", "long-integer-header"])
def test_table_rejects_a_hostile_cache_without_a_traceback(tmp_path, text, error):
    path = tmp_path / "cache.jsonl"
    path.write_text(text, encoding="utf-8")
    proc = fresh_cli("table", "--dmax", "2", "--deltamax", "1", "--cache", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: " + error.replace("%s", str(path)))
    assert "Traceback" not in proc.stderr


def test_table_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "absent" / "c.jsonl"
    code, out, err = run(
        ["table", "--dmax", "2", "--deltamax", "1", "--cache", str(path)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s: " % path)
    assert "Traceback" not in err


def test_a_table_rerun_that_appends_nothing_never_writes(tmp_path, monkeypatch, capsys):
    # so a complete cache may be read-only; a run that must append still fails
    path = tmp_path / "cache.jsonl"
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(path)]
    run(argv, capsys)

    def unwritable(target, lines):
        raise cache.CacheError("cannot write %s: read-only" % target)

    monkeypatch.setattr(cache, "append_records", unwritable)
    assert run(argv, capsys) == (
        0, "cache %s\nverified 32\nappended 0\nrecords 32\n" % path, "")
    argv[2] = "4"
    assert run(argv, capsys) == (2, "", "error: cannot write %s: read-only\n" % path)


def test_table_over_an_empty_cache_file_starts_it_afresh(tmp_path, capsys):
    # a crash between creating the file and its first write leaves it empty
    fresh = tmp_path / "fresh.jsonl"
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    run(["table", "--dmax", "3", "--deltamax", "1", "--cache", str(fresh)], capsys)
    code, out, _ = run(
        ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(empty)], capsys
    )
    assert code == 0
    assert out == "cache %s\nverified 0\nappended 32\nrecords 32\n" % empty
    assert empty.read_bytes() == fresh.read_bytes()


def _with_tool_version(brk):
    """Respell a record line with the line break brk raw in its tool-version."""
    def respell(line):
        raw = json.loads(line)
        if "tool-version" in raw:
            raw["tool-version"] = "0" + brk + "1"
        return json.dumps(raw, ensure_ascii=False)
    return respell


@pytest.mark.parametrize("respell", [
    lambda line: line + "\r",
    *map(_with_tool_version, ["\x85", "\u2028", "\u2029"]),
], ids=["crlf", "next-line", "line-separator", "paragraph-separator"])
def test_table_reads_a_respelled_cache_as_the_original(respell, tmp_path, capsys):
    # lines end at "\n" alone: a "\r" before it is JSON whitespace, and other
    # line breaks may stand raw inside a JSON string
    original, respelled = tmp_path / "original.jsonl", tmp_path / "respelled.jsonl"
    run(["table", "--dmax", "2", "--deltamax", "1", "--cache", str(original)], capsys)
    small = original.read_text(encoding="utf-8")
    respelled.write_text("".join(respell(line) + "\n" for line in small.split("\n")[:-1]),
                         encoding="utf-8")
    before = respelled.read_bytes()
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache"]
    code, out, err = run(argv + [str(original)], capsys)
    assert (code, err) == (0, "") and "verified 12\nappended 20\n" in out
    assert run(argv + [str(respelled)], capsys) == (
        code, out.replace(str(original), str(respelled)), err)
    assert respelled.read_bytes() == before + original.read_bytes()[len(small):]


def test_table_rejects_unknown_format_version(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        json.dumps({"format-version": "9", "tool": "curvecount"}) + "\n",
        encoding="utf-8",
    )
    code, _, err = run(
        ["table", "--dmax", "2", "--deltamax", "1", "--cache", str(path)], capsys
    )
    assert code == 2
    assert "format-version" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--dmax", "0", "--deltamax", "1", "--cache", "x.jsonl"],
        ["table", "--dmax", "2", "--deltamax", "-1", "--cache", "x.jsonl"],
        ["table", "--dmax", "two", "--deltamax", "1", "--cache", "x.jsonl"],
    ],
)
def test_table_bad_bounds_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert not (tmp_path / "x.jsonl").exists()


# ----------------------------------------------------------------- verify
def test_verify_wdvv_passes(capsys):
    code, out, _ = run(["verify", "wdvv", "--dmax", "4", "--x1", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "wdvv d_max=4 x1_bound=5 window=9 nonzero=0"
    assert lines[-1] == "ok"


def test_verify_getzler_passes(capsys):
    code, out, _ = run(["verify", "getzler", "--D", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "getzler D=3 violations=0"
    assert out.splitlines()[-1] == "ok"


def test_verify_getzler_passes_at_its_bound(capsys):
    assert run(["verify", "getzler", "--D", "10"], capsys) == (
        0, "getzler D=10 violations=0\nok\n", "")


def test_verify_one_node_passes(capsys):
    code, out, _ = run(["verify", "one-node", "--dmax", "12"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "one-node d=2..12 disagreements=0"


def test_verify_case_studies_pass(capsys):
    code, out, _ = run(["verify", "case-studies"], capsys)
    assert code == 0
    assert out.splitlines()[0] == (
        "case-studies cross-ratio=12 kontsevich=12 "
        "rational-fibration=12 recursion=12"
    )


def test_verify_all_uses_defaults(capsys):
    code, out, _ = run(["verify", "all"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("wdvv d_max=6 x1_bound=8")
    assert any(line.startswith("getzler D=4") for line in lines)
    assert any(line.startswith("one-node d=2..12") for line in lines)
    assert lines[-1] == "ok"


VERIFY_HELP = """\
usage: curvecount verify [-h] [--dmax DMAX] [--x1 X1] [--D D]
                         {wdvv,getzler,one-node,case-studies,all}

positional arguments:
  {wdvv,getzler,one-node,case-studies,all}

options:
  -h, --help            show this help message and exit
  --dmax DMAX           bound for wdvv (<= 16) or one-node (<= 12)
  --x1 X1               x1 truncation for wdvv (3..64)
  --D D                 degree truncation for getzler (2..10)
"""


def test_verify_help_states_the_bounds_of_the_suites(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(["verify", "--help"], capsys)
    assert code == 0
    assert out == VERIFY_HELP


VERIFY_BOUND_ERRORS = [
    (["verify", "wdvv", "--dmax", "17"], "error: wdvv supports 1 <= dmax <= 16\n"),
    (["verify", "wdvv", "--x1", "2"], "error: wdvv supports 3 <= x1 <= 64\n"),
    (["verify", "wdvv", "--x1", "65"], "error: wdvv supports 3 <= x1 <= 64\n"),
    (["verify", "getzler", "--D", "11"], "error: getzler supports 2 <= D <= 10\n"),
    (["verify", "getzler", "--D", "1"], "error: getzler supports 2 <= D <= 10\n"),
    (["verify", "one-node", "--dmax", "13"],
     "error: one-node supports 2 <= dmax <= 12\n"),
    (["verify", "one-node", "--dmax", "1"],
     "error: one-node supports 2 <= dmax <= 12\n"),
]


@pytest.mark.parametrize(
    "argv,line",
    VERIFY_BOUND_ERRORS,
    ids=["argv%d" % i for i in range(len(VERIFY_BOUND_ERRORS))],
)
def test_verify_bounds_are_usage_errors(argv, line, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == line


# suite, its bound flags, the first flag it does not read
UNREAD_FLAGS = [
    ("getzler", ["--dmax", "3"], "dmax"),
    ("getzler", ["--x1", "4"], "x1"),
    ("wdvv", ["--D", "3"], "D"),
    ("one-node", ["--x1", "4"], "x1"),
    ("one-node", ["--dmax", "5", "--D", "3"], "D"),
    ("case-studies", ["--x1", "2"], "x1"),
    ("case-studies", ["--dmax", "99", "--D", "3"], "dmax"),
    ("all", ["--D", "9", "--dmax", "100"], "dmax"),
    ("all", ["--x1", "4"], "x1"),
    ("all", ["--D", "4"], "D"),
]


@pytest.mark.parametrize(
    "suite,flags,unread",
    UNREAD_FLAGS,
    ids=[" ".join([suite, *flags]) for suite, flags, _ in UNREAD_FLAGS],
)
def test_verify_rejects_bound_flags_the_suite_does_not_read(
    suite, flags, unread, capsys
):
    code, out, err = run(["verify", suite, *flags], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: %s does not take --%s\n" % (suite, unread)


def test_verify_wdvv_detects_corrupt_count(monkeypatch, capsys):
    true_table = kontsevich.rational_table

    def corrupt_table(d_max):
        return [(d, n + (1 if d == 3 else 0)) for d, n in true_table(d_max)]

    monkeypatch.setattr(kontsevich, "rational_table", corrupt_table)
    code, out, _ = run(["verify", "wdvv", "--dmax", "3", "--x1", "4"], capsys)
    assert code == 1
    assert "residual x1^0 x2^5 = 1/120" in out
    assert out.splitlines()[-1] == "FAIL"


def test_verify_getzler_detects_corrupt_degree(monkeypatch, capsys):
    true_table = severi.severi_table
    target = severi.SeveriIndex(3, 1, (), (3,))

    def corrupt(d_max, delta_max):
        return corrupted(true_table(d_max, delta_max), target)

    monkeypatch.setattr(genfunc.severi, "severi_table", corrupt)
    code, out, _ = run(["verify", "getzler", "--D", "4"], capsys)
    assert code == 1
    assert out == (
        "getzler D=4 violations=12\n"
        "  monomial alpha=() beta=(3) z^7\n"
        "  monomial alpha=(0,0,0,1) beta=() z^8\n"
        "  monomial alpha=(0,0,1) beta=(1) z^8\n"
        "  monomial alpha=(0,1) beta=(2) z^8\n"
        "  monomial alpha=(0,2) beta=() z^8\n"
        "  monomial alpha=(1) beta=(3) z^8\n"
        "  monomial alpha=(1,0,1) beta=() z^8\n"
        "  monomial alpha=(1,1) beta=(1) z^8\n"
        "  monomial alpha=(2) beta=(2) z^8\n"
        "  monomial alpha=(2,1) beta=() z^8\n"
        "  monomial alpha=(3) beta=(1) z^8\n"
        "  monomial alpha=(4) beta=() z^8\n"
        "FAIL\n"
    )


def test_verify_getzler_reads_only_the_table_engine(monkeypatch, capsys):
    def pointwise(*args, **kwargs):
        raise AssertionError("verify getzler called the pointwise engine")

    monkeypatch.setattr(severi, "severi_degree", pointwise)
    monkeypatch.setattr(severi, "MemoStore", pointwise)
    code, out, _ = run(["verify", "getzler", "--D", "5"], capsys)
    assert code == 0
    assert out == "getzler D=5 violations=0\nok\n"


@pytest.mark.parametrize("route", ["euler_one_node", "chow_one_node"])
def test_verify_one_node_detects_corrupt_route(route, monkeypatch, capsys):
    true_route = getattr(classical, route)
    monkeypatch.setattr(
        classical, route, lambda d: true_route(d) + (1 if d == 7 else 0)
    )
    code, out, _ = run(["verify", "one-node", "--dmax", "12"], capsys)
    assert code == 1
    assert "d=7 expected 108" in out
    assert out.splitlines()[-1] == "FAIL"


def test_verify_one_node_reads_the_recursion(monkeypatch, capsys):
    # a +1 on the recursion's one-nodal degrees at d >= 4 is seen at each of
    # them; Goettsche's route would answer (), (d) there from its one-node
    # window d0 = 1..3 (window_start(1) = 1) and hide it
    degree = severi._degree
    monkeypatch.setattr(
        severi, "_degree",
        lambda index, memo: degree(index, memo) + (index.delta == 1 and index.d >= 4))
    code, out, _ = run(["verify", "one-node", "--dmax", "12"], capsys)
    assert code == 1
    assert out.splitlines()[0] == "one-node d=2..12 disagreements=9"
    assert out.splitlines()[-1] == "FAIL"


def test_verify_case_studies_detect_tampered_constant(monkeypatch, capsys):
    monkeypatch.setattr(classical, "SEPARATING_SPLIT", (5, 6))
    code, out, err = run(["verify", "case-studies"], capsys)
    assert code == 1
    assert "verification failure:" in err


# ------------------------------------------------------------- case-study
def test_case_study_text(capsys):
    code, out, _ = run(["case-study"], capsys)
    assert code == 0
    assert "case-study cross-ratio" in out
    assert "case-study rational-fibration" in out
    assert "zero-divisor-degree = 360" in out
    assert "section-self-intersection = -10" in out
    assert "component-degree-square-sum = 78" in out
    assert "note: sign note" in out


def test_case_study_json(capsys):
    code, out, _ = run(["case-study", "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert [rep["method"] for rep in reports] == [
        "cross-ratio", "rational-fibration"
    ]
    assert all(rep["count"] == 12 for rep in reports)


def test_case_study_csv(capsys):
    code, out, _ = run(["case-study", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,quantity,value"
    assert "cross-ratio,zero-divisor-degree,360" in lines


def test_one_format_dispatch():
    # "csv" and "json" are compared in _emit alone, so every command prints
    # through it; FORMAT, --format's entry in the command table, names them
    # only as its choices
    named, compared = set(), set()
    with open(cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for top in tree.body:
        site = top.targets[0].id if isinstance(top, ast.Assign) else getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in ("csv", "json"):
                named.add(site)
            if isinstance(node, ast.Compare) and any(
                    isinstance(operand, ast.Constant) and operand.value in ("csv", "json")
                    for operand in (node.left, *node.comparators)):
                compared.add(site)
    assert named == {"_emit", "FORMAT"}
    assert compared == {"_emit"}


# ----------------------------------------------------------- whole-program
@pytest.mark.parametrize(
    "argv",
    [
        ["severi", "--d", "3", "--delta", "1", "--beta", "3", "--cache", "x.jsonl"],
        ["kontsevich", "--max", "3", "--cache", "x.jsonl"],
        ["verify", "case-studies", "--format", "json"],
        ["table", "--dmax", "2", "--deltamax", "1", "--cache", "x.jsonl",
         "--format", "json"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


# SHA-256 at COLUMNS=80 of what --version and --help print on stdout (exit
# 0), and of one usage error's stderr (exit 2) per subcommand: argparse's
# own bytes
HELP_SHA256 = {
    ("--version",): (0, "e9dd8507f4bf0c6f42458e41aea833ad0bd3f6127272335eee9bf4d58541ed67"),
    ("--help",): (0, "164b28b87952d39b373b394561be78e836518250918124285532b2beb04f7f47"),
    ("severi", "--help"):
        (0, "c9814ac737b8354143f418d91c2c4230858da77445e4036ce37d7cc965764936"),
    ("kontsevich", "--help"):
        (0, "16afa1527fc17f4accb30c4d06ae755fa50a957ad9eef63cc5d392fa76894b71"),
    ("table", "--help"):
        (0, "f14f9542b00a81733bbc604e367f4a29085a3786e1906167a48d70ac2cfbde3b"),
    ("verify", "--help"):
        (0, "30596e8c14a2ce5d5f064a3c7b70277044eb334ed8d50d611d3024c4cb10ee8a"),
    ("case-study", "--help"):
        (0, "7dc96fde44e8033414ce7198e8c95184d27c7a223f86e13fedbc99770339f78a"),
    (): (2, "5a2c8827c11673fb1b1f4627227074d47415d1868ed3651ef104dc06a6069343"),
    ("severi", "--d", "3"):
        (2, "f23e27d51c1bc9407ce4c80211515bbeac16a8b8a3d31044291497433820e7ce"),
    ("kontsevich", "--max", "0"):
        (2, "e30cb2fd247eac6b63bdd5e83e58b645cf4f33e0a611ea1c0aa3401499475ef7"),
    ("table", "--dmax", "2", "--deltamax", "1"):
        (2, "ed4e8d9fd325217f75eac52fc6330fbaef45e52856cd7f2f19c932968168aa3b"),
    ("verify", "nope"):
        (2, "4a72e873e20d03adbcde2177c19717f3b6093a6b37d60431f1dff610e5963833"),
    ("case-study", "--format", "xml"):
        (2, "adc002a8035acba850f410aba3b50f8f095cd43354068f89989f76fb587359b0"),
}


@pytest.mark.parametrize("argv", HELP_SHA256, ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_bytes_are_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(list(argv), capsys)
    expected, digest = HELP_SHA256[argv]
    printed, silent = (out, err) if expected == 0 else (err, out)
    assert (code, silent) == (expected, "")
    assert hashlib.sha256(printed.encode()).hexdigest() == digest


SEVERI_3_1 = "index d=3 delta=1 alpha=() beta=(3)\ndegree 12\ndim 8\ngenus 0\n"
# spellings that argparse takes and no other test uses, with what they print
SPELLINGS = {
    ("severi", "--d=3", "--delta", "1", "--beta", "3"): SEVERI_3_1,
    ("severi", "--d", "3", "--del", "1", "--beta", "3"): SEVERI_3_1,
    ("severi", "--d", "3", "--d", "4", "--delta", "1", "--beta", "4"):
        "index d=4 delta=1 alpha=() beta=(4)\ndegree 27\ndim 13\ngenus 2\n",
    ("severi", "--d", "3", "--delta", "1", "--beta", "3", "--format=json"):
        '{"alpha": [], "beta": [3], "d": 3, "degree": "12", "delta": 1, "dim": 8, '
        '"genus": 0}\n',
}


@pytest.mark.parametrize("argv", SPELLINGS, ids=" ".join)
def test_argparse_spellings_print_as_before(argv, capsys):
    assert run(list(argv), capsys) == (0, SPELLINGS[argv], "")


def argv_literals(path):
    """Each list or tuple literal in the source file at path that reads as a
    curvecount argv: its first item is a subcommand or starts with '-'.  An
    item that is not a string literal (a path, str(d)) reads as "7"."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, (ast.List, ast.Tuple)) and node.elts
                and not any(isinstance(item, ast.Starred) for item in node.elts)):
            argv = [item.value if isinstance(item, ast.Constant)
                    and isinstance(item.value, str) else "7" for item in node.elts]
            if argv[0] in cli.COMMANDS or argv[0].startswith("-"):
                yield argv


def test_the_command_table_reads_argv_as_argparse_does():
    # one grammar: where the table takes an argv, argparse builds the same
    # namespace from it; the spellings of bench/run.py and the README's
    # examples all take the table, so they never load argparse
    root = pathlib.Path(__file__).resolve().parent.parent
    canonical = [*(shlex.split(command)[1:] for command, _ in README_EXAMPLES),
                 *(argv for argv in argv_literals(root / "bench" / "run.py")
                   if argv[0] in cli.COMMANDS)]
    tested = [*argv_literals(root / "tests" / "test_cli.py"),
              *argv_literals(root / "tests" / "test_acceptance.py")]
    parser = cli.build_parser()
    for argv in canonical + tested:
        args = cli._table_args(argv)
        if args is None:
            assert argv not in canonical, argv
        else:
            assert vars(args) == vars(parser.parse_args(argv)), argv


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["severi", "--d", "3", "--wat"]) == 2


def test_a_surplus_positional_is_left_to_argparse(capsys):
    argv = ["verify", "wdvv", "extra"]
    assert cli._table_args(argv) is None
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: extra\n")


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert out.strip() == "0.1.0"
    # the package metadata states the version that stamps every cache record
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, encoding="utf-8") as handle:
        stated = re.search(r'^version = "([^"]*)"$', handle.read(), re.M).group(1)
    assert stated == __version__


@pytest.mark.parametrize(
    "argv",
    [
        ["severi", "--d", "4", "--delta", "2", "--beta", "4"],
        ["kontsevich", "--max", "5", "--format", "json"],
        ["verify", "case-studies"],
        ["case-study", "--format", "csv"],
    ],
)
def test_repeated_invocations_are_byte_identical(argv, capsys):
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second
    assert first[0] == 0


RECORD_D1 = ('{"alpha": [], "beta": [%s], "d": 1, "degree": "1", "delta": 0, '
             '"dim": 2, "genus": 0, "tool-version": "0.1.0"}')


@pytest.mark.parametrize("argv,cache_text,patch,code,err", [
    (["severi", "--d", "0", "--delta", "0"], None, "", 2,
     "error: degree d must be >= 1, got 0\n"),
    (["severi", "--d", "3", "--delta", "0", "--alpha", "1", "--beta", "1"], None, "", 2,
     "error: "),
    (["table"], "%s\n{}\n", "", 2, "error: line 2: expected fields "),
    (["table"], "%s\n" + RECORD_D1 % 2 + "\n", "", 1,
     "cache corruption: invalid index d=1 delta=0 alpha=[] beta=[2]\n"),
    (["table"], "%s\n" + (RECORD_D1 % 1)[:20], "", 1,
     "cache corruption: torn last line 2\n"),
    (["case-study"], None,
     "from curvecount import classical\nclassical.SEPARATING_SPLIT = (5, 6)", 1,
     "verification failure: "),
], ids=["nonpositive-degree", "weight-mismatch", "malformed-cache", "invalid-index",
        "torn-line", "arithmetic-mismatch"])
def test_errors_map_to_their_exit_codes_in_a_fresh_interpreter(
        tmp_path, argv, cache_text, patch, code, err):
    if cache_text is not None:
        path = tmp_path / "cache.jsonl"
        path.write_text(cache_text % cache._header_line(), encoding="utf-8")
        argv = [*argv, "--dmax", "2", "--deltamax", "1", "--cache", str(path)]
    proc = fresh_cli(*argv, patch=patch)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(err) and proc.stderr.count("\n") == 1, proc.stderr


def test_a_command_out_of_memory_exits_1_with_one_line(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(severi, "severi_degree", exhausted)
    assert run(["severi", "--d", "3", "--delta", "1", "--beta", "3"], capsys) == (
        1, "", "out of resources: MemoryError\n")


def test_an_unmapped_exception_is_raised_not_an_exit_code(monkeypatch, capsys):
    # a bug is never exit 1 or 2: main re-raises what it does not map
    def broken(*args):
        raise KeyError("bug")

    monkeypatch.setattr(severi, "severi_degree", broken)
    with pytest.raises(KeyError, match="bug"):
        cli.main(["severi", "--d", "3", "--delta", "1", "--beta", "3"])


def test_a_valid_query_past_its_address_space_exits_1_without_a_traceback():
    # the memo of (900, 2; (1), (899)) outgrows a 200 MB address space, set
    # on the child alone; CPython 3.11 then fails to allocate a frame deep
    # in the recursion (SystemError) or raises MemoryError
    cap = 200 * 2**20
    proc = fresh_cli("severi", "--d", "900", "--delta", "2", "--alpha", "1",
                     "--beta", "899",
                     preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch("out of resources: (MemoryError|RecursionError|SystemError)\n",
                        proc.stderr), proc.stderr


def test_console_entry_point():
    # the child imports the package the suite imports, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "curvecount.cli",
         "severi", "--d", "2", "--delta", "0", "--beta", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "degree 1" in proc.stdout


def test_console_entry_point_survives_a_closed_pipe():
    # `kontsevich --max 300 | head -1`: 600 kB of output, far more than a
    # pipe holds, so the writer meets the closed pipe before it finishes
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "curvecount.cli", "kontsevich", "--max", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert first.split() == [b"1", b"1"]
    assert err == b""
