"""Cache file format: header, record shape, exact round trips."""

import json
import sys

import pytest

from curvecount import cache, severi
from curvecount.cache import CacheError, CacheRecord
from curvecount.severi import MemoStore, SeveriIndex


def records_for(d_max, delta_max):
    memo = MemoStore()
    return [
        CacheRecord.from_degree_record(rec)
        for rec in severi.severi_table(d_max, delta_max, memo)
    ]


def test_round_trip(tmp_path):
    path = tmp_path / "degrees.jsonl"
    records = records_for(3, 1)
    cache.append_records(path, records)
    assert cache.read_cache(path) == records


def test_header_line_is_pinned(tmp_path):
    path = tmp_path / "degrees.jsonl"
    cache.append_records(path, records_for(2, 1))
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first) == {"format-version": "1", "tool": "curvecount"}


def test_record_lines_are_valid_json_with_string_degree(tmp_path):
    path = tmp_path / "degrees.jsonl"
    cache.append_records(path, records_for(3, 1))
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 32  # number of valid (delta, alpha, beta) for d <= 3
    for line in lines:
        raw = json.loads(line)
        assert set(raw) == set(cache.RECORD_FIELDS)
        assert isinstance(raw["degree"], str)
        int(raw["degree"])


def test_append_preserves_existing_records(tmp_path):
    path = tmp_path / "degrees.jsonl"
    first, second = records_for(2, 1), records_for(3, 1)[10:]
    cache.append_records(path, first)
    cache.append_records(path, second)
    assert cache.read_cache(path) == first + second
    # exactly one header line
    text = path.read_text(encoding="utf-8")
    assert text.count('"format-version"') == 1


def test_huge_degree_survives(tmp_path):
    path = tmp_path / "degrees.jsonl"
    big = 10**40 + 7
    record = CacheRecord(
        d=9, delta=0, alpha=(), beta=(9,), degree=big, dim=20, genus=28,
        tool_version="0.0.0",
    )
    cache.append_records(path, [record])
    (loaded,) = cache.read_cache(path)
    assert loaded.degree == big
    assert isinstance(json.loads(path.read_text().splitlines()[1])["degree"], str)


def test_degree_past_int_str_digit_cap_survives(tmp_path):
    # 5001 digits, over Python's default 4300-digit int<->str cap
    path = tmp_path / "degrees.jsonl"
    big = 10**5000 + 7
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    record = CacheRecord(
        d=9, delta=0, alpha=(), beta=(9,), degree=big, dim=20, genus=28,
        tool_version="0.0.0",
    )
    cache.append_records(path, [record])
    (loaded,) = cache.read_cache(path)
    assert loaded.degree == big
    assert ('"degree": "1' + "0" * 4999 + '7"') in path.read_text()
    # the cap is lifted only inside the cache calls
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_record_key_reconstructs_index():
    record = records_for(2, 1)[0]
    index = record.key()
    assert isinstance(index, SeveriIndex)
    assert (index.d, index.delta) == (record.d, record.delta)


def test_missing_file_raises(tmp_path):
    with pytest.raises(CacheError):
        cache.read_cache(tmp_path / "absent.jsonl")


def test_empty_file_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CacheError):
        cache.read_cache(path)


def test_unknown_format_version_rejected_whole(tmp_path):
    path = tmp_path / "future.jsonl"
    lines = [json.dumps({"format-version": "2", "tool": "curvecount"})]
    lines += [record.to_json() for record in records_for(2, 0)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CacheError, match="format-version"):
        cache.read_cache(path)


def test_header_without_version_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"tool": "curvecount"}) + "\n", encoding="utf-8")
    with pytest.raises(CacheError):
        cache.read_cache(path)


def test_malformed_record_line_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    cache.append_records(path, records_for(2, 0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
    with pytest.raises(CacheError, match="not valid JSON"):
        cache.read_cache(path)


def test_wrong_fields_raise(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = json.loads(records_for(2, 0)[0].to_json())
    del record["genus"]
    path.write_text(
        cache._header_line() + "\n" + json.dumps(record) + "\n", encoding="utf-8"
    )
    with pytest.raises(CacheError, match="expected fields"):
        cache.read_cache(path)


def test_non_numeric_degree_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = json.loads(records_for(2, 0)[0].to_json())
    record["degree"] = "twelve"
    path.write_text(
        cache._header_line() + "\n" + json.dumps(record) + "\n", encoding="utf-8"
    )
    with pytest.raises(CacheError, match="malformed record"):
        cache.read_cache(path)


def test_blank_lines_are_tolerated(tmp_path):
    path = tmp_path / "gaps.jsonl"
    records = records_for(2, 1)
    cache.append_records(path, records)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n")
    assert cache.read_cache(path) == records
