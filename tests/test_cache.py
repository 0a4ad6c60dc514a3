"""Cache file format: header, record shape, exact round trips."""

import json
import sys

import pytest

from curvecount import __version__, cache, severi
from curvecount.cache import CacheCorruption, CacheError, DegreeRecord
from curvecount.severi import SeveriIndex

from helpers import table_rows


def records_for(d_max, delta_max):
    return table_rows(severi.severi_table(d_max, delta_max))


def append(path, records):
    """append_records with the lines of these records."""
    with cache.exact_decimals():
        cache.append_records(path, [cache._record_line(rec) for rec in records])


def write_lines(path, lines, end="\n"):
    path.write_text("\n".join(lines) + end, encoding="utf-8")


def respell(path):
    """Rewrite each record line as another tool version would, so that no line
    is byte for byte a table line and check_cache parses every one."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    write_lines(path, [header] + [json.dumps(dict(json.loads(line), **{"tool-version": "0"}))
                                  for line in lines])


def test_round_trip(tmp_path):
    path = tmp_path / "degrees.jsonl"
    table = severi.severi_table(3, 1)
    append(path, table_rows(table))
    assert cache.check_cache(path, table) == (None, 32, 32, [])
    respell(path)  # each line parses back to the table's own record
    assert cache.check_cache(path, table) == (None, 32, 32, [])


def test_header_line_is_pinned(tmp_path):
    path = tmp_path / "degrees.jsonl"
    append(path, records_for(2, 1))
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first) == {"format-version": "1", "tool": "curvecount"}


def test_record_lines_are_valid_json_with_string_degree(tmp_path):
    path = tmp_path / "degrees.jsonl"
    append(path, records_for(3, 1))
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
    append(path, first)
    append(path, second)
    # the records of both appends, two of them identical duplicates
    assert len({rec.index for rec in first + second}) == 32
    assert cache.check_cache(path, severi.severi_table(3, 1)) == (
        None, 32, len(first) + len(second), [])
    # exactly one header line
    text = path.read_text(encoding="utf-8")
    assert text.count('"format-version"') == 1


def test_huge_degree_survives(tmp_path):
    path = tmp_path / "degrees.jsonl"
    big = 10**40 + 7
    record = DegreeRecord(SeveriIndex(9, 0, (), (9,)), big, 20, 28)
    append(path, [record])
    conflict, _, records, _ = cache.check_cache(path, severi.severi_table(9, 0))
    assert (conflict, records) == (
        "at d=9 delta=0 alpha=[] beta=[9]: stored degree %d, recomputed 1" % big, 1)
    assert isinstance(json.loads(path.read_text().splitlines()[1])["degree"], str)


def test_degree_past_int_str_digit_cap_survives(tmp_path):
    # 5001 digits, over Python's default 4300-digit int<->str cap
    path = tmp_path / "degrees.jsonl"
    big = 10**5000 + 7
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    record = DegreeRecord(SeveriIndex(9, 0, (), (9,)), big, 20, 28)
    append(path, [record])
    conflict, _, records, _ = cache.check_cache(path, severi.severi_table(9, 0))
    assert (conflict, records) == ("at d=9 delta=0 alpha=[] beta=[9]: stored degree 1"
                                   + "0" * 4999 + "7, recomputed 1", 1)
    assert ('"degree": "1' + "0" * 4999 + '7"') in path.read_text()
    # the cap is lifted only inside the cache calls
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_record_key_reconstructs_index(tmp_path):
    # a hand-written non-canonical profile reads back as the canonical index
    path = tmp_path / "degrees.jsonl"
    table = severi.severi_table(3, 1)
    (canonical,) = [r for r in table_rows(table) if r.index == (3, 1, (), (3,))]
    raw = {"d": 3, "delta": 1, "alpha": [0, 0, 0], "beta": [3, 0], "dim": 8, "genus": 0,
           "tool-version": __version__}
    write_lines(path, [cache._header_line(), json.dumps(dict(raw, degree="12"))])
    conflict, verified, records, fresh = cache.check_cache(path, table)
    assert (conflict, verified, records, len(fresh)) == (None, 1, 1, 31)
    assert cache._record_line(canonical) not in fresh
    write_lines(path, [cache._header_line(), json.dumps(dict(raw, degree="13"))])
    assert cache.check_cache(path, table)[0] == (
        "at d=3 delta=1 alpha=[] beta=[3]: stored degree 13, recomputed 12")


def test_one_raw_shape_reads_back_at_each_delta(tmp_path):
    # records of one raw (d, alpha, beta) each read back as the canonical
    # index at their own delta
    path = tmp_path / "degrees.jsonl"
    raw = {"d": 3, "alpha": [], "beta": [3, 0], "tool-version": __version__}
    write_lines(path, [
        cache._header_line(),
        json.dumps({**raw, "delta": 0, "degree": "1", "dim": 9, "genus": 1}),
        json.dumps({**raw, "delta": 1, "degree": "12", "dim": 8, "genus": 0}),
    ])
    conflict, verified, records, fresh = cache.check_cache(path, severi.severi_table(3, 1))
    assert (conflict, verified, records, len(fresh)) == (None, 2, 2, 30)
    assert cache._record_line(DegreeRecord(SeveriIndex(3, 0, (), (3,)), 1, 9, 1)) not in fresh
    assert cache._record_line(DegreeRecord(SeveriIndex(3, 1, (), (3,)), 12, 8, 0)) not in fresh


def test_record_lines_equal_sorted_json_dumps():
    for record in records_for(4, 3):
        line = cache._record_line(record)
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_table_lines_are_the_record_lines_of_the_rows_in_order():
    layers = severi.severi_table(6, 15)
    assert list(cache.table_lines(layers)) == [
        cache._record_line(rec) for rec in table_rows(layers)]


def test_table_lines_formats_one_slice_at_a_time(monkeypatch):
    # each line is drawn when its (d, delta) slice, and no later one, is formatted
    formats = []

    class Counting(str):
        def __mod__(self, values):
            formats.append(values)
            return str.__mod__(self, values)

    monkeypatch.setattr(cache, "_RECORD_FORMAT", Counting(cache._RECORD_FORMAT))
    layers = severi.severi_table(5, 6)
    slice_ends = []
    for layer in layers:
        for _ in layer[0][2]:
            slice_ends += [len(slice_ends) + len(layer)] * len(layer)
    drawn = [len(formats) for _ in cache.table_lines(layers)]
    assert drawn == slice_ends
    assert len(set(drawn)) > len(layers)  # more slices than layers


def test_lines_matched_by_their_bytes_read_as_parsed(tmp_path, monkeypatch):
    # the table's own lines are counted unparsed; the other lines parse as
    # they do against an empty table, and verify against the table's records
    path = tmp_path / "degrees.jsonl"
    layers = severi.severi_table(6, 15)
    table = table_rows(layers)
    append(path, table)
    (assigned,) = [r for r in table if r.index == (4, 1, (1,), (1, 1))]
    raw = json.loads(cache._record_line(assigned))
    respelled = dict(reversed(raw.items()), alpha=raw["alpha"] + [0])
    other_version = dict(json.loads(cache._record_line(table[-1])), **{"tool-version": "0"})
    (beyond,) = [r for r in records_for(7, 15) if r.index == (7, 15, (), (7,))]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(cache._record_line(table[0]) + "\n")
        handle.write(json.dumps(respelled, separators=(",", ":")) + "\n")
        handle.write(json.dumps(other_version) + "\n")
        handle.write(cache._record_line(beyond) + "\n")
    parsed = []

    def logged(line, lineno, torn, _inner=cache._parse_record):
        parsed.append(lineno)
        return _inner(line, lineno, torn)

    monkeypatch.setattr(cache, "_parse_record", logged)
    records = len(table) + 4
    assert cache.check_cache(path, ()) == (None, 0, records, [])
    assert parsed == list(range(2, records + 2))
    parsed.clear()
    assert cache.check_cache(path, layers) == (None, len(table), records, [])
    assert parsed == [records - 1, records, records + 1]


def test_record_line_parses_back_to_its_record():
    past_cap = DegreeRecord(SeveriIndex(9, 0, (), (9,)), 10**5000 + 7, 20, 28)
    with cache.exact_decimals():
        for record in records_for(6, 15) + [past_cap]:
            d, delta, alpha, beta, degree, dim, genus = cache._parse_record(
                cache._record_line(record), 2, False
            )
            assert ((d, delta, alpha, beta), degree, dim, genus) == record


def test_missing_file_raises(tmp_path):
    # nothing to raise: a missing file is a new cache, with no records
    table = severi.severi_table(2, 1)
    assert cache.check_cache(tmp_path / "absent.jsonl", table) == (
        None, 0, 0, list(cache.table_lines(table)))


def test_file_that_is_not_utf8_raises(tmp_path):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(cache._header_line().encode() + b"\n\xff\n")
    with pytest.raises(CacheError, match="^cannot read .*utf-8"):
        cache.check_cache(path, ())


def test_a_byte_that_is_not_utf8_is_placed_in_the_file_and_reported_first(tmp_path):
    # past the first chunk the text reader decodes, and after a malformed line
    path = tmp_path / "binary.jsonl"
    append(path, records_for(5, 10))
    data = path.read_bytes()
    at = len(data) - 3
    assert at > 3 * 8192
    header = data.index(b"\n") + 1
    path.write_bytes(data[:header] + b"not json\n" + data[header:at] + b"\xff" + data[at:])
    with pytest.raises(CacheError) as caught:
        cache.check_cache(path, ())
    assert str(caught.value) == (
        "cannot read %s: 'utf-8' codec can't decode byte 0xff in position %d: "
        "invalid start byte" % (path, at + 9))


def test_empty_file_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    # nothing to raise: a crash before the header's write leaves a new cache
    table = severi.severi_table(2, 1)
    assert cache.check_cache(path, table) == (None, 0, 0, list(cache.table_lines(table)))


def test_unknown_format_version_rejected_whole(tmp_path):
    path = tmp_path / "future.jsonl"
    lines = [json.dumps({"format-version": "2", "tool": "curvecount"})]
    lines += [cache._record_line(record) for record in records_for(2, 0)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CacheError, match="format-version"):
        cache.check_cache(path, ())


def test_header_without_version_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"tool": "curvecount"}) + "\n", encoding="utf-8")
    with pytest.raises(CacheError):
        cache.check_cache(path, ())


def test_malformed_record_line_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    append(path, records_for(2, 0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
    with pytest.raises(CacheError, match="not valid JSON"):
        cache.check_cache(path, ())


def test_wrong_fields_raise(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = json.loads(cache._record_line(records_for(2, 0)[0]))
    del record["genus"]
    path.write_text(
        cache._header_line() + "\n" + json.dumps(record) + "\n", encoding="utf-8"
    )
    with pytest.raises(CacheError, match="expected fields"):
        cache.check_cache(path, ())


def test_non_numeric_degree_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = json.loads(cache._record_line(records_for(2, 0)[0]))
    record["degree"] = "twelve"
    path.write_text(
        cache._header_line() + "\n" + json.dumps(record) + "\n", encoding="utf-8"
    )
    with pytest.raises(CacheError, match="malformed record"):
        cache.check_cache(path, ())


@pytest.mark.parametrize(
    "fields",
    [
        {"d": 1.9},
        {"delta": False},
        {"beta": [True]},
        {"dim": 2.5},
        {"degree": 1.0},
    ],
    ids=["float-d", "bool-delta", "bool-profile-entry", "float-dim", "float-degree"],
)
def test_non_integer_field_is_malformed(tmp_path, fields):
    # the d = 1 line N(1, 0; (), (1)) = 1; int() would coerce each of these
    path = tmp_path / "bad.jsonl"
    record = json.loads(cache._record_line(records_for(1, 0)[0]))
    assert (record["d"], record["beta"], record["degree"]) == (1, [1], "1")
    record.update(fields)
    write_lines(path, [cache._header_line(), json.dumps(record)])
    with pytest.raises(CacheError, match="^line 2: malformed record: "):
        cache.check_cache(path, ())


def test_blank_lines_are_tolerated(tmp_path):
    path = tmp_path / "gaps.jsonl"
    records = records_for(2, 1)
    append(path, records)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n")
    assert cache.check_cache(path, severi.severi_table(2, 1)) == (None, 12, 12, [])


def test_record_line_is_pinned():
    (record,) = [r for r in records_for(3, 1) if r.index == (3, 1, (), (3,))]
    assert cache._record_line(record) == (
        '{"alpha": [], "beta": [3], "d": 3, "degree": "12", "delta": 1, '
        '"dim": 8, "genus": 0, "tool-version": "%s"}' % __version__
    )


@pytest.mark.parametrize(
    "fields",
    [
        {"alpha": [1], "beta": [3]},  # weight 4 for d = 3
        {"d": 0, "alpha": [], "beta": []},
        {"alpha": [-1], "beta": [4]},
        {"delta": -1},
        {"delta": 4},  # past d(d-1)/2 = 3 nodes
    ],
)
def test_invalid_index_is_corruption(tmp_path, fields):
    path = tmp_path / "bad.jsonl"
    record = json.loads(cache._record_line(records_for(3, 1)[-1]))
    record.update(fields)
    write_lines(path, [cache._header_line(), json.dumps(record)])
    with pytest.raises(CacheCorruption, match="^invalid index d="):
        cache.check_cache(path, ())


def test_first_invalid_index_is_reported(tmp_path):
    path = tmp_path / "bad.jsonl"
    first, second = (json.loads(cache._record_line(r)) for r in records_for(3, 1)[-2:])
    first["beta"], second["beta"] = [7], [8]
    write_lines(path, [cache._header_line(), json.dumps(first), json.dumps(second)])
    with pytest.raises(CacheCorruption) as caught:
        cache.check_cache(path, ())
    assert str(caught.value) == "invalid index d=%d delta=%d alpha=%s beta=[7]" % (
        first["d"], first["delta"], first["alpha"]
    )


def test_malformed_record_is_reported_before_an_invalid_index(tmp_path):
    path = tmp_path / "bad.jsonl"
    bad_index = json.loads(cache._record_line(records_for(3, 1)[-1]))
    bad_index["beta"] = [4]
    write_lines(path, [cache._header_line(), json.dumps(bad_index), "not json"])
    with pytest.raises(CacheError, match="line 3: not valid JSON"):
        cache.check_cache(path, ())


@pytest.mark.parametrize("cut", [1, 20, -2])
def test_torn_last_line_is_corruption(tmp_path, cut):
    path = tmp_path / "degrees.jsonl"
    append(path, records_for(3, 1))
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[:last + cut] if cut > 0 else data[:cut])
    with pytest.raises(CacheCorruption, match="^torn last line 33$"):
        cache.check_cache(path, ())


@pytest.mark.parametrize("cut", [1, 20, -1])
def test_torn_header_is_corruption(tmp_path, cut):
    path = tmp_path / "degrees.jsonl"
    path.write_text(cache._header_line()[:cut], encoding="utf-8")
    with pytest.raises(CacheCorruption, match="^torn header$"):
        cache.check_cache(path, ())


def test_malformed_header_with_its_newline_is_still_an_error(tmp_path):
    path = tmp_path / "degrees.jsonl"
    write_lines(path, [cache._header_line()[:20]])
    with pytest.raises(CacheError, match="malformed header"):
        cache.check_cache(path, ())


# json.loads raises RecursionError on this, not JSONDecodeError
DEEP = "[" * 100000


def test_deeply_nested_record_line_raises(tmp_path):
    path = tmp_path / "deep.jsonl"
    write_lines(path, [cache._header_line(), DEEP])
    with pytest.raises(CacheError, match="^line 2: not valid JSON: "):
        cache.check_cache(path, ())


def test_deeply_nested_header_raises(tmp_path):
    path = tmp_path / "deep.jsonl"
    write_lines(path, [DEEP])
    with pytest.raises(CacheError, match="malformed header"):
        cache.check_cache(path, ())


def test_deeply_nested_torn_last_line_is_corruption(tmp_path):
    path = tmp_path / "deep.jsonl"
    write_lines(path, [cache._header_line(), DEEP], end="")
    with pytest.raises(CacheCorruption, match="^torn last line 2$"):
        cache.check_cache(path, ())


def test_header_with_a_long_integer_raises(tmp_path):
    # 5,000 digits: past the int-str digit cap, which the library leaves on
    path = tmp_path / "long.jsonl"
    write_lines(path, ['{"format-version": %s}' % ("9" * 5000)])
    with pytest.raises(CacheError):
        cache.check_cache(path, ())


def test_invalid_index_with_a_long_integer_is_corruption(tmp_path):
    path = tmp_path / "long.jsonl"
    line = cache._record_line(records_for(1, 0)[0])
    assert line.count('"d": 1,') == 1
    write_lines(path, [cache._header_line(), line.replace('"d": 1,', '"d": %s,' % ("9" * 5000))])
    with pytest.raises(CacheCorruption, match="^invalid index d=9999"):
        cache.check_cache(path, ())


def test_append_after_a_lost_final_newline_starts_a_new_line(tmp_path):
    path = tmp_path / "degrees.jsonl"
    first, second = records_for(2, 1), records_for(3, 1)[12:]
    append(path, first)
    path.write_bytes(path.read_bytes()[:-1])
    # the last record is whole: by its bytes, and parsed
    assert cache.check_cache(path, severi.severi_table(2, 1)) == (None, 12, 12, [])
    assert cache.check_cache(path, ()) == (None, 0, 12, [])
    append(path, second)
    assert cache.check_cache(path, severi.severi_table(3, 1)) == (
        None, 32, len(first) + len(second), [])


def test_append_fsyncs_each_batch(tmp_path, monkeypatch):
    path = tmp_path / "degrees.jsonl"
    append(path, records_for(2, 1))
    synced = []
    monkeypatch.setattr(cache.os, "fsync", synced.append)
    size = path.stat().st_size
    append(path, records_for(3, 1)[12:])
    assert len(synced) == 1
    assert path.stat().st_size > size
