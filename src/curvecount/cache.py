"""Append-only degree cache: one JSON record per line, UTF-8.

The first line is a header carrying format-version: 1; an unknown
version rejects the whole file (never partially parsed).  Each record
stores d, delta, alpha, beta, degree, dim, genus and tool-version, with
the degree as an exact decimal string so arbitrarily large values
survive any JSON reader.  A parsed record is a DegreeRecord, which holds
a checked severi.SeveriIndex.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from functools import lru_cache
from itertools import chain, islice

from . import __version__, exact_decimals
from .severi import SeveriIndex

FORMAT_VERSION = "1"

RECORD_FIELDS = ("d", "delta", "alpha", "beta", "degree", "dim", "genus",
                 "tool-version")


class CacheError(Exception):
    """Unreadable, malformed, or wrong-version cache file."""


class CacheCorruption(Exception):
    """A cache record with an invalid index, a torn last line or a torn header."""


class DegreeRecord(namedtuple("DegreeRecord", "index degree dim genus")):
    """One cache record: an index with its degree, dimension and genus."""

    __slots__ = ()


# the bytes of json.dumps(record, sort_keys=True), the degree a decimal string
_RECORD_FORMAT = ('{"alpha": [%s], "beta": [%s], "d": %d, "degree": "%d", '
                  '"delta": %d, "dim": %d, "genus": %d, "tool-version": %s}')
_TOOL_VERSION = json.dumps(__version__)
# what json.loads raises on a bad line: JSONDecodeError or, for an int past the
# digit cap, another ValueError; RecursionError for nesting too deep to decode
_BAD_JSON = (ValueError, RecursionError)


@lru_cache(maxsize=None)
def _profile_text(profile) -> str:
    return ", ".join(map(str, profile))


def _record_line(rec: DegreeRecord) -> str:
    d, delta, alpha, beta = rec.index
    return _RECORD_FORMAT % (_profile_text(alpha), _profile_text(beta),
                             d, rec.degree, delta, rec.dim, rec.genus, _TOOL_VERSION)


def _header_line() -> str:
    return json.dumps(
        {"format-version": FORMAT_VERSION, "tool": "curvecount"}, sort_keys=True
    )


def _parse_record(line: str, lineno: int, torn: bool) -> tuple:
    """(d, delta, alpha, beta, degree, dim, genus); the caller checks the index."""
    try:
        raw = json.loads(line)
    except _BAD_JSON as exc:
        if torn:
            raise CacheCorruption("torn last line %d" % lineno) from exc
        raise CacheError("line %d: not valid JSON: %s" % (lineno, exc)) from exc
    if not isinstance(raw, dict) or set(raw) != set(RECORD_FIELDS):
        raise CacheError("line %d: expected fields %s" % (lineno, list(RECORD_FIELDS)))
    d, delta, alpha, beta, degree, dim, genus = (raw[f] for f in RECORD_FIELDS[:-1])
    # type int, so a bool, float or string is no JSON integer here
    if not (type(d) is type(delta) is type(dim) is type(genus) is int
            and type(alpha) is type(beta) is list
            and all(type(e) is int for e in alpha + beta)
            and type(degree) is str and degree.isascii() and degree.isdigit()):
        raise CacheError("line %d: malformed record: d, delta, dim, genus and the "
                         "profile entries must be JSON integers, the degree a "
                         "string of decimal digits" % lineno)
    return d, delta, tuple(alpha), tuple(beta), int(degree), dim, genus


def table_lines(table):
    """The record lines of a severi_table table in its row order, formatted one
    (d, delta) slice at a time."""
    for d, layer in enumerate(table, start=1):
        rows = [(_profile_text(alpha), _profile_text(beta), *rest)
                for alpha, beta, *rest in layer]
        for delta in range(len(layer[0][2])):
            with exact_decimals():
                lines = [_RECORD_FORMAT % (alpha, beta, d, degrees[delta], delta,
                                           dim - delta, genus - delta, _TOOL_VERSION)
                         for alpha, beta, degrees, dim, genus in rows]
            yield from lines


def _lines(path):
    """(number, line, torn) for each line of the file: lines end at "\n" alone,
    after universal newlines (JSON strings may hold other line breaks raw),
    and a torn one, the last, lacks it."""
    try:
        with open(path, encoding="utf-8") as handle:
            try:
                for lineno, line in enumerate(handle, start=1):
                    yield lineno, line.removesuffix("\n"), not line.endswith("\n")
            except UnicodeDecodeError as exc:  # count its positions from the file start
                at = handle.buffer.tell() - len(exc.object)
                exc.object = bytes(at) + exc.object
                exc.start, exc.end = exc.start + at, exc.end + at
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError("cannot read %s: %s" % (path, exc)) from exc


def _conflict(old, new, how: str) -> str:
    """'at <index>: stored <field> <old>, <how> <new>' at the first field differing."""
    d, delta, alpha, beta = new.index
    field, was, now = next(f for f in zip(old._fields, old, new) if f[1] != f[2])
    return ("at d=%d delta=%d alpha=%s beta=%s: stored %s %s, %s %s"
            % (d, delta, list(alpha), list(beta), field, was, how, now))


class _Unwritten:
    """The lines a table adds to a slice prefix of its cache, drawn once, a (d,
    delta) slice at a time (slices), when iterated or compared with a list."""

    def __init__(self, slices, count):
        self.slices, self.count = slices, count

    def __len__(self):
        return self.count

    def __iter__(self):
        return chain.from_iterable(self.slices)

    def __eq__(self, lines):
        return list(self) == lines


def check_cache(path, table) -> tuple:
    """(conflict, verified, records, fresh): the cache file at path checked
    against a severi_table table.  conflict is the first record that differs
    from the first of its index (in file order), else from the table's (in
    index order), or None; verified counts the table rows whose index the file
    has, records the file's record lines; fresh holds the other rows' lines.
    A file that is the header and then the table's first (d, delta) slices in
    order, each compared as one string, leaves the slices after them fresh, as
    does a missing or empty file.  Any other is read again a line at a time: a
    line of table_lines(table) is counted, any other parsed and its index
    checked by one SeveriIndex call.  Raises CacheError when the file is unreadable, not
    UTF-8 (reported first) or malformed (before an invalid index), and
    CacheCorruption for an invalid index (a bad shape, or delta outside
    0..d(d-1)/2) or a torn last line or header: one that lacks its newline and
    does not parse, as a crash mid-append leaves."""
    formatted, sizes = table_lines(table), [len(layer) for layer in table for _ in layer[0][2]]
    slices = ([*islice(formatted, size)] for size in sizes)  # one (d, delta) slice each
    part, verified, text = [], 0, ""
    try:
        with open(path, encoding="utf-8", newline="") as handle:  # CRLF matches no slice
            if (text := handle.readline()) == _header_line() + "\n":
                for part in slices:
                    if (text := "".join(islice(handle, len(part)))) != "\n".join(part) + "\n":
                        break
                    verified += len(part)
                else:
                    part, text = [], handle.readline()
    except FileNotFoundError:  # a new cache
        pass
    except (OSError, UnicodeDecodeError):
        text = None
    if text == "":  # the file ends at a slice boundary
        return None, verified, verified, _Unwritten(chain([part], slices), sum(sizes) - verified)
    ours = dict.fromkeys(table_lines(table), 0)  # line -> where its first copy is, or 0
    parsed, invalid, records = [], [], 0
    lines = _lines(path)
    try:
        _, line, torn = next(lines)
        try:
            header = json.loads(line)
        except _BAD_JSON as exc:
            if torn:  # a crash during the first write
                raise CacheCorruption("torn header") from exc
            raise CacheError("%s: malformed header: %s" % (path, exc)) from exc
        if not isinstance(header, dict) or "format-version" not in header:
            raise CacheError("%s: header lacks format-version" % path)
        if header["format-version"] != FORMAT_VERSION:
            raise CacheError("%s: unsupported format-version %r (want %r)"
                             % (path, header["format-version"], FORMAT_VERSION))
        with exact_decimals():
            for lineno, line, torn in lines:
                if not line.strip():
                    continue
                records += 1
                if line in ours:
                    ours[line] = ours[line] or lineno
                    continue
                d, delta, alpha, beta, degree, dim, genus = _parse_record(line, lineno, torn)
                try:
                    index = SeveriIndex(d, delta, alpha, beta)
                except ValueError:  # weight mismatch, d < 1 or a negative entry
                    index = None
                # severi_table writes no row outside 0 <= delta <= d(d-1)/2
                if index is None or not 0 <= delta <= d * (d - 1) // 2:
                    invalid.append((d, delta, list(alpha), list(beta)))
                else:
                    parsed.append((lineno, DegreeRecord(index, degree, dim, genus)))
    except CacheError:
        for _ in lines:  # a later byte that is not UTF-8 is reported instead
            pass
        raise
    with exact_decimals():  # a field may be past the digit cap
        if invalid:
            raise CacheCorruption("invalid index d=%d delta=%d alpha=%s beta=%s" % invalid[0])
        shapes = {(d, *row[:2]): row[2:] for d, layer in enumerate(table, 1)
                  for row in layer} if parsed else {}
        mine = {}  # the table's record, by its line, at each parsed index inside it
        for _, rec in parsed:
            d, delta, alpha, beta = rec.index
            degrees, dim, genus = shapes.get((d, alpha, beta), ((), 0, 0))
            if delta < len(degrees):
                row = DegreeRecord(rec.index, degrees[delta], dim - delta, genus - delta)
                mine[_record_line(row)] = row
        known = {}
        firsts = [(ours[line], row) for line, row in mine.items() if ours[line]]
        for _, rec in sorted(parsed + firsts):
            if known.setdefault(rec.index, rec) != rec:  # equal duplicates are benign
                return _conflict(known[rec.index], rec, "stored again as"), 0, records, []
        for row in sorted(mine.values()):
            if known[row.index] != row:
                return _conflict(known[row.index], row, "recomputed"), 0, records, []
    fresh = [line for line, at in ours.items() if not at and line not in mine]
    return None, len(ours) - len(fresh), records, fresh


def append_records(path, lines) -> None:
    """Append record lines, writing the header first if the file is new: a list
    in one write, check_cache's fresh a slice a write as it is formatted, then
    one flush and fsync, so a crash leaves at most a torn last line."""
    try:
        with open(path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end == 0:
                handle.write(_header_line().encode() + b"\n")
            elif lines:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    # a crash cut the last record just before its newline
                    handle.write(b"\n")
            for part in filter(None, getattr(lines, "slices", [lines])):
                handle.write(("\n".join(part) + "\n").encode())
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise CacheError("cannot write %s: %s" % (path, exc)) from exc
