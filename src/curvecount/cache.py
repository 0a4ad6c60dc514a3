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


def read_cache(path, table=()) -> list:
    """Every record of a cache file, in file order, none if it is missing or
    empty (as a crash before append_records' first write leaves it): a line
    that table_lines(table) yields as the line itself, unparsed, and every
    other line parsed into a DegreeRecord with a checked canonical index.
    Lines end at "\n" alone; JSON strings may hold other line breaks raw.
    Raises CacheError when the file is unreadable, not UTF-8 or malformed,
    and CacheCorruption for an invalid index (a bad shape, or delta outside
    0..d(d-1)/2) or a torn last line: one that lacks its newline and does
    not parse, as a crash mid-append leaves (a torn header when it is the
    only line).
    A malformed line anywhere is reported before an invalid index.
    """
    if not os.path.exists(path) or not os.path.getsize(path):
        return []
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError("cannot read %s: %s" % (path, exc)) from exc
    lines = text.split("\n")
    torn_lineno = len(lines) if lines[-1] else None
    del text  # the lines hold every byte again; free the copy before parsing
    try:
        header = json.loads(lines[0])
    except _BAD_JSON as exc:
        if torn_lineno == 1:  # a crash during the first write
            raise CacheCorruption("torn header") from exc
        raise CacheError("%s: malformed header: %s" % (path, exc)) from exc
    if not isinstance(header, dict) or "format-version" not in header:
        raise CacheError("%s: header lacks format-version" % path)
    if header["format-version"] != FORMAT_VERSION:
        raise CacheError(
            "%s: unsupported format-version %r (want %r)"
            % (path, header["format-version"], FORMAT_VERSION)
        )
    records = []
    invalid = []
    with exact_decimals():
        # keyed by the file's own strings: the table's lines are only marks
        known = dict.fromkeys(lines)
        known.update((line, True) for line in table_lines(table) if line in known)
        for lineno, line in enumerate(lines[1:], start=2):
            if known[line]:
                records.append(line)
                continue
            if not line.strip():
                continue
            d, delta, alpha, beta, degree, dim, genus = _parse_record(
                line, lineno, lineno == torn_lineno
            )
            try:
                index = SeveriIndex(d, delta, alpha, beta)
            except ValueError:  # weight mismatch, d < 1 or a negative entry
                index = None
            # severi_table writes no row outside 0 <= delta <= d(d-1)/2
            if index is None or not 0 <= delta <= d * (d - 1) // 2:
                invalid.append((d, delta, list(alpha), list(beta)))
                continue
            records.append(DegreeRecord(index, degree, dim, genus))
        if invalid:  # inside the block: a field may be past the digit cap
            raise CacheCorruption(
                "invalid index d=%d delta=%d alpha=%s beta=%s" % invalid[0]
            )
    return records


def _conflict(old, new, how: str) -> str:
    """'at <index>: stored <field> <old>, <how> <new>' at the first field differing."""
    d, delta, alpha, beta = new.index
    field, was, now = next(f for f in zip(old._fields, old, new) if f[1] != f[2])
    return ("at d=%d delta=%d alpha=%s beta=%s: stored %s %s, %s %s"
            % (d, delta, list(alpha), list(beta), field, was, how, now))


def check_records(table, records) -> tuple:
    """(conflict, verified, fresh) for what read_cache(path, table) read, table
    lines standing for the table's records: the first record that differs from
    the first of its index or from the table's, else None; then the number of
    table rows whose index the cache has, and the lines of the others."""
    done = {rec for rec in records if type(rec) is str}
    parsed = [rec for rec in records if type(rec) is not str]
    if parsed:
        shapes = {(d, *row[:2]): row[2:] for d, layer in enumerate(table, 1) for row in layer}
        # the table's record, by its line, at each index of a parsed record inside it
        ours = {_record_line(mine): mine for mine in (
            DegreeRecord(rec.index, degrees[delta], dim - delta, genus - delta)
            for rec in parsed
            for (d, delta, alpha, beta) in [rec.index]
            for degrees, dim, genus in [shapes.get((d, alpha, beta), ((), 0, 0))]
            if delta < len(degrees))}
        known = {}
        for rec in filter(None, (ours.get(r) if type(r) is str else r for r in records)):
            if known.setdefault(rec.index, rec) != rec:  # equal duplicates are benign
                return _conflict(known[rec.index], rec, "stored again as"), 0, []
        for mine in sorted(ours.values()):
            if known[mine.index] != mine:
                return _conflict(known[mine.index], mine, "recomputed"), 0, []
        done.update(ours)
    rows = sum(len(layer) * len(layer[0][2]) for layer in table)
    return None, len(done), [line for line in table_lines(table)
                             if line not in done] if len(done) < rows else []


def append_records(path, lines) -> None:
    """Append record lines (from table_lines), writing the header first if the
    file is new: whole lines in batches, then one flush and fsync, so a crash
    leaves at most a torn last line, which read_cache reports."""
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
            for start in range(0, len(lines), 2048):  # whole lines, 2048 a write
                handle.write(("\n".join(lines[start:start + 2048]) + "\n").encode())
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise CacheError("cannot write %s: %s" % (path, exc)) from exc
