"""Append-only degree cache: one JSON record per line, UTF-8.

The first line is a header carrying format-version: 1; an unknown
version rejects the whole file (never partially parsed).  Each record
stores d, delta, alpha, beta, degree, dim, genus and tool-version, with
the degree as an exact decimal string so arbitrarily large values
survive any JSON reader.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import __version__
from .severi import DegreeRecord, SeveriIndex

FORMAT_VERSION = "1"

RECORD_FIELDS = ("d", "delta", "alpha", "beta", "degree", "dim", "genus",
                 "tool-version")


class CacheError(Exception):
    """Unreadable, malformed, or wrong-version cache file."""


@contextmanager
def exact_decimals():
    """Lift Python's int<->str digit cap (absent before 3.10.7) inside the
    block and restore it after, so counts of any size convert exactly."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@dataclass(frozen=True)
class CacheRecord:
    d: int
    delta: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    degree: int
    dim: int
    genus: int
    tool_version: str

    @classmethod
    def from_degree_record(cls, rec: DegreeRecord) -> "CacheRecord":
        return cls(
            d=rec.index.d,
            delta=rec.index.delta,
            alpha=rec.index.alpha,
            beta=rec.index.beta,
            degree=rec.degree,
            dim=rec.dim,
            genus=rec.genus,
            tool_version=__version__,
        )

    def key(self) -> SeveriIndex:
        return SeveriIndex(self.d, self.delta, self.alpha, self.beta)

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "delta": self.delta,
                "alpha": list(self.alpha),
                "beta": list(self.beta),
                "degree": str(self.degree),
                "dim": self.dim,
                "genus": self.genus,
                "tool-version": self.tool_version,
            },
            sort_keys=True,
        )


def _header_line() -> str:
    return json.dumps(
        {"format-version": FORMAT_VERSION, "tool": "curvecount"}, sort_keys=True
    )


def _parse_record(line: str, lineno: int) -> CacheRecord:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CacheError("line %d: not valid JSON: %s" % (lineno, exc)) from exc
    if not isinstance(raw, dict) or set(raw) != set(RECORD_FIELDS):
        raise CacheError("line %d: expected fields %s" % (lineno, list(RECORD_FIELDS)))
    try:
        return CacheRecord(
            d=int(raw["d"]),
            delta=int(raw["delta"]),
            alpha=tuple(int(e) for e in raw["alpha"]),
            beta=tuple(int(e) for e in raw["beta"]),
            degree=int(raw["degree"]),  # exact decimal string
            dim=int(raw["dim"]),
            genus=int(raw["genus"]),
            tool_version=str(raw["tool-version"]),
        )
    except (TypeError, ValueError) as exc:
        raise CacheError("line %d: malformed record: %s" % (lineno, exc)) from exc


def read_cache(path) -> list[CacheRecord]:
    """All records of an existing cache file; raises CacheError when invalid."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CacheError("cannot read %s: %s" % (path, exc)) from exc
    if not lines:
        raise CacheError("%s: empty file, missing header" % path)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CacheError("%s: malformed header: %s" % (path, exc)) from exc
    if not isinstance(header, dict) or "format-version" not in header:
        raise CacheError("%s: header lacks format-version" % path)
    if header["format-version"] != FORMAT_VERSION:
        raise CacheError(
            "%s: unsupported format-version %r (want %r)"
            % (path, header["format-version"], FORMAT_VERSION)
        )
    with exact_decimals():
        return [
            _parse_record(line, lineno)
            for lineno, line in enumerate(lines[1:], start=2)
            if line.strip()
        ]


def append_records(path, records) -> None:
    """Append records, writing the header first when the file is new."""
    try:
        with open(path, "a", encoding="utf-8") as handle, exact_decimals():
            if handle.tell() == 0:
                handle.write(_header_line() + "\n")
            for record in records:
                handle.write(record.to_json() + "\n")
    except OSError as exc:
        raise CacheError("cannot write %s: %s" % (path, exc)) from exc
