"""Span tracer for curvecount, installed in a child process by child.py.

Tracer.install wraps the public functions (and the public methods, plus
construction and arithmetic dunders, of the public classes) of each
curvecount module.  Every call opens a span with name, start, end and
parent.  Self time is the span's duration minus the time its child spans
cover.  The first SPAN_CAP spans of the process are kept in full; every
span, kept or not, counts in the per-name aggregates.  Hooks on a few
functions count work done (terms, memo hits, records) where it happens;
their own cost is charged to no layer.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from itertools import product

from checks import partition_count, profile_weight

LAYERS = ("seqs", "severi", "kontsevich", "series", "genfunc", "classical",
          "cache", "cli")
# Dunder methods that are layer boundaries (construction and arithmetic);
# __eq__/__hash__ are left alone, they are dict plumbing, not work.
BOUNDARY_DUNDERS = ("__post_init__", "__add__", "__sub__", "__mul__",
                    "__rmul__", "__pow__")
# Spans kept in full per process; later spans still count in every aggregate.
SPAN_CAP = 20000


def _group(module: str, qualname: str) -> str:
    if module == "severi":
        if qualname.startswith("SeveriIndex."):
            return "severi.index"
        if qualname in ("first_sum_terms", "second_sum_terms"):
            return "severi.terms"
        return "severi.degree"
    return module


def _digits(n: int) -> int:
    """Decimal digits of |n| without str(), which the int-str cap may refuse."""
    n = abs(n)
    k = max(1, int(n.bit_length() * 0.30102999566398120))
    while 10 ** k <= n:
        k += 1
    while k > 1 and 10 ** (k - 1) > n:
        k -= 1
    return k


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.stats: list[list] = []  # per name: [calls, inclusive_s, self_s]
        self.stack: list[list] = []  # open spans: [child_s, span_id]
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.next_id = 0
        self.counters = defaultdict(int)
        self.layer_indices = defaultdict(int)
        self.layer_terms = defaultdict(int)
        self.memos = {}
        self.rational = {}
        self._candidates = {}

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module: str, qualname: str, fn, hook=(None, None)):
        """fn wrapped in a span; hook is (before(args) -> state, after(args, result, state))."""
        name_id = len(self.names)
        self.names.append("%s.%s" % (module, qualname))
        self.groups.append(_group(module, qualname))
        stats = [0, 0.0, 0.0]
        self.stats.append(stats)
        stack, spans, clock, tracer = self.stack, self.spans, time.perf_counter, self
        before, after = hook

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            parent = stack[-1] if stack else None
            record = None
            if span_id < SPAN_CAP:
                record = [span_id, parent[1] if parent else -1, name_id, 0.0, 0.0]
                spans.append(record)
            hooked = clock() if before else 0.0
            state = before(args) if before else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if record is not None:
                    record[3], record[4] = start, end
            if after:
                after(args, result, state)
            if parent is not None and (before or after):
                # counter bookkeeping is tracing overhead, not the caller's self time
                parent[0] += (start - hooked if before else 0.0) + (clock() - end if after else 0.0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        hooks = {
            ("severi", "first_sum_terms"): (None, self._first_terms),
            ("severi", "second_sum_terms"): (None, self._second_terms),
            ("severi", "MemoStore.get"): (None, self._memo_get),
            ("severi", "MemoStore.put"): (None, self._memo_put),
            ("kontsevich", "rational_count"): (self._rational_computes, self._rational),
            ("series", "BivariateSeries.__mul__"): (None, self._series_mul),
            ("genfunc", "severi_generating_function"): (None, self._genfunc),
            ("cache", "read_cache"): (None, self._cache_read),
            ("cache", "append_records"): (self._file_size, self._cache_append),
        }
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(short, obj, hooks)
                elif callable(obj):
                    setattr(mod, name, self.wrap(short, name, obj,
                                                  hooks.get((short, name), (None, None))))

    def _install_class(self, short, cls, hooks):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in BOUNDARY_DUNDERS:
                continue
            qual = "%s.%s" % (cls.__name__, name)
            hook = hooks.get((short, qual), (None, None))
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.wrap(short, qual, attr.__func__, hook)))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, self.wrap(short, qual, attr, hook))

    # -- counter hooks -----------------------------------------------------

    def _first_terms(self, args, result, state):
        self.counters["severi.terms.first"] += len(result)
        self.layer_terms[args[0].d] += len(result)

    def _second_terms(self, args, result, state):
        index = args[0]
        self.counters["severi.terms.second"] += len(result)
        self.layer_terms[index.d] += len(result)
        walked = self._candidates.get(index.alpha)
        if walked is None:
            # (alpha', c) pairs walked: c runs over the partitions of the budget
            # d - 1 - weight(alpha') - weight(beta), with weight(beta) = d - weight(alpha)
            budget = profile_weight(index.alpha) - 1
            walked = sum(partition_count(budget - profile_weight(a_prime))
                         for a_prime in product(*(range(e + 1) for e in index.alpha)))
            self._candidates[index.alpha] = walked
        self.counters["severi.terms.second_candidates"] += walked

    def _memo_get(self, args, result, state):
        self.counters["severi.memo.misses" if result is None else "severi.memo.hits"] += 1

    def _memo_put(self, args, result, state):
        self.memos[id(args[0])] = args[0]
        self.layer_indices[args[1].d] += 1

    def _rational_computes(self, args):
        d = args[0]
        table = args[1] if len(args) > 1 else None
        return d >= 2 and (table is None or d not in table)

    def _rational(self, args, result, computes):
        d = args[0]
        self.rational[d] = result
        if computes:
            # N(d) takes d - 1 products N(a) * N(d - a); the operand size is
            # computed from the bit lengths of the values, not measured
            bits = [self.rational[a].bit_length() for a in range(1, d)]
            self.counters["kontsevich.terms"] += d - 1
            self.counters["kontsevich.operand_bits"] += 2 * sum(bits)

    def _series_mul(self, args, result, state):
        self.counters["series.mul_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)

    def _genfunc(self, args, result, state):
        self.counters["genfunc.monomials"] += len(result.terms)

    def _cache_read(self, args, result, state):
        self.counters["cache.records_read"] += len(result)

    def _file_size(self, args):
        return os.path.getsize(args[0]) if os.path.exists(args[0]) else 0

    def _cache_append(self, args, result, size_before):
        self.counters["cache.records_appended"] += len(args[1])
        self.counters["cache.bytes_written"] += self._file_size(args) - size_before

    # -- output ------------------------------------------------------------

    def report(self) -> dict:
        return {
            "stats": {name: [group] + stats
                      for name, group, stats in zip(self.names, self.groups, self.stats)},
            "counters": dict(self.counters),
            "memo_entries": sum(len(memo) for memo in self.memos.values()),
            "layer_indices": dict(self.layer_indices),
            "layer_terms": dict(self.layer_terms),
            "max_digits": _digits(max(self.rational.values())) if self.rational else 0,
            "names": self.names,
            "spans": self.spans,
            "span_count": self.next_id,
        }
