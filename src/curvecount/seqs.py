"""Finite multiplicity sequences and their combinatorics.

A tangency profile is a finite sequence of nonnegative integers indexed
from 1: entry k records how many contacts of order k occur.  Sequences
are stored as plain tuples in canonical form, meaning no trailing zeros;
the empty tuple is the zero sequence, and canon alone makes it, from ints
>= 0 (operator.index).  add takes a signed summand, as in a - e_j, if the
sum stays nonnegative.  All arithmetic is exact (Python ints).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import starmap, zip_longest
from math import comb, prod


def canon(entries) -> tuple[int, ...]:
    """Canonical form: tuple with trailing zeros removed, entries ints >= 0."""
    t = tuple([operator.index(e) for e in entries])
    if any(e < 0 for e in t):
        raise ValueError("multiplicity entries must be nonnegative: %r" % (t,))
    end = len(t)
    while end and t[end - 1] == 0:
        end -= 1
    return t[:end]


def weight(s) -> int:
    """Total contact order, sum of k * s_k."""
    return sum(k * e for k, e in enumerate(s, start=1))


def add(a, b) -> tuple[int, ...]:
    """canon(a + b), the shorter padded with zeros; b may be signed, the sum
    must be nonnegative: add(a, (0, -1)) is a - e_2 and raises if a_2 = 0."""
    return canon(starmap(operator.add, zip_longest(a, b, fillvalue=0)))


def binomial(top, bot) -> int:
    """Entrywise product of binomials, prod_k C(top_k, bot_k).

    Zero whenever some bot_k exceeds top_k, so the value doubles as the
    indicator of bot <= top.
    """
    return prod(starmap(comb, zip_longest(top, bot, fillvalue=0)))


def nat_power(c) -> int:
    """prod_k k^(c_k); the empty product is 1."""
    return prod(map(pow, range(1, len(c) + 1), c))


@lru_cache(maxsize=None)
def partitions(w: int, min_size: int = 0) -> tuple[tuple[int, ...], ...]:
    """All canonical sequences of weight w and size at least min_size.

    Each is the multiplicity vector of a partition of w into at least
    min_size parts.  Ordered by the underlying part lists ascending, so
    the all-ones partition comes first and the single part w last:

        partitions(2) -> ((2,), (0, 1))
        partitions(3) -> ((3,), (1, 1), (0, 0, 1))
        partitions(3, 2) -> ((3,), (1, 1))
    """
    if w < 0:
        raise ValueError("weight must be nonnegative")

    out, parts = [], []
    stack = [[w, 1]] if w >= min_size else []  # w parts at most
    while stack:  # depth-first, no Python recursion: one [remaining, next part] per level
        remaining, p = frame = stack[-1]
        if p <= remaining and len(parts) + remaining // p >= min_size:
            frame[1] = p + 1  # else parts >= p add at most remaining // p more: too few
            parts.append(p)
            stack.append([remaining - p, p])
            continue
        if not remaining:
            vec = [0] * (parts[-1] if parts else 0)
            for part in parts:
                vec[part - 1] += 1
            out.append(canon(vec))
        stack.pop()
        del parts[-1:]
    return tuple(out)


def subsequences(a, max_weight=None) -> list[tuple[int, ...]]:
    """All canonical b <= a with weight(b) <= max_weight (None: weight(a)),
    sorted lexicographically; each b extends a shorter one by zeros and b_k."""
    left = weight(a) if max_weight is None else max_weight
    out = [((), left)] if left >= 0 else []  # (b, weight it leaves)
    for k, top in enumerate(a, start=1):
        out += [(b + (0,) * (k - 1 - len(b)) + (e,), rest - k * e)
                for b, rest in out for e in range(1, min(top, rest // k) + 1)]
    return sorted(b for b, _ in out)
