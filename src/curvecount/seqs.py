"""Finite multiplicity sequences, their combinatorics and the term tables.

A tangency profile is a finite sequence of nonnegative integers indexed
from 1: entry k records how many contacts of order k occur.  Sequences
are stored as plain tuples in canonical form, meaning no trailing zeros;
the empty tuple is the zero sequence, and canon alone makes it, from ints
>= 0 (operator.index).  add takes a signed summand, as in a - e_j, if the
sum stays nonnegative.  All arithmetic is exact (Python ints).

The term tables of the Caporaso-Harris recursion (module severi) are cached
here, one tuple per profile (share): raisings and lowerings for the first
sum, assigned_splits and degenerations for the second, nodeless for delta =
0.  Their readers (fill.layers, reach.reach, severi_degree) look each one up
on this module at every call, so a patched table is the one they read.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate, starmap, zip_longest
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


# One tuple per profile: share(p, p) is the first tuple equal to p it saw.
share = {}.setdefault


# by hand: through add, one cached entry at n = 9 took 6x as long (Xeon, Py 3.11)
@lru_cache(maxsize=None)
def raisings(alpha, n):
    """alpha + e_j for j = 1..n."""
    padded = alpha + (0,) * (n - len(alpha))
    raised = (padded[:j] + (padded[j] + 1,) + alpha[j + 1:] for j in range(n))
    return tuple(share(r, r) for r in raised)


@lru_cache(maxsize=None)
def lowerings(beta):
    """(j, beta - e_j) per j with beta_j > 0."""
    lowered = ((j, add(beta, (0,) * (j - 1) + (-1,)))
               for j, entry in enumerate(beta, start=1) if entry)
    return tuple((j, share(low, low)) for j, low in lowered)


@lru_cache(maxsize=None)
def assigned_splits(alpha, min_size):
    """(alpha', C(alpha, alpha'), budget, |alpha'|) per alpha' <= alpha, with
    budget = weight(alpha) - weight(alpha') - 1 = weight(c) >= min |c|, as
    weight(beta) = d - weight(alpha); alpha' lexicographic."""
    top = weight(alpha) - 1
    return tuple((share(a_prime, a_prime), binomial(alpha, a_prime),
                  top - weight(a_prime), sum(a_prime))
                 for a_prime in subsequences(alpha, top - min_size))


@lru_cache(maxsize=None)
def nodeless(beta):
    """N(d, 0, alpha, beta), the multinomial as binomials: beta = (d) is free."""
    return nat_power(beta) * prod(map(comb, accumulate(beta), beta))


# by hand: through add, the 464 keys of the d = 9..12 genus-0 queries took 2.2x as long
@lru_cache(maxsize=None)
def degenerations(beta, budget, min_size):
    """(k^c * C(beta + c, beta), |c|, beta + c) per c in partitions(budget, min_size)."""
    out = []
    for c in partitions(budget, min_size):
        b_prime = [*beta, *c[len(beta):]]
        unassigned = 1
        for k, c_k in enumerate(c[:len(beta)]):
            if c_k:
                b_prime[k] += c_k
                unassigned *= comb(b_prime[k], c_k)
        b_prime = tuple(b_prime)
        out.append((nat_power(c) * unassigned, sum(c), share(b_prime, b_prime)))
    return tuple(out)
