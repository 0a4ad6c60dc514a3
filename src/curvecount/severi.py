"""Degrees of generalized Severi varieties of nodal plane curves.

The variety V(d, delta)[alpha, beta] parametrizes reduced plane curves of
degree d with delta nodes and prescribed contact with a fixed line L:
alpha_k contacts of order k at assigned general points of L, beta_k
contacts of order k at unassigned points.  The profiles must account for
the full intersection with L,

    sum_k k * alpha_k  +  sum_k k * beta_k  =  d.

The degree N(d, delta, alpha, beta) of this variety (the number of its
members through dim-many general points) obeys the Caporaso-Harris
recursion, implemented here:

    N(d, delta, alpha, beta) =
        sum over j with beta_j > 0 of
            j * N(d, delta, alpha + e_j, beta - e_j)            (first sum)
      + sum over alpha' <= alpha and increments c of
            k^c * C(alpha, alpha') * C(beta + c, beta)
              * N(d - 1, delta', alpha', beta + c)              (second sum)

where k^c = prod_k k^(c_k), C(-, -) is the entrywise binomial, the
increment c runs over all profiles with

    weight(alpha') + weight(beta) + weight(c) = d - 1,

and delta' = delta - (d - 1) + |c| is kept only when 0 <= delta' <= delta.
The first sum specializes one unassigned contact to an assigned point at
fixed degree; the second degenerates the curve to contain L, dropping
the degree by one.  Base case: nodeless curves, for any alpha, have
N(d, 0, alpha, beta) = |beta|!/prod_k beta_k! * prod_k k^beta_k.  At delta = 0
only beta = () has a second-sum child (|c| = d - 1 = weight(c)), N(d - 1, 0,
(), (d - 1)) = 1; else the first-sum terms are N(d, 0, alpha, beta) * beta_j
/ |beta|.  Induction on d, then |beta|.  Degrees vanish when delta < 0 and,
as a reduced curve of genus g has at least 1 - g components, each meeting L
at a contact point of its own, when |alpha| + |beta| < 1 - g; this holds for
every delta > d(d-1)/2 and, at every d <= 12, for exactly the zero degrees.

Two engines evaluate it.  severi_degree answers one index from a memo, a
write-once dict (MemoStore), recursing only into the children it needs, down
to the closed form; severi_table fills whole tables bottom-up, by the
recursion alone, and returns them as one list by delta per (d, alpha, beta),
with no object per row.  All values are exact.

At alpha = (), beta = (d) and d >= d0, severi_degree uses Goettsche's form
(module goettsche).
"""

from __future__ import annotations

import operator
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from math import comb, prod

from . import seqs


class InvalidIndex(ValueError):
    """A label with d < 1, or profiles that do not account for the full degree."""


class SeveriIndex(namedtuple("SeveriIndex", "d delta alpha beta")):
    """Canonical label (d, delta, alpha, beta) of a generalized Severi variety.

    Construction canonicalizes the profiles and enforces the weight
    constraint (InvalidIndex), so an index in hand is always valid; delta
    may be any integer (out-of-range values simply have degree 0).  The
    engine's children are plain tuples and its memo keys _Key, built valid.
    """

    __slots__ = ()

    def __new__(cls, d: int, delta: int, alpha=(), beta=()):
        d, delta = operator.index(d), operator.index(delta)  # a float or str raises TypeError
        if d < 1:
            raise InvalidIndex("degree d must be >= 1, got %d" % d)
        alpha, beta = seqs.canon(alpha), seqs.canon(beta)
        got = seqs.weight(alpha) + seqs.weight(beta)
        if got != d:
            raise InvalidIndex(
                "profiles must satisfy sum(k*alpha_k) + sum(k*beta_k) = d: "
                "got weight %d for d = %d (alpha=%r, beta=%r)"
                % (got, d, alpha, beta)
            )
        return tuple.__new__(cls, (d, delta, alpha, beta))

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace checks too
        return cls(*iterable)


validate = SeveriIndex  # the old name of the checked constructor
_Key = namedtuple("_Key", SeveriIndex._fields)  # memo keys, unchecked; bench/tracer.py reads .d


def genus(index: tuple) -> int:
    """Geometric genus C(d-1, 2) - delta of the parametrized curves.

    May be negative for delta beyond the genus bound.
    """
    d, delta, _, _ = index
    return comb(d - 1, 2) - delta


def dimension(index: tuple) -> int:
    """Dimension of the variety, equal to the number of point conditions:
    d(d+3)/2 - delta - sum(k*alpha_k) - sum((k-1)*beta_k), which equals
    2d + g - 1 + |beta| because the weights of alpha and beta sum to d.
    """
    d, delta, _, beta = index
    return d * (d + 1) // 2 - delta + sum(beta)


class MemoStore(dict):
    """Write-once memo of computed degrees, keyed by _Key (d, delta, alpha, beta).

    The engine reads it as a dict and writes it through put: a second put
    with the same value is a benign no-op, and a conflicting value raises,
    since the recursion is deterministic and a conflict means corruption;
    put returns the value.  Equal profiles in the engine's keys are one tuple
    (_share); delta = 0 never enters.  Each computed index is one entry, so
    len(memo) is the miss count; hits is bookkeeping only, kept by this
    module: severi_degree counts the hit of its own lookup, _degree one hit
    per child found.
    """

    __slots__ = ("hits",)

    def __init__(self):
        self.hits = 0

    def put(self, index: tuple, value: int) -> int:
        stored = self.setdefault(index, value)
        if stored != value:
            raise RuntimeError(
                "memo conflict at %r: stored %d, recomputed %d"
                % (index, stored, value)
            )
        return value


# One tuple per profile: _share(p, p) is the first tuple equal to p it saw.
_share = {}.setdefault


# by hand: through seqs.add, one cached entry at n = 9 took 6x as long (Xeon, Py 3.11)
@lru_cache(maxsize=None)
def _raisings(alpha, n):
    """alpha + e_j for j = 1..n."""
    padded = alpha + (0,) * (n - len(alpha))
    raised = (padded[:j] + (padded[j] + 1,) + alpha[j + 1:] for j in range(n))
    return tuple(_share(r, r) for r in raised)


@lru_cache(maxsize=None)
def _lowerings(beta):
    """(j, beta - e_j) per j with beta_j > 0."""
    lowered = ((j, seqs.add(beta, (0,) * (j - 1) + (-1,)))
               for j, entry in enumerate(beta, start=1) if entry)
    return tuple((j, _share(low, low)) for j, low in lowered)


@lru_cache(maxsize=None)
def _assigned_splits(alpha, min_size):
    """(alpha', C(alpha, alpha'), budget, |alpha'|) per alpha' <= alpha, with
    budget = weight(alpha) - weight(alpha') - 1 = weight(c) >= min |c|, as
    weight(beta) = d - weight(alpha); alpha' lexicographic."""
    top = seqs.weight(alpha) - 1
    return tuple((_share(a_prime, a_prime), seqs.binomial(alpha, a_prime),
                  top - seqs.weight(a_prime), sum(a_prime))
                 for a_prime in seqs.subsequences(alpha, top - min_size))


@lru_cache(maxsize=None)
def _nodeless(beta):
    """N(d, 0, alpha, beta), the multinomial as binomials: beta = (d) is free."""
    return seqs.nat_power(beta) * prod(map(comb, accumulate(beta), beta))


# by hand: through seqs, the 464 keys of the d = 9..12 genus-0 queries took 2.2x as long
@lru_cache(maxsize=None)
def _degenerations(beta, budget, min_size):
    """(k^c * C(beta + c, beta), |c|, beta + c) per c in partitions(budget, min_size)."""
    out = []
    for c in seqs.partitions(budget, min_size):
        b_prime = [*beta, *c[len(beta):]]
        unassigned = 1
        for k, c_k in enumerate(c[:len(beta)]):
            if c_k:
                b_prime[k] += c_k
                unassigned *= comb(b_prime[k], c_k)
        b_prime = tuple(b_prime)
        out.append((seqs.nat_power(c) * unassigned, sum(c), _share(b_prime, b_prime)))
    return tuple(out)


def severi_degree(index: SeveriIndex, memo: MemoStore | None = None) -> int:
    """Degree of the generalized Severi variety at the given index.

    Evaluates the recursion in the module docstring with memoization, the
    degeneration sum from one table per (beta, budget, min |c|); a nodeless
    index (delta = 0) is answered from the closed form before the memo is
    read, and one in the memo from it.  Returns 0, with the memo untouched,
    when delta < 0 or when delta >= C(d-1, 2) + |alpha| + |beta|, the
    vanishing rule of the module docstring (g = C(d-1, 2) - delta).
    Termination: the first sum strictly decreases |beta| at fixed d, the
    second strictly decreases d.

    At alpha = (), beta = (d), d >= d0 = goettsche.window_start(delta) > delta // 2:
    frozen constants answer up to CERTIFIED_DELTA nodes before the memo is read,
    never stored; above, a miss with d - d0 >= 3 is extrapolated from its window.
    """
    d, delta, alpha, beta = index
    if delta < 0 or delta >= comb(d - 1, 2) + sum(alpha) + sum(beta):
        return 0
    if delta == 0:
        return _nodeless(beta)
    d0 = None
    if not alpha and beta == (d,) and d > delta // 2:
        from . import goettsche  # compiled only once a query may take a route
        d0 = goettsche.window_start(delta)
        if d >= d0 and delta <= goettsche.CERTIFIED_DELTA:
            return goettsche.node_degree(d, delta)
    memo = MemoStore() if memo is None else memo
    value = memo.get(index)
    if value is not None:
        memo.hits += 1
        return value
    if d0 is not None and d - d0 >= 3:
        rows = [[severi_degree((n, k, (), (n,)), memo)
                 for k in range(delta + 1)] for n in range(d0, d0 + 3)]
        return memo.put(_Key(d, delta, (), _share(beta, beta)),
                        goettsche.extrapolate(rows, d - d0))
    with _stack_room(d):
        return _degree((d, delta, _share(alpha, alpha), _share(beta, beta)), memo)


@contextmanager
def _stack_room(d: int):
    """Room for _degree from degree d, which nests at most (d+1)(d+2)/2 - 2
    deep (|beta| <= d' first-sum calls per layer d'): the block raises the
    recursion limit by that much, plus a margin for callees."""
    frames = (d + 1) * (d + 2) // 2 + 100
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(min(saved + frames, 2**31 - 1))  # the limit is a C int
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _degree(index: tuple, memo: MemoStore) -> int:
    """Degree at an index with delta > 0 that the vanishing rule does not mark
    and the memo lacks: each call stores one memo entry.  Each child is a plain
    tuple of shared profiles, looked up in the memo; a miss recurses, except at
    a second-sum child with delta' = 0, which is the closed form and never
    stored.  First-sum children keep d, delta and |alpha| + |beta|; the rule
    marks all second-sum children of an alpha' split or none, so a marked
    split is skipped whole."""
    d, delta, alpha, beta = index
    lookup = memo.get
    hits = total = 0
    raised = _raisings(alpha, len(beta))
    for j, lowered in _lowerings(beta):
        child = (d, delta, raised[j - 1], lowered)
        value = lookup(child)
        if value is None:
            value = _degree(child, memo)
        else:
            hits += 1
        total += j * value
    top = d - 1
    shift = delta - top
    min_size = max(top - delta, 0)  # delta' >= 0 needs |c| >= (d - 1) - delta
    room = shift - comb(top - 1, 2) - sum(beta)  # marked when |alpha'| <= room
    for a_prime, assigned, budget, size in _assigned_splits(alpha, min_size):
        if size <= room:
            continue
        part = 0
        for coeff, c_size, b_prime in _degenerations(beta, budget, min_size):
            child = (top, shift + c_size, a_prime, b_prime)
            value = lookup(child)
            if value is None:
                value = _degree(child, memo) if shift + c_size else _nodeless(b_prime)
            else:
                hits += 1
            part += coeff * value
        total += assigned * part
    memo.hits += hits
    return memo.put(_Key._make(index), total)


def severi_table(d_max: int, delta_max: int) -> list[list[tuple]]:
    """Degrees at d <= d_max, delta <= delta_max, as a list of layers d = 1..d_max.

    Layer d lists (alpha, beta, degrees, dim, genus) per shape, sorted; row (d,
    delta, alpha, beta) is (degrees[delta], dim - delta, genus - delta) for delta <=
    min(d(d-1)/2, delta_max).  The degeneration sum only shifts delta, by (d-1) - |c|,
    so each list, cut at the vanishing rule (zeros past it), is filled bottom-up
    from layer d - 1 alone, |beta| ascending: no memo, no recursion.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    if delta_max < 0:
        raise ValueError("delta_max must be >= 0, got %d" % delta_max)
    out = []
    # (alpha, beta) -> degrees by delta at degree d - 1; from the empty curve
    # of degree 0 the sums give 1 for both lines of degree 1
    below = {((), ()): [1]}
    for d in range(1, d_max + 1):
        top = d - 1
        span = min(d * top // 2, delta_max) + 1
        min_size = max(top - delta_max, 0)  # as in _degree, at delta_max
        shapes = sorted((alpha, beta) for w in range(d + 1)
                        for alpha in seqs.partitions(w)
                        for beta in seqs.partitions(d - w))
        layer = dict.fromkeys(shapes)  # rows in sorted order, filled |beta| ascending
        for alpha, beta in sorted(shapes, key=lambda shape: sum(shape[1])):
            size = min(span, comb(top, 2) + sum(alpha) + sum(beta))
            layer[alpha, beta] = poly = [0] * size
            raised = _raisings(alpha, len(beta))
            for j, lowered in _lowerings(beta):
                for delta, value in enumerate(layer[raised[j - 1], lowered]):
                    poly[delta] += j * value
            for a_prime, assigned, budget, _ in _assigned_splits(alpha, min_size):
                for coeff, c_size, b_prime in _degenerations(beta, budget, min_size):
                    shift = top - c_size  # delta = delta' + (d - 1) - |c|
                    child = below[a_prime, b_prime][:size - shift]
                    factor = assigned * coeff
                    for delta, value in enumerate(child, shift):
                        poly[delta] += factor * value
        out.append([(alpha, beta, poly + [0] * (span - len(poly)),
                     dimension((d, 0, alpha, beta)), genus((d, 0, alpha, beta)))
                    for (alpha, beta), poly in layer.items()])
        below = layer
    return out
