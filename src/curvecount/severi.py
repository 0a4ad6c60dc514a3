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

One loop evaluates it, bottom-up over the degrees, no recursion (fill.layers),
over the term tables of module seqs: severi_table fills every (alpha, beta)
from delta = 0, one list by delta each; severi_degree fills the cells one index
reaches (or at alpha = (), beta = (d), d >= d0 takes Goettsche's form, module
goettsche) and memoizes (MemoStore).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import comb

from . import seqs


class InvalidIndex(ValueError):
    """A label with d < 1, or profiles that do not account for the full degree."""


class SeveriIndex(namedtuple("SeveriIndex", "d delta alpha beta")):
    """Canonical label (d, delta, alpha, beta) of a generalized Severi variety.

    Construction canonicalizes the profiles and enforces the weight
    constraint (InvalidIndex), so an index in hand is always valid; delta
    may be any integer (out-of-range values simply have degree 0).  The
    memo's keys are _Key, built valid."""

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
    """Write-once memo of computed degrees, keyed by _Key (d, delta, alpha, beta):
    severi_degree reads it as a dict and writes it through put, which returns
    the value: a second put of the same value is a no-op, a conflicting one (a
    corruption, as the recursion is deterministic) raises.  Equal profiles in
    its keys are one tuple (seqs.share); delta = 0 never enters.  A fill puts
    every cell it computes; hits, kept by severi_degree, counts the lookups it
    answers."""

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


def severi_degree(index: SeveriIndex, memo: MemoStore | None = None) -> int:
    """Degree at the index: 0, the memo untouched, past the vanishing rule or at
    delta < 0; the closed form at delta = 0; else the memo's value or one fill
    (_degree), whose cells a memo takes.  At alpha = (), beta = (d), d >= d0 =
    window_start(delta) > delta // 2, goettsche's frozen constants answer up to
    CERTIFIED_DELTA nodes before the memo is read, never stored; above, a miss
    with d - d0 >= 3 is extrapolated from its window rows, those the memo lacks
    from one fill."""
    d, delta, alpha, beta = index
    if delta < 0 or delta >= comb(d - 1, 2) + sum(alpha) + sum(beta):
        return 0
    if delta == 0:
        return seqs.nodeless(beta)
    d0, share = None, seqs.share
    if not alpha and beta == (d,) and d > delta // 2:
        from . import goettsche  # compiled only once a query may take a route
        d0 = goettsche.window_start(delta)
        if d >= d0 and delta <= goettsche.CERTIFIED_DELTA:
            return goettsche.node_degree(d, delta)
    value = None if memo is None else memo.get(index)
    if value is not None:
        memo.hits += 1
        return value
    if d0 is not None and d - d0 >= 3:  # d0 = delta: the constants hold each row k <= 10
        memo, window = MemoStore() if memo is None else memo, range(d0, d0 + 3)
        missing = {(n, k) for n in window for k in range(goettsche.CERTIFIED_DELTA + 1, delta + 1)
                   if (n, k, (), (n,)) not in memo}
        if missing:  # one fill, no genus floor: delta' = 1..delta at each n >= d0
            from . import fill
            top = ((), share((d0 + 2,), (d0 + 2,)))
            for n, lo, width, layer, _ in fill.layers(d0 + 2, delta, comb(d0 + 1, 2), top, memo):
                row = fill.unpack(layer[(), (n,)], width, delta + 1 - lo) if n >= d0 else ()
                for k, value in enumerate(row, lo):
                    if (n, k) in missing:
                        memo.put(_Key(n, k, (), share((n,), (n,))), value)
        rows = [[severi_degree((n, k, (), (n,)), memo) for k in range(delta + 1)] for n in window]
        return memo.put(_Key(d, delta, (), share(beta, beta)),
                        goettsche.extrapolate(rows, d - d0))
    return _degree((d, delta, share(alpha, alpha), share(beta, beta)), memo)


def _degree(index: tuple, memo: MemoStore | None) -> int:
    """One fill for an unmarked index with delta > 0 that the memo lacks.  Each cell
    it computes is exact (fill.layers), and a memo takes them all, the index's own
    among them, so a batch through one memo shares work; memo None stores none."""
    from . import fill
    d, delta, alpha, beta = index
    for n, lo, width, layer, span in fill.layers(d, delta, comb(d - 1, 2) - delta,
                                                 (alpha, beta), memo):
        for (a, b), last in span.items() if memo is not None else ():
            for k, value in enumerate(fill.unpack(layer[a, b], width, last + 1 - lo), lo):
                memo.put(_Key(n, k, a, b), value)
    return layer[alpha, beta]


def severi_table(d_max: int, delta_max: int) -> list[list[tuple]]:
    """Degrees at d <= d_max, delta <= delta_max, as a list of layers d = 1..d_max:
    layer d lists (alpha, beta, degrees, dim, genus) per shape, sorted; row (d,
    delta, alpha, beta) is (degrees[delta], dim - delta, genus - delta) for delta <=
    min(d(d-1)/2, delta_max).  One fill of every shape, each unpacked once."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    if delta_max < 0:
        raise ValueError("delta_max must be >= 0, got %d" % delta_max)
    from . import fill  # compiled only once a query or a table fills
    return [[(alpha, beta, degrees + [0] * (min(d * (d - 1) // 2, delta_max) + 1 - len(degrees)),
              dimension((d, 0, alpha, beta)), genus((d, 0, alpha, beta)))
             for (alpha, beta), packed in sorted(layer.items())  # zeros past the vanishing rule
             for degrees in [fill.unpack(packed, width, span[alpha, beta] + 1)]]
            for d, _, width, layer, span in fill.layers(d_max, delta_max)]
