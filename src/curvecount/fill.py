"""The layered fill of the Caporaso-Harris recursion (module severi), over the
term tables of module seqs: severi_table fills every shape, severi_degree the
cells one index reaches (module reach).  severi loads this module only once a
query or a table fills: inside severi.py, the fill's code raised the peak RSS of
the benchmark's node-poly sweep, which never fills and compiles its modules from
source, by 0.15 MB (4 of 4 pairs).
"""

from __future__ import annotations

from math import comb

from . import seqs

SLOT_BITS = 64  # B, the bits a slot's value may take, at the start of each fill
TERMS_KEPT_TO = 24  # a fill past this d clears the term tables: at d = 400 they held 9 MB


def unpack(packed: int, width: int, count: int) -> list[int]:
    """The count slots of width bits in packed, lowest first: the one reader of a
    packed row (shift and mask beat byte decoding below about 66 slots)."""
    slot, out = (1 << width) - 1, []
    for _ in range(count):  # & allocates the mask's digits; | 0 copies to the value's own
        out.append(packed & slot | 0)
        packed >>= width
    return out


def layers(d, delta, g=None, target=None, memo=None):
    """Fill N(n, delta'; alpha, beta) bottom-up for n = 1..d, two layers held, and
    yield each as (n, lo, width, {(alpha, beta): packed}, {(alpha, beta): last}):
    the int holds delta' = lo..last at bit (delta' - lo) * width, so a
    degeneration term (delta' moved by (n - 1) - |c|) is a shift, mask, multiply.
    The table (no target) fills every shape from delta' = 0 by the recursion.  A
    query (the target (alpha, beta) of genus g at layer d, excess e0 = d - |alpha|
    - |beta|) reads delta' = 0 from the closed form (of beta') and fills the
    shapes reach.reach finds, each layer from lo = reach.floor; two bounds on a
    needed cell, each kept by its children, cut the cells:
    - genus ceiling: first-sum children keep the genus, second-sum children have
      g + 1 - |c| <= g + 1, so delta' >= C(n-1, 2) - g - (d - n) at layer n;
    - node-plus-excess bound: the first sum keeps delta' + e', the second lowers
      it by n - |alpha| + |alpha'| >= 0, so delta' <= min(delta, delta + e0 - e').
    So each child of a cell lo..last is in its own lo..last, vanishing, or at
    delta' = 0: every cell a fill yields is exact, not only the target's.
    Width W = B + 4d: a factor C(alpha, alpha') k^c C(beta + c, beta), or j, is
    below 2^(|alpha| + |beta| + weight(c)) <= 2^(2n) as k <= 2^(k-1), a shape has
    n + 2^(|alpha| + n - 1) <= 2^(2n) terms, each masked to its slots, so no sum
    of slots below 2^B carries.  One AND per shape checks its slots against 2^B;
    past it the shape is refilled at twice B, both held layers repacked."""
    closed = target is not None  # delta' = 0 from the closed form, not from the layer below
    if closed:
        from .reach import floor, reach
    spans, known = reach(d, delta, g, target, memo) if closed else (None, [{}] * (d + 1))
    share, raisings, lowerings = seqs.share, seqs.raisings, seqs.lowerings
    splits_of, degenerations, nodeless = seqs.assigned_splits, seqs.degenerations, seqs.nodeless
    room, bits = 4 * d, max([SLOT_BITS, *(v.bit_length() for rows in known  # each row read
                                          for row in rows.values() for v in row)])
    below, below_lo = ({} if closed else {((), ()): 1}), 0  # the empty curve of degree 0
    for n in range(1, d + 1):
        top = n - 1
        if closed:
            span, spans[n], lo = spans[n], None, floor(n, d, g)
        else:  # every shape, to the vanishing rule: delta' <= C(n-1, 2) + |alpha| + |beta| - 1
            shapes = sorted(((share(a, a), share(b, b)) for w in range(n + 1)
                             for a in seqs.partitions(w) for b in seqs.partitions(n - w)),
                            key=lambda shape: sum(shape[1]))
            span, lo = {(a, b): min(delta, comb(n, 2) - n + sum(a) + sum(b)) for a, b in shapes}, 0
        offset = below_lo + top - lo  # a child's slot i lands at i + offset - |c|
        zero = top - lo if closed else -1  # a term with |c| <= zero has a delta' = 0 cell
        width, masks = bits + room, {}
        layer = {shape: sum(v << i * width for i, v in enumerate(row))
                 for shape, row in known[n].items()}
        for (alpha, beta), hi in span.items():  # |beta| ascending: first-sum children first
            min_size = max(top - hi, 0)  # delta' >= 0 needs |c| >= (n - 1) - delta
            while True:
                if hi not in masks:
                    full = (1 << (hi - lo + 1) * width) - 1
                    masks[hi] = full, full ^ full // ((1 << width) - 1) * ((1 << bits) - 1)
                try:
                    (mask, guard), poly = masks[hi], 0
                    raised = raisings(alpha, len(beta))
                    for j, lowered in lowerings(beta):  # the first sum: the same cells
                        poly += j * (layer.get((raised[j - 1], lowered), 0) & mask)
                    for a_prime, assigned, budget, _ in splits_of(alpha, min_size):
                        part = 0
                        for coeff, c_size, b_prime in degenerations(beta, budget, min_size):
                            child = below.get((a_prime, b_prime))
                            if child:
                                shift = (offset - c_size) * width
                                child = child << shift if shift >= 0 else child >> -shift
                                part += (child & mask) * coeff
                            if c_size <= zero:
                                child = nodeless(b_prime)
                                if child >> bits:
                                    raise OverflowError
                                part += child * coeff << (zero - c_size) * width
                        poly += assigned * part
                    if poly & guard:
                        raise OverflowError
                    break
                except OverflowError:  # a slot reached 2^B: both held layers to twice B
                    below, layer = ({key: sum(v << i * (width + bits) for i, v in enumerate(
                        unpack(packed, width, packed.bit_length() // width + 1)))
                        for key, packed in held.items()} for held in (below, layer))
                    bits *= 2
                    width, masks = bits + room, {}
            layer[alpha, beta] = poly
        below, below_lo = layer, lo  # the layer below is dropped before the caller reads this one
        yield n, lo, width, layer, span
    if d > TERMS_KEPT_TO:  # a patched table may have no cache to clear
        for table in seqs.partitions, raisings, lowerings, splits_of, degenerations, nodeless:
            getattr(table, "cache_clear", lambda: None)()
