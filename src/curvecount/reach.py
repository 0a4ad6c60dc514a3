"""The shapes one index's fill computes (module fill): a single pass down from
the index, through the first and second sums of the Caporaso-Harris recursion
(module severi) over the term tables of module seqs, before the fill goes up.
Its own module, loaded only by a query's fill: inside fill.py, its code raised
the peak RSS of the benchmark's table-cache workload, whose table never runs
it, by about 0.05 MB.
"""

from __future__ import annotations

from math import comb

from . import seqs


def floor(n, d, g):
    """The genus ceiling at layer n of a fill to degree d and genus g: a cell the
    target needs has delta' >= 1 and delta' >= C(n-1, 2) - g - (d - n)."""
    return max(1, comb(n - 1, 2) - g - (d - n))


def reach(d, delta, g, target, memo):
    """Top-down from the target (alpha, beta) at layer d, of genus g and excess
    e0 = d - |alpha| - |beta|, per layer n = 0..d the last delta' to
    fill {(alpha, beta): last} and the rows read from the memo {(alpha, beta):
    [degree per delta' = floor(n)..last]}: a shape's last is the most its parents
    need, moved by their terms ((n - 1) - |c| for a degeneration) and cut by the
    vanishing rule and the node-plus-excess bound, and a shape whose row the memo
    holds is read, not followed.  The parents with one beta and one alpha' share
    their degenerations, so each such split is walked once, at their greatest last."""
    raisings, lowerings = seqs.raisings, seqs.lowerings
    splits_of, degenerations = seqs.assigned_splits, seqs.degenerations
    q = delta + d - sum(target[0]) - sum(target[1])  # delta + e0
    spans, known = [{} for _ in range(d + 1)], [{} for _ in range(d + 1)]
    spans[d][target] = delta
    for n in range(d, 1, -1):
        top, layer, splits, lo = n - 1, spans[n], {}, floor(n, d, g)
        levels = [[] for _ in range(n + 1)]
        for shape in layer:
            levels[sum(shape[1])].append(shape)
        for size in range(n, -1, -1):  # a first-sum child (|beta| - 1) after its parents
            for alpha, beta in levels[size]:
                last = layer[alpha, beta]
                if memo and None not in (row := [memo.get((n, k, alpha, beta))
                                                 for k in range(lo, last + 1)]):
                    known[n][alpha, beta] = row
                    del layer[alpha, beta]
                    continue
                raised = raisings(alpha, len(beta))
                for j, lowered in lowerings(beta):
                    if (old := layer.get(key := (raised[j - 1], lowered), 0)) < last:
                        layer[key] = last
                        if not old:
                            levels[size - 1].append(key)
                for a_prime, _, budget, a_size in splits_of(alpha, max(top - last, 0)):
                    if splits.get(key := (a_prime, beta, budget, a_size + size), 0) < last:
                        splits[key] = last
        spans[n] = {shape: layer[shape] for level in levels for shape in level if shape in layer}
        below, lo = spans[top], floor(top, d, g)
        cap = min(q, comb(n - 1, 2))  # a cell at layer n - 1 has delta' <= cap - e'
        for (a_prime, beta, budget, size), last in splits.items():
            end = min(last, cap + size) - top  # e' = top - |alpha'| - |beta| - |c|
            for _, c_size, b_prime in degenerations(beta, budget, max(top - last, 0)):
                if below.get(key := (a_prime, b_prime), 0) < end + c_size >= lo:
                    below[key] = end + c_size
    return spans, known
