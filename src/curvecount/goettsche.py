"""Node counts N(d, delta; (), (d)) at few nodes from Goettsche's form.

Let F_d(x) = sum_delta N(d, delta; (), (d)) x^delta, the Severi degrees of
delta-nodal plane curves of degree d.  Goettsche's conjecture, proved by
Kool-Shende-Thomas (Geom. Topol. 15, 2011) and Tzeng (J. Differential Geom.
90, 2012), gives log F_d = d^2 A(x) + d B(x) + C(x) with universal series A,
B, C, up to x^delta whenever O(d) is delta-very ample, that is d >= delta.
So ell_k(d) = [x^k] x F_d'/F_d, an integer by

    n F_n = sum_{k <= n} ell_k F_{n-k},    F_0 = 1,

is a quadratic in d for d >= k.  Goettsche conjectured it from d >= k/2 + 1
on (Comm. Math. Phys. 196, 1998), and Block checked that for k <= 14
("Computing node polynomials for plane curves", Math. Res. Lett. 18, 2011).
Up to CERTIFIED_DELTA = 10 it is a finite fact about severi_table, which never
routes: for every k <= 10 the third differences of ell_k(d) vanish on
d = ceil(k/2) + 1..12 (from d = 1 for k <= 2, and they fail at ceil(k/2) for
every k >= 3), a range that holds the proven window k..k + 2, so the quadratic
there is the proven one; tests/test_severi.py checks exactly this, through
d = CERTIFIED_DELTA + 2.  So the window of delta nodes starts at
d0 = min(delta, ceil(delta/2) + 1) for delta <= CERTIFIED_DELTA and at the
proven d0 = delta above (window_start), and d0, d0 + 1, d0 + 2 give
N(d, delta) at every d >= d0 + 3: ell_k(d0 + t) = v + t D + C(t, 2) D^2, with
v = ell_k(d0) and D the forward difference, for each k <= delta (d0 never falls
as delta grows, so each ell_k is a quadratic from d0 on), then F_d up to
x^delta from the same identity, each division by n exact.  Ints and comb alone.

severi.severi_degree sends a memo miss here by the rule in its docstring,
with the index it built, which holds d and delta and is where the result is
stored (profiles shared as in the engine's keys), and its memo.  The route
reads the memo only through severi_degree and writes its one entry with
memo.put.  The window values are queries in the same memo, routed again where
n - d0(k) >= 3, so the windows nested in a window are read once.  On the
benchmark's node-poly sweep (d = delta..3 delta + 1, delta <= 6, one memo) the
narrow windows cut the recursion's calls from 838 to 272 and the memo from 879
to 314 entries.

The threshold 3 is the least the window allows, and measured: with d0 = delta,
at delta <= 12, d = delta + 3..delta + 6, one fresh process per query, 5 a side
(Python 3.11.7, one Xeon core), the route's median was below the recursion's
at 45 of the 48 points and equal at (4, 1), (5, 1) and (5, 2), e.g. 0.23
against 0.57 s at (17, 12).  At the 16 points that the narrow windows add
(delta = 4..10, d = d0 + 3..delta + 2; 5 fresh processes a side, every module
compiled from source) it was below at 15, at (7, 5) by 0.1 ms, and 0.3 ms above
at (6, 4), where compiling this module costs more than it saves; e.g. 0.017
against 0.118 s at (12, 10).  Narrow windows also cut the routes above them:
(13, 10) 0.112 -> 0.015 s, (30, 10) 0.095 -> 0.014 s.  At (60, 4) the route
takes 0.003 s against 0.34 s on the recursion, and it needs no frame per
degree layer, so (100000, 3) is answered at once.

severi imports this module only when a query may take the route, so a process
that never does compiles none of it.  Inside severi.py, this code and its text
raised the peak RSS of the benchmark's deep-query workload, which never takes
the route, by 0.18 MB (median of 10 runs a side) when every module compiles
from source, and a seven-line dispatch there that kept the memo bookkeeping
raised table-cache's by 0.12 MB; severi keeps four lines.
"""

from __future__ import annotations

from math import comb

from . import severi

# narrow windows up to this delta: tests/test_severi.py checks ell_k on
# severi_table through d = CERTIFIED_DELTA + 2
CERTIFIED_DELTA = 10


def _log_derivative(coeffs: list[int]) -> list[int]:
    """[0, ell_1, .., ell_n] for F = coeffs, F_0 = 1: ell_k = [x^k] x F'/F."""
    ell = [0]
    for n in range(1, len(coeffs)):
        ell.append(n * coeffs[n] - sum(ell[k] * coeffs[n - k] for k in range(1, n)))
    return ell


def window_start(delta: int) -> int:
    """d0, the first degree of the window of delta nodes: the lesser of delta and
    ceil(delta/2) + 1 up to CERTIFIED_DELTA, else the proven delta."""
    return min(delta, (delta + 1) // 2 + 1) if delta <= CERTIFIED_DELTA else delta


def node_degree(index: severi.SeveriIndex, memo: severi.MemoStore) -> int:
    """N(d, delta; (), (d)) at index, which needs d - d0 >= 3, from the window
    d0..d0 + 2 read through severi_degree and memo; stored there."""
    d, delta, _, _ = index
    d0 = window_start(delta)
    t = d - d0
    window = [_log_derivative([severi.severi_degree(severi.SeveriIndex(n, k, (), (n,)), memo)
                               for k in range(delta + 1)])
              for n in range(d0, d0 + 3)]
    ell = [v + t * (v1 - v) + comb(t, 2) * (v2 - 2 * v1 + v) for v, v1, v2 in zip(*window)]
    coeffs = [1]
    for n in range(1, delta + 1):
        coeffs.append(sum(ell[k] * coeffs[n - k] for k in range(1, n + 1)) // n)
    return memo.put(index, coeffs[delta])
