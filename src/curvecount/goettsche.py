"""Node counts N(d, delta; (), (d)) at few nodes from Goettsche's form.

Let F_d(x) = sum_delta N(d, delta; (), (d)) x^delta, the Severi degrees of
delta-nodal plane curves of degree d.  Goettsche's conjecture, proved by
Kool-Shende-Thomas (Geom. Topol. 15, 2011) and Tzeng (J. Differential Geom.
90, 2012), gives log F_d = d^2 A(x) + d B(x) + C(x) with universal series A,
B, C, up to x^delta whenever O(d) is delta-very ample, that is d >= delta.
So ell_k(d) = [x^k] x F_d'/F_d, an integer by

    n F_n = sum_{k <= n} ell_k F_{n-k},    F_0 = 1,

is a quadratic in d for d >= k, and the three degrees d0 = delta, delta + 1,
delta + 2 (the proven window) give N(d, delta) at every d > delta + 2:
ell_k(d0 + t) = v + t D + C(t, 2) D^2, with v = ell_k(d0) and D the forward
difference, for each k <= delta, then F_d up to x^delta from the same identity,
each division by n exact.  Ints and comb alone.

severi.severi_degree sends every query with alpha = (), beta = (d), delta >= 1
and d - delta >= 3 here, with its memo and the index to store the result at
(profiles shared as in the engine's keys); the route counts one memo miss.  The
window values are queries in the same memo, routed again where d0 + i - k >= 3,
so the windows nested in a window are read once.  The threshold 3 is the least the
window allows, and measured: at delta <= 12, d = delta + 3..delta + 6, one
fresh process per query, 5 a side (Python 3.11.7, one Xeon core), the route's
median was below the recursion's at 45 of the 48 points and equal at (4, 1),
(5, 1) and (5, 2), e.g. 0.31 against 0.40 s at (15, 12) and 0.23 against
0.57 s at (17, 12).  At (60, 4) it takes 0.003 s against 0.34 s, and it needs
no frame per degree layer, so (100000, 3) is answered at once.

severi imports this module only when a query takes the route, so a process
that never does compiles none of it.  Inside severi.py, this code and its text
raised the peak RSS of the benchmark's deep-query workload, which never takes
the route, by 0.18 MB (median of 10 runs a side) when every module compiles
from source, and a seven-line dispatch there that kept the memo bookkeeping
raised table-cache's by 0.12 MB; severi keeps two lines.
"""

from __future__ import annotations

from math import comb

from . import severi


def _log_derivative(coeffs: list[int]) -> list[int]:
    """[0, ell_1, .., ell_n] for F = coeffs, F_0 = 1: ell_k = [x^k] x F'/F."""
    ell = [0]
    for n in range(1, len(coeffs)):
        ell.append(n * coeffs[n] - sum(ell[k] * coeffs[n - k] for k in range(1, n)))
    return ell


def node_degree(d: int, delta: int, memo: severi.MemoStore, index: severi.SeveriIndex) -> int:
    """N(d, delta; (), (d)) for d - delta >= 3 from the window d0 = delta,
    delta + 1, delta + 2, read through severi_degree and memo; stored at index."""
    memo.misses += 1
    window = [_log_derivative([severi.severi_degree(severi.SeveriIndex(n, k, (), (n,)), memo)
                               for k in range(delta + 1)])
              for n in range(delta, delta + 3)]
    t = d - delta
    ell = [v + t * (v1 - v) + comb(t, 2) * (v2 - 2 * v1 + v) for v, v1, v2 in zip(*window)]
    coeffs = [1]
    for n in range(1, delta + 1):
        coeffs.append(sum(ell[k] * coeffs[n - k] for k in range(1, n + 1)) // n)
    memo.put(index, coeffs[delta])
    return coeffs[delta]
