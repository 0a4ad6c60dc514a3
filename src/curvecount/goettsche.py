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
d = CERTIFIED_DELTA + 2.  So ell_k is a quadratic from d0 = window_start(k) on,
and d0 never falls as k grows: at d >= window_start(delta), F_d up to x^delta
follows from ell_1..ell_delta by the identity, each division by n exact.

NODE_CONSTANTS freezes ell_k(d0 + t) = v + t D1 + C(t, 2) D2 as (d0, v, D1,
D2) for k <= CERTIFIED_DELTA, read from severi_table(8, 10); node_degree
evaluates them in O(delta^2) int operations, with no memo and no recursion,
and raises ArithmeticError at a division that is not exact, which only a wrong
constant or row makes.  Above, extrapolate reads ell_k at the window d0..d0 +
2, d0 = delta, and takes t = d - d0 >= 3, the least the window allows; it
pays: 0.23 against 0.57 s for the recursion at (17, 12) (median of 5 fresh
processes, Python 3.11.7, Xeon).

This module imports nothing from the package and never touches a memo; severi
imports it only when a query may take a route (inside severi.py, the route
raised deep-query's peak RSS, though it never routes, by 0.18 MB).
"""

from __future__ import annotations

from math import comb

CERTIFIED_DELTA = 10  # tests/test_severi.py checks ell_k through d = CERTIFIED_DELTA + 2
NODE_CONSTANTS = (  # (d0, v, D1, D2) of ell_k, k = 1..CERTIFIED_DELTA, d0 = window_start(k)
    (1, 0, 3, 6), (2, -9, -93, -84), (3, 1017, 2466, 1380), (3, -10242, -36585, -24120),
    (4, 652887, 993906, 435456), (4, -9266661, -16641324, -8020656),
    (5, 415044594, 432504036, 149769864), (5, -6733151244, -7675405137, -2824761960),
    (6, 247625908011, 191118832110, 53685453360),
    (6, -4292006518125, -3504322720404, -1026481905504))


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


def node_degree(d: int, delta: int, constants=NODE_CONSTANTS) -> int:
    """N(d, delta; (), (d)) from (d0, v, D1, D2) per k = 1..delta, all d0 <= d: by
    default the frozen ones, for delta <= CERTIFIED_DELTA, d >= window_start(delta)."""
    ell = [0] + [v + (d - d0) * d1 + comb(d - d0, 2) * d2
                 for d0, v, d1, d2 in constants[:delta]]
    coeffs = [1]
    for n in range(1, delta + 1):
        value, rest = divmod(sum(ell[k] * coeffs[n - k] for k in range(1, n + 1)), n)
        if rest:
            raise ArithmeticError("inexact division by %d: a wrong node constant or row" % n)
        coeffs.append(value)
    return coeffs[-1]


def extrapolate(rows: list[list[int]], t: int) -> int:
    """N(d, delta; (), (d)) from the window rows d0..d0 + 2 of N(n, k; (), (n)),
    k <= delta, and t = d - d0 >= 3: node_degree on the window's constants."""
    window = list(zip(*map(_log_derivative, rows)))[1:]  # (ell_k(d0 + i) for i < 3) per k
    return node_degree(t, len(window), [(0, a, b - a, c - 2 * b + a) for a, b, c in window])
