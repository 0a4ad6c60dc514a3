"""Counts of rational plane curves through general points.

N(d) is the number of irreducible rational plane curves of degree d
passing through 3d - 1 general points.  Kontsevich's recursion splits a
curve into two rational components of degrees d1 + d2 = d:

    N(1) = 1
    N(d) = sum over d1 + d2 = d, d1, d2 >= 1 of
             N(d1) N(d2) d1 d2 * ( C(3d-4, 3d1-2) d1 d2
                                   - C(3d-4, 3d1-3) d2^2 )

giving 1, 1, 12, 620, 87304, ... exactly.  With M = 3d - 2, a = 3d1 - 1
and b = 3d2 - 1 = M - a, each binomial of the splits (d1, d2) and
(d2, d1) is one C(M, a) times a small factor:

    C(3d-4, 3d1-2) = C(M, a) a b / (M (M-1))
    C(3d-4, 3d1-3) = C(M, a) a (a-1) / (M (M-1))
    C(3d-4, 3d1-1) = C(M, a) b (b-1) / (M (M-1))

so the two splits sum to N(d1) N(d2) C(M, a) q / (M (M-1)), with
q = d1 d2 (2 d1 d2 a b - d2^2 a (a-1) - d1^2 b (b-1)) a small integer.

The binomial rides on the larger part: for n = k+1 .. 2k-1, degree k is
the d2 of one pair and is held as N(k) C(3n-2, 3k-1), so a pair costs one
big product.  Each step of n multiplies it by (M+1)(M+2)(M+3) and divides
by (a+1)(a+2)(a+3), exactly, as the quotient N(k) C(M+3, 3k-1) is an int.
At the middle split n = 2k, and at the end of the table, the held value
is a multiple of its binomial, and one exact division gives N(k) back.
"""

from __future__ import annotations

from math import comb


def rational_table(d_max: int) -> list[tuple[int, int]]:
    """Rows (d, N(d)) for 1 <= d <= d_max, ascending, filled bottom-up with
    one int per degree held in either form above, so nothing recurses."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    held = [0, 1]
    for n in range(2, d_max + 1):
        m = 3 * n - 2
        rise = (m + 1) * (m + 2) * (m + 3)
        held[n - 1] *= m * (m - 1) // 2  # C(M, 3(n-1) - 1): n - 1 is now carried
        total = 0
        for d1 in range(1, n // 2 + 1):
            d2, a, b = n - d1, 3 * d1 - 1, 3 * (n - d1) - 1
            q = d1 * d2 * (2 * d1 * d2 * a * b - d2 * d2 * a * (a - 1)
                           - d1 * d1 * b * (b - 1))
            if d1 < d2:
                total += held[d1] * q * held[d2]
                held[d2] = held[d2] * rise // ((a + 1) * (a + 2) * (a + 3))
            else:  # the middle split, counted once; d2 leaves the carried form
                plain = held[d2] // comb(m, a)
                total += plain * (q // 2) * held[d2]
                held[d2] = plain
        held.append(total // (m * (m - 1)))
    for k in range(d_max // 2 + 1, d_max):
        held[k] //= comb(3 * d_max + 1, 3 * k - 1)
    return [(d, held[d]) for d in range(1, d_max + 1)]
