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
"""

from __future__ import annotations


def rational_count(d: int, table: dict[int, int] | None = None) -> int:
    """N(d), the number of rational degree-d plane curves through 3d - 1 points.

    table maps each degree known so far to its count, starting from
    {1: 1}; it is filled bottom-up, each entry written once, so a cold
    call never recurses.  Each pair of splits is one term of the form above,
    C(M, a) steps from pair to pair, and M (M-1) is divided out once per n.
    """
    if d < 1:
        raise ValueError("degree must be >= 1, got %d" % d)
    if table is None:
        table = {1: 1}
    for n in range(2, d + 1):
        if n in table:
            continue
        m = 3 * n - 2
        binom = m * (m - 1) // 2  # C(M, a) at d1 = 1, a = 2
        total = 0
        for d1 in range(1, n // 2 + 1):
            d2, a, b = n - d1, 3 * d1 - 1, 3 * (n - d1) - 1
            q = d1 * d2 * (2 * d1 * d2 * a * b - d2 * d2 * a * (a - 1)
                           - d1 * d1 * b * (b - 1))
            if d1 == d2:
                q //= 2  # the middle split once
            total += table[d1] * table[d2] * binom * q
            # C(M, a + 3) = C(M, a) b (b-1) (b-2) / ((a+1) (a+2) (a+3))
            binom = binom * (b * (b - 1) * (b - 2)) // ((a + 1) * (a + 2) * (a + 3))
        table[n] = total // (m * (m - 1))
    return table[d]


def rational_table(d_max: int) -> list[tuple[int, int]]:
    """Rows (d, N(d)) for 1 <= d <= d_max, ascending."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    table = {1: 1}
    return [(d, rational_count(d, table)) for d in range(1, d_max + 1)]
