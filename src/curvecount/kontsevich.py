"""Counts of rational plane curves through general points.

N(d) is the number of irreducible rational plane curves of degree d
passing through 3d - 1 general points.  Kontsevich's recursion splits a
curve into two rational components of degrees d1 + d2 = d:

    N(1) = 1
    N(d) = sum over d1 + d2 = d, d1, d2 >= 1 of
             N(d1) N(d2) d1 d2 * ( C(3d-4, 3d1-2) d1 d2
                                   - C(3d-4, 3d1-3) d2^2 )

giving 1, 1, 12, 620, 87304, ... exactly.
"""

from __future__ import annotations

from math import comb


def rational_count(d: int, table: dict[int, int] | None = None) -> int:
    """N(d), the number of rational degree-d plane curves through 3d - 1 points.

    table maps each degree known so far to its count, starting from
    {1: 1}; it is filled bottom-up, each entry written once, so a cold
    call never recurses.  The splits (d1, n - d1) and (n - d1, d1) are
    summed as one pair, by C(3n-4, k) = C(3n-4, 3n-4-k).
    """
    if d < 1:
        raise ValueError("degree must be >= 1, got %d" % d)
    if table is None:
        table = {1: 1}
    for n in range(2, d + 1):
        if n in table:
            continue
        m = 3 * n - 4
        total = 0
        for d1 in range(1, n // 2 + 1):
            d2 = n - d1
            pair = (
                table[d1]
                * table[d2]
                * d1
                * d2
                * (
                    2 * comb(m, 3 * d1 - 2) * d1 * d2
                    - comb(m, 3 * d1 - 3) * d2 ** 2
                    - comb(m, 3 * d1 - 1) * d1 ** 2
                )
            )
            total += pair if d1 < d2 else pair // 2  # the middle split once
        table[n] = total
    return table[d]


def rational_table(d_max: int) -> list[tuple[int, int]]:
    """Rows (d, N(d)) for 1 <= d <= d_max, ascending."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    table = {1: 1}
    return [(d, rational_count(d, table)) for d in range(1, d_max + 1)]
