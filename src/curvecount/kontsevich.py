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


class KontsevichTable:
    """Write-once memo of rational curve counts, seeded with N(1) = 1."""

    def __init__(self):
        self._values = {1: 1}

    def get(self, d: int):
        return self._values.get(d)

    def put(self, d: int, value: int) -> None:
        stored = self._values.setdefault(d, value)
        if stored != value:
            raise RuntimeError(
                "count conflict at d = %d: stored %d, recomputed %d"
                % (d, stored, value)
            )

    def __contains__(self, d: int) -> bool:
        return d in self._values

    def __len__(self) -> int:
        return len(self._values)


def rational_count(d: int, table: KontsevichTable | None = None) -> int:
    """N(d), the number of rational degree-d plane curves through 3d - 1 points.

    Fills the table bottom-up, so a cold call never recurses.
    """
    if d < 1:
        raise ValueError("degree must be >= 1, got %d" % d)
    if table is None:
        table = KontsevichTable()
    for n in range(2, d + 1):
        if n in table:
            continue
        total = 0
        for d1 in range(1, n):
            d2 = n - d1
            total += (
                table.get(d1)
                * table.get(d2)
                * d1
                * d2
                * (
                    comb(3 * n - 4, 3 * d1 - 2) * d1 * d2
                    - comb(3 * n - 4, 3 * d1 - 3) * d2 ** 2
                )
            )
        table.put(n, total)
    return table.get(d)


def rational_table(d_max: int) -> list[tuple[int, int]]:
    """Rows (d, N(d)) for 1 <= d <= d_max, ascending."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    table = KontsevichTable()
    return [(d, rational_count(d, table)) for d in range(1, d_max + 1)]
