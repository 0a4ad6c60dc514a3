"""The WDVV check for rational counts, in closed form per degree.

The genus-zero counts N(d) assemble into the quantum part of the
Gromov-Witten potential of the plane,

    Phi_q(x1, x2) = sum over d >= 1 of N(d) * x2^(3d-1)/(3d-1)! * e^(d x1),

truncated here at x1-degree A and x2-degree 3*d_max - 1; each function
below takes the two ints (d_max, x1_bound = A).  (The classical part
(x0^2 x2 + x0 x1^2)/2 drops out of every derivative taken below.)
Associativity of the quantum product is one scalar equation:

    Phi_222 = Phi_112^2 - Phi_111 * Phi_122          (WDVV)

with subscripts denoting partials in x1/x2.  In divided powers
x1^a/a! x2^b/b! the potential's coefficients are the ints N(d) d^a, a
partial is an index shift, and a product weights each pair of terms by
C(a, a1) C(b, b1).  The x1 half of each product collapses,
sum over a1 of C(a, a1) d1^a1 d2^(a-a1) = d^a with d = d1 + d2, so the
residual sits at b = 3d - 4 only, with divided-power coefficient d^a r(d):

    r(d) = N(d) - sum over d1 + d2 = d, d1, d2 >= 1 of N(d1) N(d2) d1^2 d2
             * (d2 C(3d-4, 3d1-2) - d1 C(3d-4, 3d1-1)),

the textbook binomial form of Kontsevich's recursion; it shares no code
with kontsevich.rational_table, which carries its binomials.  Three
x1-derivatives cost three orders of x1, so the truncation determines the
residual on the window a <= A - 3, b = 3d - 4 for 2 <= d <= d_max.  The
empty list of nonzero entries there certifies the identity, and any
single wrong N(d) shows up at b = 3d - 4, already at a = 0.
"""

from __future__ import annotations

from math import comb, factorial

from . import kontsevich


def wdvv_window(d_max: int, x1_bound: int) -> list[tuple[int, int]]:
    """Exponent pairs the truncation determines completely in the residual.

    Three x1-derivatives cost three orders of x1, so a <= x1_bound - 3;
    every residual monomial sits at b = 3d - 4 for some 2 <= d <= d_max.
    """
    return [(a, 3 * d - 4) for d in range(2, d_max + 1) for a in range(x1_bound - 2)]


def wdvv_residual(d_max: int, x1_bound: int):
    """Nonzero residual coefficients of the WDVV identity on the window, for the
    counts of kontsevich.rational_table(d_max).

    Returns a list of ((a, b), Fraction of x1^a x2^b) sorted by exponent;
    empty means the identity holds for every completely-determined coefficient.
    Requires x1_bound >= 3 (the check takes three x1-derivatives).
    """
    if x1_bound < 3:
        raise ValueError("x1_bound must be >= 3 to form the residual")
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    n = [0] + [count for _, count in kontsevich.rational_table(d_max)]
    r = {d: n[d] - sum(n[d1] * n[d - d1] * d1 * d1 * (d - d1)
                       * ((d - d1) * comb(3 * d - 4, 3 * d1 - 2)
                          - d1 * comb(3 * d - 4, 3 * d1 - 1)) for d1 in range(1, d))
         for d in range(2, d_max + 1)}
    out = []
    for a, b in sorted(wdvv_window(d_max, x1_bound)):
        d = (b + 4) // 3
        if r[d]:
            from fractions import Fraction  # a clean run loads neither it nor decimal
            out.append(((a, b), Fraction(r[d] * d ** a, factorial(a) * factorial(b))))
    return out
