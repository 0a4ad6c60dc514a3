"""Truncated exact power series and the WDVV check for rational counts.

The genus-zero counts N(d) assemble into the quantum part of the
Gromov-Witten potential of the plane,

    Phi_q(x1, x2) = sum over d >= 1 of N(d) * x2^(3d-1)/(3d-1)! * e^(d x1),

truncated here at x1-degree A and x2-degree 3*d_max - 1; each function
below takes the two ints (d_max, x1_bound = A).  (The classical
part (x0^2 x2 + x0 x1^2)/2 involves only x0 and drops out of every
derivative taken below.)
Associativity of the quantum product is one scalar equation:

    Phi_222 = Phi_112^2 - Phi_111 * Phi_122          (WDVV)

with subscripts denoting partials in x1/x2.  wdvv_residual evaluates the
difference on the window of coefficients that the truncation determines
completely and returns the nonzero ones; the empty list certifies the
identity, and any single wrong N(d) shows up as a nonzero entry.

Divided powers: series live in the basis x1^a/a! x2^b/b!, where the
potential's coefficients are the ints N(d) d^a, a partial is an index shift
and a product weights each pair of terms by C(a, a1) C(b, b1).  Only the
residual's nonzero entries go back to ordinary (Fraction) coefficients.

Truncation discipline: a series carries bounds (bound1, bound2) and only
stores coefficients with exponents inside them.  Sums and products carry
the entrywise minimum of the operand bounds; a partial derivative lowers
the bound of its variable by one.  Coefficients outside the bounds are
unknown rather than zero, which is why the residual is only read on the
window a <= A - 3, b = 3d - 4 for 2 <= d <= d_max.
"""

from __future__ import annotations

from math import comb, factorial

from . import kontsevich


class BivariateSeries:
    """Exact bivariate series truncated at exponent bounds (bound1, bound2).

    coeffs[(a, b)] is the coefficient of x1^a/a! x2^b/b!, stored as given;
    immutable by convention, absent means zero, nothing outside the bounds.
    """

    __slots__ = ("coeffs", "bound1", "bound2")

    def __init__(self, coeffs=None, *, bound1: int, bound2: int):
        self.bound1 = bound1
        self.bound2 = bound2
        store = {}
        for (a, b), value in (coeffs or {}).items():
            if a > bound1 or b > bound2:
                raise ValueError(
                    "coefficient (%d, %d) outside bounds (%d, %d)"
                    % (a, b, bound1, bound2)
                )
            if value:
                store[(a, b)] = value
        self.coeffs = store

    def coeff(self, a: int, b: int):
        return self.coeffs.get((a, b), 0)

    def _merged(self, other, sign: int) -> "BivariateSeries":
        b1 = min(self.bound1, other.bound1)
        b2 = min(self.bound2, other.bound2)
        out = {}
        for (a, b), value in self.coeffs.items():
            if a <= b1 and b <= b2:
                out[(a, b)] = value
        for (a, b), value in other.coeffs.items():
            if a <= b1 and b <= b2:
                out[(a, b)] = out.get((a, b), 0) + sign * value
        return BivariateSeries(out, bound1=b1, bound2=b2)

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __mul__(self, other):
        b1 = min(self.bound1, other.bound1)
        b2 = min(self.bound2, other.bound2)
        out = {}
        for (a1, e1), v1 in self.coeffs.items():
            for (a2, e2), v2 in other.coeffs.items():
                a, b = a1 + a2, e1 + e2
                if a > b1 or b > b2:
                    continue  # product exponent truncated away
                out[(a, b)] = out.get((a, b), 0) + comb(a, a1) * comb(b, e1) * v1 * v2
        return BivariateSeries(out, bound1=b1, bound2=b2)

    def partial(self, var: int) -> "BivariateSeries":
        """Formal partial derivative, an index shift; var's bound drops by one."""
        if var not in (1, 2):
            raise ValueError("variable must be 1 or 2, got %r" % (var,))
        out = {}
        for (a, b), value in self.coeffs.items():
            if var == 1 and a > 0:
                out[(a - 1, b)] = value
            elif var == 2 and b > 0:
                out[(a, b - 1)] = value
        if var == 1:
            return BivariateSeries(out, bound1=self.bound1 - 1, bound2=self.bound2)
        return BivariateSeries(out, bound1=self.bound1, bound2=self.bound2 - 1)

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.bound1 == other.bound1
            and self.bound2 == other.bound2
        )

    def __repr__(self):
        return "BivariateSeries(%r, bound1=%d, bound2=%d)" % (
            dict(sorted(self.coeffs.items())),
            self.bound1,
            self.bound2,
        )


def quantum_potential(d_max: int, x1_bound: int, counts=None) -> BivariateSeries:
    """The quantum potential as a BivariateSeries, truncated at (d_max, x1_bound).

    Coefficient of x1^a/a! * x2^(3d-1)/(3d-1)! is N(d) * d^a.  The
    counts argument, a mapping d -> N(d), replaces the computed table
    (fault-injection hook; tests corrupt single entries through it).
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1, got %d" % d_max)
    if x1_bound < 0:
        raise ValueError("x1_bound must be >= 0, got %d" % x1_bound)
    if counts is None:
        counts = dict(kontsevich.rational_table(d_max))
    out = {}
    for d in range(1, d_max + 1):
        n = counts[d]
        b = 3 * d - 1
        for a in range(x1_bound + 1):
            out[(a, b)] = n * d ** a
    return BivariateSeries(out, bound1=x1_bound, bound2=3 * d_max - 1)


def wdvv_window(d_max: int, x1_bound: int) -> list[tuple[int, int]]:
    """Exponent pairs the truncation determines completely in the residual.

    Three x1-derivatives cost three orders of x1, so a <= x1_bound - 3;
    every residual monomial sits at b = 3d - 4 for some 2 <= d <= d_max.
    """
    return [(a, 3 * d - 4) for d in range(2, d_max + 1) for a in range(x1_bound - 2)]


def wdvv_residual(d_max: int, x1_bound: int, counts=None):
    """Nonzero residual coefficients of the WDVV identity on the window.

    Returns a list of ((a, b), Fraction of x1^a x2^b) sorted by exponent;
    empty means the identity holds for every completely-determined coefficient.
    Requires x1_bound >= 3 (the check takes three x1-derivatives).
    """
    if x1_bound < 3:
        raise ValueError("x1_bound must be >= 3 to form the residual")
    f = quantum_potential(d_max, x1_bound, counts)
    f1 = f.partial(1)
    f11 = f1.partial(1)
    f111 = f11.partial(1)
    f112 = f11.partial(2)
    f122 = f1.partial(2).partial(2)
    f222 = f.partial(2).partial(2).partial(2)
    residual = f222 - f112 * f112 + f111 * f122
    out = []
    for a, b in sorted(wdvv_window(d_max, x1_bound)):
        value = residual.coeff(a, b)
        if value:
            from fractions import Fraction  # a clean run loads neither it nor decimal
            out.append(((a, b), Fraction(value, factorial(a) * factorial(b))))
    return out
