"""Generating polynomial of Severi degrees and Getzler's identity check.

All degrees with d <= D pack into one polynomial in variables u_k (one
per assigned contact order), v_k (unassigned) and z (point conditions):

    G(u, v, z) = sum over valid indices of
        N(d, delta, alpha, beta) * u^alpha/alpha! * v^beta * z^r/r!

with r the variety dimension.  Differentiating the recursion term by
term turns it into Getzler's identity: the z-derivative of G minus the
first-sum transfer

    R := dG/dz - sum_k k * v_k * dG/du_k

must equal the generating function of the degeneration (second) sums,

    S := sum over valid indices with 2 <= d <= D of
        (second-sum value) * u^alpha/alpha! * v^beta * z^(r-1)/(r-1)!.

getzler_residual compares the two coefficientwise over all monomials of
weight 2..D, where both sides are complete (weight-1 monomials belong to
the d = 1 base case, which the degeneration sum does not generate).  An
empty list verifies the identity; a single corrupted degree anywhere at
d < D leaves a named nonzero monomial.

A monomial key is (alpha, beta, m): u-exponents, v-exponents, z-exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import seqs, severi

Monomial = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class GeneratingPolynomial:
    """Sparse exact polynomial in (u, v, z), keyed by Monomial."""

    terms: dict
    max_degree: int

    def coeff(self, key: Monomial) -> Fraction:
        return self.terms.get(key, Fraction(0))


def _table(D: int) -> list[severi.DegreeRecord]:
    """Every row of degree at most D, from the layered table engine."""
    return severi.severi_table(D, D * (D - 1) // 2)


def severi_generating_function(D: int, records=None) -> GeneratingPolynomial:
    """G truncated at curve degree D (one term per valid index, zeros dropped).

    records: optional rows replacing severi_table(D, D(D-1)/2); the
    fault-injection tests corrupt single degrees through them.
    """
    if D < 1:
        raise ValueError("D must be >= 1, got %d" % D)
    if records is None:
        records = _table(D)
    terms: dict[Monomial, Fraction] = {}
    for rec in records:
        if rec.degree:
            alpha, beta = rec.index.alpha, rec.index.beta
            terms[alpha, beta, rec.dim] = Fraction(
                rec.degree, seqs.fact(alpha) * factorial(rec.dim))
    return GeneratingPolynomial(terms, D)


def _dz(g: GeneratingPolynomial) -> dict:
    out: dict[Monomial, Fraction] = {}
    for (ue, ve, m), q in g.terms.items():
        if m > 0:
            key = (ue, ve, m - 1)
            out[key] = out.get(key, Fraction(0)) + q * m
    return out


def _transfer(g: GeneratingPolynomial) -> dict:
    """sum_k k * v_k * dG/du_k: moves one assigned contact back to unassigned."""
    out: dict[Monomial, Fraction] = {}
    for (ue, ve, m), q in g.terms.items():
        for pos, e in enumerate(ue):
            if e == 0:
                continue
            k = pos + 1
            lowered = seqs.canon(ue[:pos] + (e - 1,) + ue[pos + 1:])
            key = (lowered, seqs.add(ve, seqs.unit(k)), m)
            out[key] = out.get(key, Fraction(0)) + q * e * k
    return out


def _second_sum_poly(records) -> dict:
    """The degeneration sums of every row with d >= 2, each child read from
    the rows; an absent child has delta' > d'(d'-1)/2, so its degree is 0."""
    degrees = {rec.index: rec.degree for rec in records}
    out: dict[Monomial, Fraction] = {}
    for rec in records:
        index, m = rec.index, rec.dim - 1
        if index.d < 2:
            continue
        value = sum(coeff * degrees.get(child, 0)
                    for coeff, child in severi.second_sum_terms(index))
        if value:
            out[index.alpha, index.beta, m] = Fraction(
                value, seqs.fact(index.alpha) * factorial(m))
    return out


def _monomial_weight(key: Monomial) -> int:
    return seqs.weight(key[0]) + seqs.weight(key[1])


def getzler_residual(D: int, records=None) -> list[Monomial]:
    """Monomials where dG/dz - transfer disagrees with the degeneration sums.

    Both sides are read from one table (records, as in
    severi_generating_function) and compared on every monomial of weight
    2..D.  Empty list: identity verified at truncation D.
    """
    if D < 2:
        raise ValueError("D must be >= 2, got %d" % D)
    if records is None:
        records = _table(D)
    g = severi_generating_function(D, records)
    dz = _dz(g)
    moved = _transfer(g)
    left: dict[Monomial, Fraction] = dict(dz)
    for key, q in moved.items():
        left[key] = left.get(key, Fraction(0)) - q
    right = _second_sum_poly(records)
    bad = []
    for key in set(left) | set(right):
        if not 2 <= _monomial_weight(key) <= D:
            continue
        if left.get(key, Fraction(0)) != right.get(key, Fraction(0)):
            bad.append(key)
    bad.sort()
    return bad
