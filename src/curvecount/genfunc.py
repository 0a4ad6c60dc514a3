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


def _default_degrees():
    memo = severi.MemoStore()
    return lambda index: severi.severi_degree(index, memo)


def severi_generating_function(D: int, degrees=None) -> GeneratingPolynomial:
    """G truncated at curve degree D (one term per valid index, zeros dropped).

    degrees: optional index -> integer replacing the recursion engine;
    the fault-injection tests corrupt single values through it.
    """
    if D < 1:
        raise ValueError("D must be >= 1, got %d" % D)
    if degrees is None:
        degrees = _default_degrees()
    terms: dict[Monomial, Fraction] = {}
    for d in range(1, D + 1):
        for index in severi.all_indices(d):
            n = degrees(index)
            if n == 0:
                continue
            r = severi.dimension(index)
            key = (index.alpha, index.beta, r)
            value = Fraction(n, seqs.fact(index.alpha) * factorial(r))
            terms[key] = terms.get(key, Fraction(0)) + value
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


def _second_sum_poly(D: int, degrees) -> dict:
    out: dict[Monomial, Fraction] = {}
    for d in range(2, D + 1):
        for index in severi.all_indices(d):
            value = sum(
                coeff * degrees(child)
                for coeff, child in severi.second_sum_terms(index)
            )
            if value == 0:
                continue
            r = severi.dimension(index)
            key = (index.alpha, index.beta, r - 1)
            q = Fraction(value, seqs.fact(index.alpha) * factorial(r - 1))
            out[key] = out.get(key, Fraction(0)) + q
    return out


def _monomial_weight(key: Monomial) -> int:
    return seqs.weight(key[0]) + seqs.weight(key[1])


def getzler_residual(D: int, degrees=None) -> list[Monomial]:
    """Monomials where dG/dz - transfer disagrees with the degeneration sums.

    Both sides are compared on every monomial of weight 2..D.  Empty
    list: identity verified at truncation D.
    """
    if D < 2:
        raise ValueError("D must be >= 2, got %d" % D)
    if degrees is None:
        degrees = _default_degrees()
    g = severi_generating_function(D, degrees)
    dz = _dz(g)
    moved = _transfer(g)
    left: dict[Monomial, Fraction] = dict(dz)
    for key, q in moved.items():
        left[key] = left.get(key, Fraction(0)) - q
    right = _second_sum_poly(D, degrees)
    bad = []
    for key in set(left) | set(right):
        if not 2 <= _monomial_weight(key) <= D:
            continue
        if left.get(key, Fraction(0)) != right.get(key, Fraction(0)):
            bad.append(key)
    bad.sort()
    return bad
