"""Generating polynomial of Severi degrees and Getzler's identity check.

All degrees with d <= D pack into one polynomial in variables u_k (one
per assigned contact order), v_k (unassigned) and z (point conditions),
in divided powers of u and z, so that each coefficient is a degree:

    G(u, v, z) = sum over valid indices of
        N(d, delta, alpha, beta) * u^alpha/alpha! * v^beta * z^r/r!

with r the variety dimension.  Differentiating the recursion term by
term turns it into Getzler's identity: the z-derivative of G minus the
first-sum transfer

    R := dG/dz - sum_k k * v_k * dG/du_k

must equal the generating function of the degeneration (second) sums,

    S := sum over valid indices with 2 <= d <= D of
        (second-sum value) * u^alpha/alpha! * v^beta * z^(r-1)/(r-1)!.

d/dz and d/du_k lower an exponent by one with no factor, so R and S have
integer coefficients too.  getzler_residual compares them coefficientwise
over all monomials of weight 2..D, where both sides are complete
(weight-1 monomials belong to the d = 1 base case, which the degeneration
sum does not generate).  An empty list verifies the identity; a single
corrupted degree anywhere at d <= D leaves a named nonzero monomial.

A monomial key is (alpha, beta, m): u-exponents, v-exponents, z-exponent.
"""

from __future__ import annotations

from collections import namedtuple

from . import seqs, severi

Monomial = tuple[tuple[int, ...], tuple[int, ...], int]


class GeneratingPolynomial(namedtuple("GeneratingPolynomial", "terms")):
    """Sparse polynomial in divided powers of (u, z) times powers of v:
    terms[(alpha, beta, m)] is the coefficient of u^alpha/alpha! v^beta z^m/m!."""

    __slots__ = ()


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
    return GeneratingPolynomial({(rec.index.alpha, rec.index.beta, rec.dim): rec.degree
                                 for rec in records if rec.degree})


def _transfer(g: GeneratingPolynomial) -> dict[Monomial, int]:
    """sum_k k * v_k * dG/du_k: moves one assigned contact back to unassigned."""
    out: dict[Monomial, int] = {}
    for (ue, ve, m), n in g.terms.items():
        for k, e in enumerate(ue, start=1):
            if e:
                lowered = seqs.canon(ue[:k - 1] + (e - 1,) + ue[k:])
                key = (lowered, seqs.add(ve, seqs.unit(k)), m)
                out[key] = out.get(key, 0) + k * n
    return out


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
    residual = {(ue, ve, m - 1): n for (ue, ve, m), n in g.terms.items() if m}
    for key, n in _transfer(g).items():
        residual[key] = residual.get(key, 0) - n
    # the degeneration sums, each child read from the rows; an absent child
    # has delta' > d'(d'-1)/2, so its degree is 0
    degrees = {rec.index: rec.degree for rec in records}
    for rec in records:
        if rec.index.d >= 2:
            key = (rec.index.alpha, rec.index.beta, rec.dim - 1)
            residual[key] = residual.get(key, 0) - sum(
                coeff * degrees.get(child, 0)
                for coeff, child in severi.second_sum_terms(rec.index))
    return sorted(key for key, n in residual.items()
                  if n and 2 <= seqs.weight(key[0]) + seqs.weight(key[1]) <= D)
