"""Generating polynomial of Severi degrees and Getzler's identity check.

All degrees with d <= D pack into one polynomial in variables u_k (one
per assigned contact order), v_k (unassigned) and z (point conditions),
in divided powers of u and z, so that each coefficient is a degree:

    G(u, v, z) = sum over valid indices of
        N(d, delta, alpha, beta) * u^alpha/alpha! * v^beta * z^r/r!

with r the variety dimension.  Coefficientwise, the Caporaso-Harris
recursion is Getzler's identity on G alone,

    dG/dz = sum_k k v_k dG/du_k + S,
    S := [t^1] exp(sum_k u_k t^k) * G(u, v_k + k t^(-k), z),

S being the degeneration sums: the substitution gives k^c * C(beta + c,
beta), the divided-power product C(alpha, alpha'), and t^1 means
weight(alpha - alpha') = 1 + weight(c), at the child's z-exponent.  Every
side is an integer operator on G, so the check shares no code with the
engine that filled the table, and a wrong coefficient there is caught.
getzler_residual compares the sides on all monomials of weight 2..D,
where both are complete; an empty list verifies the identity, and a
single corrupted degree at d <= D leaves a named nonzero monomial.

A monomial key is (alpha, beta, m): u-exponents, v-exponents, z-exponent.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import seqs, severi

Monomial = tuple[tuple[int, ...], tuple[int, ...], int]


class GeneratingPolynomial(namedtuple("GeneratingPolynomial", "terms")):
    """Sparse polynomial in divided powers of (u, z) times powers of v:
    terms[(alpha, beta, m)] is the coefficient of u^alpha/alpha! v^beta z^m/m!."""

    __slots__ = ()


def severi_generating_function(D: int, table=None) -> GeneratingPolynomial:
    """G truncated at curve degree D (one term per valid index, zeros dropped).

    table: optional layers replacing severi_table(D, D(D-1)/2); the
    fault-injection tests corrupt single degrees in them.
    """
    if D < 1:
        raise ValueError("D must be >= 1, got %d" % D)
    if table is None:
        table = severi.severi_table(D, D * (D - 1) // 2)
    return GeneratingPolynomial({(alpha, beta, dim - delta): n for layer in table
                                 for alpha, beta, degrees, dim, _ in layer
                                 for delta, n in enumerate(degrees) if n})


def _transfer(g: GeneratingPolynomial) -> dict[Monomial, int]:
    """sum_k k * v_k * dG/du_k: moves one assigned contact back to unassigned."""
    out: dict[Monomial, int] = {}
    for (ue, ve, m), n in g.terms.items():
        for k, e in enumerate(ue, start=1):
            if e:
                lowered = seqs.canon(ue[:k - 1] + (e - 1,) + ue[k:])
                key = (lowered, seqs.add(ve, (0,) * (k - 1) + (1,)), m)
                out[key] = out.get(key, 0) + k * n
    return out


@lru_cache(maxsize=None)
def _lowerings(ve):
    """v^ve with v_k -> v_k + k t^(-k): (ve - c, C(ve, c) k^c, weight(c)) per c <= ve."""
    return tuple((seqs.canon(e - f for e, f in zip(ve, c + (0,) * len(ve))),
                  seqs.binomial(ve, c) * seqs.nat_power(c), seqs.weight(c))
                 for c in seqs.subsequences(ve))


@lru_cache(maxsize=None)
def _raisings(ue, w):
    """u^ue/ue! times the t^w part of exp(sum_k u_k t^k), a sum of u^gamma/gamma!:
    (ue + gamma, C(ue + gamma, gamma)) per gamma in partitions(w)."""
    return tuple((raised, seqs.binomial(raised, gamma))
                 for gamma in seqs.partitions(w) for raised in (seqs.add(ue, gamma),))


def _degenerate(g: GeneratingPolynomial, D: int) -> dict[Monomial, int]:
    """S from the terms of weight below D, each feeding terms one degree up."""
    out: dict[Monomial, int] = {}
    for (ue, ve, m), n in g.terms.items():
        if seqs.weight(ue) + seqs.weight(ve) < D:
            for lowered, coeff, w in _lowerings(ve):
                for raised, assigned in _raisings(ue, w + 1):
                    key = (raised, lowered, m)
                    out[key] = out.get(key, 0) + assigned * coeff * n
    return out


def getzler_residual(D: int, table=None) -> list[Monomial]:
    """Monomials of weight 2..D where dG/dz - transfer - S, three operators on
    one G (table as in severi_generating_function), is nonzero."""
    if D < 2:
        raise ValueError("D must be >= 2, got %d" % D)
    g = severi_generating_function(D, table)
    residual = {(ue, ve, m - 1): n for (ue, ve, m), n in g.terms.items() if m}
    for side in (_transfer(g), _degenerate(g, D)):
        for key, n in side.items():
            residual[key] = residual.get(key, 0) - n
    return sorted(key for key, n in residual.items()
                  if n and 2 <= seqs.weight(key[0]) + seqs.weight(key[1]) <= D)
