"""Generating function of Severi degrees and Getzler's identity check.

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

A monomial is (alpha, beta, m): u-, v- and z-exponents.  d/dz shifts m by
one and the other operators keep it, so G is one z-series {m: n} per shape
(alpha, beta), a table row, and each operator acts once per pair of shapes.
"""

from __future__ import annotations

from functools import lru_cache

from . import seqs, severi

Monomial = tuple[tuple[int, ...], tuple[int, ...], int]


def _series(table) -> dict:
    """G by shape: (alpha, beta) -> {m: n}, each row's nonzero degrees keyed by
    z-exponent m = dim - delta, n the coefficient of u^alpha/alpha! v^beta z^m/m!."""
    return {(alpha, beta): {dim - delta: n for delta, n in enumerate(degrees) if n}
            for layer in table for alpha, beta, degrees, dim, _ in layer}


def _transfers(ue, ve):
    """sum_k k v_k d/du_k on u^ue/ue! v^ve: (ue - e_k, ve + e_k) and k, per ue_k > 0."""
    return [((seqs.canon(ue[:k - 1] + (e - 1,) + ue[k:]), seqs.add(ve, (0,) * (k - 1) + (1,))),
             k) for k, e in enumerate(ue, start=1) if e]


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


def _feeds(ue, ve):
    """S on u^ue/ue! v^ve, shapes one degree up: (ue + gamma, ve - c) and its factor."""
    return [((raised, lowered), assigned * coeff) for lowered, coeff, w in _lowerings(ve)
            for raised, assigned in _raisings(ue, w + 1)]


def _subtract(residual, series, targets) -> None:
    """Subtract from residual the operator, on series, that sends the z-series of
    shape (alpha, beta) to factor times itself at each (shape, factor) of targets."""
    for shape, terms in series.items():
        for target, factor in targets(*shape):
            out = residual.setdefault(target, {})
            for m, n in terms.items():
                out[m] = out.get(m, 0) - factor * n


def getzler_residual(D: int, table=None) -> list[Monomial]:
    """Monomials of weight 2..D where dG/dz - transfer - S, three operators on
    one G, is nonzero.  table: optional layers replacing severi_table(D,
    D(D-1)/2); the fault-injection tests corrupt single degrees in them."""
    if D < 2:
        raise ValueError("D must be >= 2, got %d" % D)
    if table is None:
        table = severi.severi_table(D, D * (D - 1) // 2)
    g = _series(table)
    residual = {shape: {m - 1: n for m, n in terms.items() if m}  # dG/dz
                for shape, terms in g.items()}
    _subtract(residual, g, _transfers)
    _subtract(residual, {(ue, ve): terms for (ue, ve), terms in g.items()
                         if seqs.weight(ue) + seqs.weight(ve) < D}, _feeds)
    return sorted((ue, ve, m) for (ue, ve), terms in residual.items()
                  if 2 <= seqs.weight(ue) + seqs.weight(ve) <= D
                  for m, n in terms.items() if n)
