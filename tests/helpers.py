"""Independent oracles for the test suite.

Everything here is deliberately written against the raw defining
formulas, sharing no code with the package: sequences are re-derived
with bounded brute force, the degeneration sum is enumerated straight
from its constraints, the rational counts sum every split (d1, d - d1)
on its own (exactly, and modulo a prime at higher degree), and potential
coefficients come from the closed form.
Expected values frozen in the tests were produced by these oracles.
The last section only reshapes severi_table's layers for the tests: into
one DegreeRecord per row, or with one degree corrupted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial


# ----------------------------------------------------------- sequences
def canon(t):
    t = tuple(t)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def size(t):
    return sum(t)


def weight(t):
    return sum((i + 1) * e for i, e in enumerate(t))


def seqs_of_weight(w):
    """Every canonical multiplicity vector of weight w, by bounded search."""
    if w == 0:
        return [()]
    ranges = [range(w // k + 1) for k in range(1, w + 1)]
    found = {canon(raw) for raw in product(*ranges) if weight(raw) == w}
    return sorted(found)


def profiles(w, k=1):
    """Canonical multiplicity vectors (m_k, m_k+1, ...) of weight w in parts
    >= k, each once, by choosing m_k and recursing on the parts above k."""
    if w == 0:
        yield ()
        return
    for m in range(w // k + 1):
        if m * k == w:
            yield (m,)
        elif k < w - m * k:  # a part above k still fits
            for rest in profiles(w - m * k, k + 1):
                yield (m,) + rest


def all_indices(d, delta_max=None):
    """Every valid raw index (d, delta, alpha, beta) with canonical profiles and
    0 <= delta <= min(delta_max, d(d-1)/2), sorted."""
    top = d * (d - 1) // 2 if delta_max is None else min(d * (d - 1) // 2, delta_max)
    return sorted((d, delta, alpha, beta) for delta in range(top + 1)
                  for w in range(d + 1)
                  for alpha in profiles(w) for beta in profiles(d - w))


def leq(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return all(x <= y for x, y in zip(a, b))


def seq_sub(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return canon(x - y for x, y in zip(a, b))


def seq_add(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return canon(x + y for x, y in zip(a, b))


def seq_binom(top, bot):
    n = max(len(top), len(bot))
    top = tuple(top) + (0,) * (n - len(top))
    bot = tuple(bot) + (0,) * (n - len(bot))
    result = 1
    for t, b in zip(top, bot):
        result *= comb(t, b) if b <= t else 0
    return result


def nat_power(c):
    result = 1
    for i, e in enumerate(c):
        result *= (i + 1) ** e
    return result


def subseqs(a):
    return sorted({canon(t) for t in product(*(range(x + 1) for x in a))})


# ------------------------------------------------- degeneration oracle
def oracle_first_sum(d, delta, alpha, beta):
    """Specialization terms (j, (d, delta, alpha + e_j, beta - e_j)), in order
    of j, for every j with beta_j > 0."""
    out = []
    for j in range(1, len(beta) + 1):
        if beta[j - 1] > 0:
            e_j = canon([0] * (j - 1) + [1])
            out.append((j, (d, delta, seq_add(alpha, e_j), seq_sub(beta, e_j))))
    return out


def oracle_second_sum(d, delta, alpha, beta):
    """Degeneration terms enumerated from the raw constraints.

    alpha' <= alpha, beta' >= beta, 0 <= delta' <= delta,
    delta - delta' + |beta' - beta| = d - 1, and the child satisfies
    weight(alpha') + weight(beta') = d - 1.
    """
    out = []
    for ap in subseqs(alpha):
        wb = (d - 1) - weight(ap)
        if wb < 0:
            continue
        for bp in seqs_of_weight(wb):
            if not leq(beta, bp):
                continue
            c = seq_sub(bp, beta)
            dp = delta - (d - 1) + size(c)
            if not 0 <= dp <= delta:
                continue
            coeff = nat_power(c) * seq_binom(alpha, ap) * seq_binom(bp, beta)
            if coeff == 0:
                continue
            out.append((coeff, (d - 1, dp, ap, bp)))
    return out


def oracle_degree(d, delta, alpha, beta, memo=None):
    """Severi degree by direct recursion over the oracle's own sums."""
    if memo is None:
        memo = {}
    assert weight(alpha) + weight(beta) == d
    if delta < 0 or delta > d * (d - 1) // 2:
        return 0
    if d == 1:
        return 1
    key = (d, delta, alpha, beta)
    if key in memo:
        return memo[key]
    total = 0
    for j, child in oracle_first_sum(d, delta, alpha, beta):
        total += j * oracle_degree(*child, memo)
    for coeff, child in oracle_second_sum(d, delta, alpha, beta):
        total += coeff * oracle_degree(*child, memo)
    memo[key] = total
    return total


# ------------------------------------------------- kontsevich, naive
@lru_cache(maxsize=None)
def naive_rational_count(d):
    """Direct evaluation of the splitting recursion, one term per ordered split."""
    if d == 1:
        return 1
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        total += (
            naive_rational_count(d1)
            * naive_rational_count(d2)
            * d1
            * d2
            * (
                comb(3 * d - 4, 3 * d1 - 2) * d1 * d2
                - comb(3 * d - 4, 3 * d1 - 3) * d2 ** 2
            )
        )
    return total


def rational_counts_mod(p, dmax):
    """[N(1), ..., N(dmax)] modulo the prime p > 3 dmax, by the same ordered
    splits and two binomials as naive_rational_count, from factorials mod p."""
    top = max(3 * dmax - 4, 0)
    fact = [1] * (top + 1)
    for k in range(1, top + 1):
        fact[k] = fact[k - 1] * k % p
    inv = [pow(f, p - 2, p) for f in fact]

    def binom(n, k):
        return fact[n] * inv[k] % p * inv[n - k] % p if 0 <= k <= n else 0

    counts = [0, 1]  # counts[d] = N(d) mod p
    for d in range(2, dmax + 1):
        total = 0
        for d1 in range(1, d):
            d2 = d - d1
            total += (
                counts[d1] * counts[d2] % p * d1 * d2
                * (binom(3 * d - 4, 3 * d1 - 2) * d1 * d2
                   - binom(3 * d - 4, 3 * d1 - 3) * d2 ** 2)
            )
        counts.append(total % p)
    return counts[1:]


# -------------------------------------------------- potential, direct
def phi_coeff(a, b, counts):
    """Coefficient of x1^a x2^b in the potential, from the closed form.

    The degree-d summand is N(d) x2^(3d-1)/(3d-1)! e^(d x1), so the
    coefficient is N(d) d^a / (a! b!) when b = 3d - 1.
    """
    if (b + 1) % 3 != 0:
        return Fraction(0)
    d = (b + 1) // 3
    if d < 1 or d not in counts:
        return Fraction(0)
    return Fraction(counts[d] * d ** a, factorial(a) * factorial(b))


def partial_coeff(a, b, i, j, counts):
    """Coefficient of x1^a x2^b in the (i, j)-fold partial of the potential."""
    return (
        phi_coeff(a + i, b + j, counts)
        * Fraction(factorial(a + i), factorial(a))
        * Fraction(factorial(b + j), factorial(b))
    )


def oracle_wdvv_coeff(a, b, counts):
    """Residual coefficient at x1^a x2^b, by direct convolution."""
    r = partial_coeff(a, b, 0, 3, counts)
    for a1 in range(a + 1):
        for b1 in range(b + 1):
            a2, b2 = a - a1, b - b1
            r -= partial_coeff(a1, b1, 2, 1, counts) * partial_coeff(
                a2, b2, 2, 1, counts
            )
            r += partial_coeff(a1, b1, 3, 0, counts) * partial_coeff(
                a2, b2, 1, 2, counts
            )
    return r


# ------------------------------------------- severi_table layers, reshaped
def table_rows(table):
    """One DegreeRecord per (d, delta, alpha, beta) of a severi_table table,
    ordered by (d, delta, alpha, beta), as the cache writes its lines."""
    from curvecount.cache import DegreeRecord
    from curvecount.severi import SeveriIndex

    return [DegreeRecord(SeveriIndex(d, delta, alpha, beta), degrees[delta],
                         dim - delta, genus - delta)
            for d, layer in enumerate(table, start=1)
            for delta in range(len(layer[0][2]))
            for alpha, beta, degrees, dim, genus in layer]


def corrupted(table, target, shift=1):
    """A copy of the table with shift added to the degree at the target index."""
    d, delta, alpha, beta = target
    out = [list(layer) for layer in table]
    for i, (a, b, degrees, dim, genus) in enumerate(out[d - 1]):
        if (a, b) == (alpha, beta):
            degrees = list(degrees)
            degrees[delta] += shift
            out[d - 1][i] = (a, b, degrees, dim, genus)
    return out
