"""Independent computations and output checks for the curvecount benchmark.

Nothing here imports curvecount.  Every expected value is computed from
the mathematics, never read from a stored copy of earlier output:

* Kontsevich's recursion, in the textbook form (not the program's), pinned
  to the published N(1..12), exactly and modulo two Mersenne primes;
* a Caporaso-Harris engine of its own, pinned to classical counts
  (SeveriReference lists them);
* the node polynomials N(d, delta) for delta <= 3 (Kleiman-Piene closed
  forms) and the vanishing (2 delta + 1)-th finite difference (Fomin-Mikhalkin);
* per cache row: dim and genus closed forms, the delta = 0 product formula,
  and the one-level Caporaso-Harris identity against the other rows.

Each check returns a list of problems; an empty list means the output is
right.  The benchmark turns a non-empty list into a failed operation.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from math import comb, factorial

# Published rational curve counts N(1..12) (Kontsevich-Manin, Di Francesco-Itzykson).
PUBLISHED_N = (
    1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392,
    19385778269260800, 40739017561997799680, 120278021410937387514880,
    482113680618029292368686080,
)

PRIMES = (2 ** 61 - 1, 2 ** 89 - 1)


# ----------------------------------------------------------------------
# Kontsevich


def kontsevich_exact(n: int) -> list[int]:
    """[N(1), ..., N(n)] from N_d = sum N_A N_B a b (a b C(3d-4, 3a-2) - a^2 C(3d-4, 3a-1))."""
    out = [0, 1]
    for d in range(2, n + 1):
        total = 0
        for a in range(1, d):
            b = d - a
            total += out[a] * out[b] * a * b * (
                a * b * comb(3 * d - 4, 3 * a - 2) - a * a * comb(3 * d - 4, 3 * a - 1)
            )
        out.append(total)
    return out[1:]


def kontsevich_mod(n: int, p: int) -> list[int]:
    """[N(1) mod p, ..., N(n) mod p] by the same recursion over Z/p (p > 3n prime)."""
    top = 3 * n
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * (top + 1)
    inv[top] = pow(fact[top], p - 2, p)
    for i in range(top, 0, -1):
        inv[i - 1] = inv[i] * i % p

    def binom(m, k):
        if k < 0 or k > m:
            return 0
        return fact[m] * inv[k] % p * inv[m - k] % p

    out = [0, 1]
    for d in range(2, n + 1):
        total = 0
        for a in range(1, d):
            b = d - a
            total += out[a] * out[b] % p * (a * b) % p * (
                a * b * binom(3 * d - 4, 3 * a - 2) - a * a * binom(3 * d - 4, 3 * a - 1)
            )
        out.append(total % p)
    return out[1:]


def decimal_mod(text: str, p: int) -> int:
    """Residue of a decimal string mod p, chunked so no int-str digit cap applies."""
    r = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return r


class KontsevichReference:
    """Exact N(d) for small d and residues mod PRIMES for all d <= n."""

    EXACT = 40

    def __init__(self, n: int):
        self.exact = kontsevich_exact(min(n, self.EXACT))
        if tuple(self.exact[:len(PUBLISHED_N)]) != PUBLISHED_N[:len(self.exact)]:
            raise AssertionError("Kontsevich recursion disagrees with published N(1..12)")
        self.residues = [kontsevich_mod(n, p) for p in PRIMES]
        for d, value in enumerate(self.exact, start=1):
            for p, res in zip(PRIMES, self.residues):
                if value % p != res[d - 1]:
                    raise AssertionError("Kontsevich mod %d disagrees at d = %d" % (p, d))

    def matches(self, d: int, text: str) -> bool:
        if not text.isdigit():
            return False
        if d <= len(self.exact):
            return text == str(self.exact[d - 1])
        return all(decimal_mod(text, p) == res[d - 1]
                   for p, res in zip(PRIMES, self.residues))


def check_kontsevich(stdout: str, d_max: int, ref: KontsevichReference) -> list[str]:
    """Text output of `kontsevich --max d_max`: one line per d, every N(d) right."""
    lines = stdout.splitlines()
    if len(lines) != d_max:
        return ["expected %d lines, got %d" % (d_max, len(lines))]
    problems = []
    for d, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) != 2 or parts[0] != str(d):
            problems.append("line %d malformed: %.60r" % (d, line))
        elif not ref.matches(d, parts[1]):
            problems.append("N(%d) wrong" % d)
    return problems


# ----------------------------------------------------------------------
# Profiles and the Caporaso-Harris recursion


def profile_weight(s) -> int:
    return sum(k * e for k, e in enumerate(s, start=1))


def canonical(s) -> tuple[int, ...]:
    s = tuple(s)
    while s and s[-1] == 0:
        s = s[:-1]
    return s


def partitions(w: int) -> list[tuple[int, ...]]:
    """Canonical multiplicity vectors of all partitions of w."""
    out = []

    def parts(remaining, largest, acc):
        if remaining == 0:
            vec = [0] * (acc[0] if acc else 0)
            for p in acc:
                vec[p - 1] += 1
            out.append(tuple(vec))
            return
        for p in range(min(remaining, largest), 0, -1):
            acc.append(p)
            parts(remaining - p, p, acc)
            acc.pop()

    parts(w, w, [])
    return out


def partition_count(w: int) -> int:
    """p(w), the number of partitions of w (0 for w < 0)."""
    if w < 0:
        return 0
    table = [1] + [0] * w
    for part in range(1, w + 1):
        for total in range(part, w + 1):
            table[total] += table[total - part]
    return table[w]


def entry_binom(top, bot) -> int:
    """prod_k C(top_k, bot_k) over padded profiles."""
    n = max(len(top), len(bot))
    result = 1
    for k in range(n):
        t = top[k] if k < len(top) else 0
        b = bot[k] if k < len(bot) else 0
        if b > t:
            return 0
        result *= comb(t, b)
    return result


def all_indices(d: int, delta_max: int):
    """Every valid (d, delta, alpha, beta) with delta <= min(delta_max, d(d-1)/2)."""
    top = min(delta_max, d * (d - 1) // 2)
    return [
        (d, delta, alpha, beta)
        for delta in range(top + 1)
        for wa in range(d + 1)
        for alpha in partitions(wa)
        for beta in partitions(d - wa)
    ]


def _degeneration_terms(d, delta, alpha, beta, parts_of):
    """(coefficient, child index) of the Caporaso-Harris second sum."""
    base = profile_weight(beta)
    for a_prime in product(*(range(e + 1) for e in alpha)):
        budget = d - 1 - profile_weight(a_prime) - base
        if budget < 0:
            continue
        choose_alpha = entry_binom(alpha, a_prime)
        a_prime = canonical(a_prime)
        for c, c_size, c_power in parts_of(budget):
            child_delta = delta - (d - 1) + c_size
            if not 0 <= child_delta <= delta:
                continue
            n = max(len(beta), len(c))
            b_prime = canonical(
                (beta[k] if k < len(beta) else 0) + (c[k] if k < len(c) else 0)
                for k in range(n)
            )
            coeff = c_power * choose_alpha * entry_binom(b_prime, beta)
            if coeff:
                yield coeff, (d - 1, child_delta, a_prime, b_prime)


def _first_terms(d, delta, alpha, beta):
    """(j, child index) of the Caporaso-Harris first sum."""
    for j, entry in enumerate(beta, start=1):
        if entry:
            n = max(len(alpha), j)
            a = [alpha[k] if k < len(alpha) else 0 for k in range(n)]
            a[j - 1] += 1
            b = list(beta)
            b[j - 1] -= 1
            yield j, (d, delta, tuple(a), canonical(b))


class _Parts:
    """partitions(w) with each vector's size and prod k^(c_k), memoized."""

    def __init__(self):
        self._cache = {}

    def __call__(self, w):
        got = self._cache.get(w)
        if got is None:
            got = []
            for c in partitions(w):
                power = 1
                for k, e in enumerate(c, start=1):
                    power *= k ** e
                got.append((c, sum(c), power))
            self._cache[w] = got
        return got


class SeveriReference:
    """Caporaso-Harris degrees N(d, delta; alpha, beta), written apart from the program.

    Pinned at construction to the counts where Severi degrees have a
    closed or classical value: N(3,1) = 12 = N_3, N(4,3) = 620 + C(11,2)
    (620 rational quartics plus a line through 2 and a cubic through 9 of
    11 points), the conic counts, and the delta = 0 product formula.
    """

    def __init__(self):
        self._memo = {}
        self._parts = _Parts()
        pins = {
            (2, 0, (), (2,)): 1, (2, 0, (), (0, 1)): 2, (2, 1, (), (2,)): 3,
            (3, 1, (), (3,)): PUBLISHED_N[2],
            (4, 3, (), (4,)): PUBLISHED_N[3] + comb(11, 2),
            (4, 2, (), (4,)): 225,
        }
        for index, want in pins.items():
            if self.degree(*index) != want:
                raise AssertionError("Severi reference wrong at %r" % (index,))

    def degree(self, d, delta, alpha=(), beta=()):
        alpha, beta = canonical(alpha), canonical(beta)
        if profile_weight(alpha) + profile_weight(beta) != d:
            raise ValueError("weight mismatch")
        return self._degree((d, delta, alpha, beta))

    def _degree(self, index):
        d, delta, alpha, beta = index
        if delta < 0 or delta > d * (d - 1) // 2:
            return 0
        if d == 1:
            return 1
        got = self._memo.get(index)
        if got is not None:
            return got
        total = 0
        for j, child in _first_terms(d, delta, alpha, beta):
            total += j * self._degree(child)
        for coeff, child in _degeneration_terms(d, delta, alpha, beta, self._parts):
            total += coeff * self._degree(child)
        self._memo[index] = total
        return total


def _fmt_profile(p) -> str:
    return "(" + ",".join(str(e) for e in p) + ")"


def check_severi(stdout: str, d: int, delta: int, beta: tuple, ref: SeveriReference) -> list[str]:
    """Text output of `severi --d d --delta delta --beta ...` with alpha = ()."""
    beta = canonical(beta)
    lines = stdout.splitlines()
    want_head = "index d=%d delta=%d alpha=() beta=%s" % (d, delta, _fmt_profile(beta))
    if len(lines) != 4 or lines[0] != want_head:
        return ["unexpected output shape: %.120r" % stdout]
    fields = {}
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        fields[key] = value
    problems = []
    want = {
        "degree": ref.degree(d, delta, (), beta),
        "dim": d * (d + 3) // 2 - delta - (profile_weight(beta) - sum(beta)),
        "genus": comb(d - 1, 2) - delta,
    }
    for key, value in want.items():
        if fields.get(key) != str(value):
            problems.append("%s: got %r, want %d" % (key, fields.get(key), value))
    return problems


# ----------------------------------------------------------------------
# Node polynomials


def node_window(delta: int) -> range:
    """Degrees d = delta..3 delta + 1 (at least 1) where N(d, delta) is polynomial in d."""
    return range(max(1, delta), 3 * delta + 2)


def node_closed_form(d: int, delta: int):
    """N(d, delta; (), (d)) for delta <= 3, else None."""
    if delta == 0:
        return 1
    if delta == 1:
        return 3 * (d - 1) ** 2
    if delta == 2:
        return Fraction(3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11), 2)
    if delta == 3:
        return Fraction(9 * d ** 6 - 54 * d ** 5 + 9 * d ** 4 + 423 * d ** 3
                        - 458 * d ** 2 - 829 * d + 1050, 2)
    return None


def finite_difference(values) -> int:
    """The single highest-order forward difference of the sequence."""
    return sum((-1) ** (len(values) - 1 - i) * comb(len(values) - 1, i) * v
               for i, v in enumerate(values))


def check_node_poly(values: dict) -> set:
    """Bad (d, delta) keys of a node-polynomial sweep {(d, delta): N}.

    delta <= 3: each point against its closed form.  delta >= 4: the
    (2 delta + 1)-th difference over the 2 delta + 2 window points must
    vanish; when it does not, every point of that window is bad.
    """
    bad = set()
    for delta in sorted({key[1] for key in values}):
        window = [(d, delta) for d in node_window(delta)]
        if any(key not in values for key in window):
            bad.update(key for key in window if key in values)
            continue
        if delta <= 3:
            bad.update(key for key in window
                       if values[key] != node_closed_form(*key))
        elif finite_difference([values[key] for key in window]) != 0:
            bad.update(window)
    return bad


def parse_sweep(stdout: str) -> list[tuple[int, int, int]]:
    """Lines 'd delta N' printed by the library sweep, in request order."""
    out = []
    for line in stdout.splitlines():
        d, delta, value = line.split()
        out.append((int(d), int(delta), int(value)))
    return out


# ----------------------------------------------------------------------
# Degree cache


def cache_row_count(d_max: int, delta_max: int) -> int:
    return sum(len(all_indices(d, delta_max)) for d in range(1, d_max + 1))


def check_cache(text: str, d_max: int, delta_max: int) -> list[str]:
    """Every row of a `table --dmax d_max --deltamax delta_max` cache file.

    Rows must be exactly the valid indices; dim and genus follow their
    closed forms; delta = 0 rows equal |beta|!/beta! prod k^beta_k; d = 1
    rows equal 1; every other row satisfies the one-level Caporaso-Harris
    identity against the other rows.  With the base case, the identity
    certifies the whole table by induction on (d, |beta|).
    """
    lines = text.splitlines()
    if not lines:
        return ["empty cache"]
    try:
        header = json.loads(lines[0])
    except ValueError:
        return ["malformed header"]
    if header != {"format-version": "1", "tool": "curvecount"}:
        return ["unexpected header %r" % (header,)]
    rows = {}
    problems = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            raw = json.loads(line)
            key = (raw["d"], raw["delta"], tuple(raw["alpha"]), tuple(raw["beta"]))
            degree = raw["degree"]
            if not isinstance(degree, str) or not degree.isdigit():
                raise ValueError(degree)
            dim, genus_ = raw["dim"], raw["genus"]
        except (ValueError, KeyError, TypeError):
            problems.append("line %d malformed" % lineno)
            continue
        if key in rows:
            problems.append("line %d repeats %r" % (lineno, key))
        rows[key] = (int(degree), dim, genus_)
    expected = {
        index for d in range(1, d_max + 1) for index in all_indices(d, delta_max)
    }
    if set(rows) != expected:
        problems.append("row set differs: %d missing, %d unexpected"
                        % (len(expected - set(rows)), len(set(rows) - expected)))
    parts = _Parts()

    def lookup(index):
        d, delta = index[0], index[1]
        if delta < 0 or delta > d * (d - 1) // 2:
            return 0
        row = rows.get(index)
        if row is None:
            raise KeyError(index)
        return row[0]

    for key in sorted(rows):
        d, delta, alpha, beta = key
        degree, dim, genus_ = rows[key]
        if (genus_ != comb(d - 1, 2) - delta
                or dim != d * (d + 3) // 2 - delta - profile_weight(alpha)
                - (profile_weight(beta) - sum(beta))):
            problems.append("%r: dim/genus wrong" % (key,))
        if d == 1:
            want = 1
        elif delta == 0:
            want = factorial(sum(beta))
            for k, e in enumerate(beta, start=1):
                want = want // factorial(e) * k ** e
        else:
            try:
                want = sum(j * lookup(child)
                           for j, child in _first_terms(d, delta, alpha, beta))
                want += sum(coeff * lookup(child) for coeff, child
                            in _degeneration_terms(d, delta, alpha, beta, parts))
            except KeyError as exc:
                problems.append("%r: child row %r missing" % (key, exc.args[0]))
                continue
        if degree != want:
            problems.append("%r: degree %d, identity gives %d" % (key, degree, want))
    return problems


def check_table_stdout(stdout: str, path: str, verified: int, appended: int,
                       records: int) -> list[str]:
    want = "cache %s\nverified %d\nappended %d\nrecords %d\n" % (
        path, verified, appended, records)
    return [] if stdout == want else ["table printed %.200r" % stdout]


# ----------------------------------------------------------------------
# Verify suites

_SUITE_LINES = {
    "wdvv": re.compile(r"wdvv d_max=(\d+) x1_bound=(\d+) window=(\d+) nonzero=(\d+)$"),
    "getzler": re.compile(r"getzler D=(\d+) violations=(\d+)$"),
    "one-node": re.compile(r"one-node d=2\.\.(\d+) disagreements=(\d+)$"),
    "case-studies": re.compile(
        r"case-studies cross-ratio=(\d+) kontsevich=(\d+) "
        r"rational-fibration=(\d+) recursion=(\d+)$"),
}


def check_verify(stdout: str, suites: dict) -> list[str]:
    """Output of `verify ...`: one zero-residual line per suite, then 'ok'.

    suites maps a suite name to its parameters: wdvv (d_max, x1),
    getzler (D,), one-node (d_max,), case-studies ().
    """
    lines = stdout.splitlines()
    if len(lines) != len(suites) + 1 or lines[-1] != "ok":
        return ["unexpected verify output: %.200r" % stdout]
    problems = []
    for line, (name, params) in zip(lines, suites.items()):
        m = _SUITE_LINES[name].match(line)
        if m is None:
            problems.append("line %r is not a %s summary" % (line, name))
            continue
        got = tuple(int(g) for g in m.groups())
        if name == "wdvv":
            d_max, x1 = params
            want = (d_max, x1, (d_max - 1) * (x1 - 2), 0)
        elif name == "case-studies":
            want = (PUBLISHED_N[2],) * 4
        else:
            want = tuple(params) + (0,)
        if got != want:
            problems.append("%s: got %r, want %r" % (name, got, want))
    return problems
