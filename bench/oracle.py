"""Expected answers from closed forms, sharing no code with nccw.

Groups are pairs ``(free_rank, torsion)`` where ``torsion`` is the
invariant-factor chain ``d_1 | d_2 | ...`` with every ``d_i >= 2``.  The
chain is computed here by gcd/lcm exchanges, not by a Smith form, so
agreement with nccw's own canonical form is a real check rather than a
tautology; no order is ever factored, so orders of any size are fine.

The matrix work is the invariant factors of small stage-1 endpoint
matrices and of the square matrices of ``dense``.  Both come from
determinantal divisors (gcds of minors, or the determinant and the
adjugate's content) split prime by prime with a Smith form over Z/p^e,
never from a Smith form over Z, so no coefficient grows.
"""

from __future__ import annotations

import itertools
import math
import re
from math import gcd

ZERO = (0, ())


def group(free: int = 0, cyclic=()) -> tuple[int, tuple[int, ...]]:
    """Canonical form of ``Z^free (+) Z/c_1 (+) ...``; orders 0 count as Z
    and orders 1 vanish.  ``Z/a (+) Z/b`` is ``Z/gcd (+) Z/lcm``; exchanging
    every pair this way leaves each order dividing the ones after it."""
    free += sum(1 for c in cyclic if c == 0)
    chain = [abs(c) for c in cyclic if c != 0]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            g = gcd(a, b)
            chain[i], chain[j] = g, a // g * b
    return free, tuple(c for c in chain if c > 1)


def direct_sum(*gs):
    return group(sum(g[0] for g in gs), [d for g in gs for d in g[1]])


def tensor(a, b):
    (fa, ta), (fb, tb) = a, b
    cyclic = [d for d in ta for _ in range(fb)] + [e for e in tb for _ in range(fa)]
    cyclic += [gcd(d, e) for d in ta for e in tb]
    return group(fa * fb, cyclic)


def tor(a, b):
    return group(0, [gcd(d, e) for d in a[1] for e in b[1]])


def rational(g):
    return g[0], ()


def coefficient_cohomology(h, g):
    """Universal coefficients for a cochain complex of free groups:
    ``H^p(C; G) = H^p(C) (x) G (+) Tor(H^{p+1}(C), G)``."""
    top = len(h) - 1
    return [
        direct_sum(tensor(h[p], g), tor(h[p + 1], g) if p < top else ZERO)
        for p in range(top + 1)
    ]


def assembled(pieces) -> dict:
    """Expected ``(group, up_to_extension)`` of one total parity from its
    nonzero filtration pieces, listed by increasing filtration degree.

    The flag is raised exactly when the pieces do not force the group:
    two or more nonzero pieces, at least one with torsion.
    """
    pieces = [g for g in pieces if g != ZERO]
    flagged = len(pieces) > 1 and any(g[1] for g in pieces)
    return {"group": direct_sum(*pieces), "up_to_extension": flagged}


def cellular_answer(h) -> dict:
    """Even/odd answer of a cellular complex with cohomology ``h``: pages
    from E2 on carry no differentials, so E-infinity is ``h`` itself."""
    return {
        "even": assembled(h[0::2]),
        "odd": assembled(h[1::2]),
        "stable": {(p, 0): g for p, g in enumerate(h) if g != ZERO},
    }


def fibration_answer(h_even_row, h_odd_row) -> dict:
    """Even/odd totals from a coefficient second page whose rows are
    ``h_even_row[p]`` (fiber parity even) and ``h_odd_row[p]``."""
    rows = (h_even_row, h_odd_row)
    k = len(h_even_row) - 1
    out = {}
    for t, key in ((0, "even"), (1, "odd")):
        out[key] = assembled([rows[(t - p) % 2][p] for p in range(k + 1)])
    out["page2"] = {
        (p, par): rows[par][p] for par in (0, 1) for p in range(k + 1) if rows[par][p] != ZERO
    }
    return out


def endpoint_cohomology(delta) -> list:
    """``[H^0, H^1]`` of ``Z^cols --delta--> Z^rows``."""
    rows, cols = len(delta), len(delta[0]) if delta else 0
    factors = invariant_factors(delta) if rows and cols else []
    rank = len(factors)
    return [group(cols - rank), group(rows - rank, [d for d in factors if d > 1])]


def _adjugate_content(m):
    """``(det, gcd of the adjugate's entries)`` of a square integer matrix,
    by fraction-free Gauss-Jordan elimination of ``[m | I]``: at the end
    the left block is ``det * I`` and the right block ``det * m^-1`` (of
    the row-permuted matrix, which changes no entry's absolute value)."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        ak, akk = a[k], a[k][k]
        for i in range(n):
            if i != k:
                ai, aik = a[i], a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(ai, ak)]
        prev = akk
    content = 0
    for row in a:
        for x in row[n:]:
            content = gcd(content, x)
    return sign * prev, content


def _local_valuations(m, p: int, e: int) -> list[int]:
    """p-adic valuations, below ``e``, of the invariant factors of ``m``:
    elimination over Z/p^e, always on an entry of least valuation."""
    q = p**e
    a = [[x % q for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    out = []
    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j]:
                    v, x = 0, a[i][j]
                    while x % p == 0:
                        v, x = v + 1, x // p
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        unit_inverse = pow(a[t][t] // p**v, -1, q)
        for i in range(t + 1, rows):
            if a[i][t]:
                f = a[i][t] // p**v * unit_inverse % q
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[t])]
        out.append(v)
    return sorted(out)


def _split_content(m, content: int, count: int) -> list[int]:
    """The first ``count`` invariant factors of ``m``, whose product is
    ``content``, prime by prime from a Smith form over Z/p^e with e one
    more than the prime's valuation of ``content``.  ``content`` is small
    for the matrices used here; it is factored by trial division."""
    head = [1] * count
    rest, p = content, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest, e = rest // p, e + 1
            for i, v in enumerate(_local_valuations(m, p, e + 1)[:count]):
                head[i] *= p**v
        p += 1
    if math.prod(head) != content:
        raise AssertionError("local valuations disagree with the minors")
    return head


def square_invariant_factors(m) -> list[int] | None:
    """Invariant factors ``s_1 | ... | s_n`` of a nonsingular square integer
    matrix, or None when it is singular: ``s_1 ... s_{n-1}`` is the gcd of
    the (n-1)-minors, the adjugate's content, and ``s_n = |det| / content``."""
    det, content = _adjugate_content(m)
    if det == 0:
        return None
    return _split_content(m, content, len(m) - 1) + [abs(det) // content]


def invariant_factors(m) -> list[int]:
    """Nonzero invariant factors of a small integer matrix (a few rows and
    columns): with r the rank, ``s_1 ... s_r`` is the gcd of the r-minors."""
    rows, cols = len(m), len(m[0]) if m else 0
    for r in range(min(rows, cols), 0, -1):
        content = 0
        for rs in itertools.combinations(range(rows), r):
            for cs in itertools.combinations(range(cols), r):
                content = gcd(content, _adjugate_content([[m[i][j] for j in cs] for i in rs])[0])
        if content:
            return _split_content(m, abs(content), r)
    return []


_TERM = re.compile(r"^(?:([ZQ])(?:\^(\d+))?|Z/(\d+))$")


def parse_group(text: str):
    """``(symbol, group)`` from a rendered group string such as
    ``Z^2 (+) Z/2``; symbol is None when there is no free part."""
    text = text.strip()
    if text == "0":
        return None, ZERO
    free, cyclic, symbol = 0, [], None
    for term in text.split("(+)"):
        m = _TERM.match(term.strip())
        if not m:
            raise ValueError(f"bad group term {term!r}")
        if m.group(3):
            cyclic.append(int(m.group(3)))
        else:
            symbol = m.group(1)
            free += int(m.group(2) or 1)
    return symbol, group(free, cyclic)

