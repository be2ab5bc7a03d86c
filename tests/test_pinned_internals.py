"""The dense kernels' intermediate results, pinned by SHA-256.

The answers of ``_smith_core``, ``_rank_core`` and ``reduce_complex`` are
checked against sympy elsewhere; these digests pin how they get there:
the Smith core's row and column logs and diagonal, the rank core's pivot
rows, pivot columns and kernel, and the remainder of the unit-pivot
reduction, entry order within each row included.  A rewrite of a kernel
for speed must keep every digest.  The inputs are seeded: random -3..3
n x n matrices for n = 16..24, the rank-deficient products of such
matrices, signed and permuted simplex-boundary spheres, and complexes
with torsion hidden by unimodular changes of basis.
"""

import hashlib
import random

import pytest

from nccw import exacthom
from nccw.exacthom import CochainComplex, intmat, reduce_complex

from conftest import dense_product
from test_reduction import hidden_torsion_complex, simplex_sphere

SIZES = range(16, 25)


def dense_square(n):
    rng = random.Random(2500 + n)
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


def low_rank(n):
    # an n x n product through an inner dimension of n // 2
    rng = random.Random(2600 + n)
    k = n // 2
    a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    return dense_product(a, b, n)


def hidden(size):
    """Contractible pairs in three degrees around two torsion pieces, the
    shape of the ``dense`` benchmark's hidden-torsion family."""
    rng = random.Random(2700 + size)
    half = size // 2
    pieces = [(0, 1)] * half + [(1, 1)] * half + [(2, 1)] * half
    pieces += [(1, rng.choice((2, 3, 4, 5))), (rng.choice((0, 2)), rng.choice((2, 3, 4, 6)))]
    rng.shuffle(pieces)
    return hidden_torsion_complex(rng, [1, 0, 0, 1], pieces)[0]


def complexes():
    for n in SIZES:
        yield CochainComplex("Z", [n, n], [intmat(dense_square(n))])
    for size in range(10, 23, 4):
        yield hidden(size)
    for n in (3, 4, 5):
        yield simplex_sphere(n, random.Random(2800 + n))


def remainder_matrices():
    for c in complexes():
        yield from (d for d in reduce_complex(c).differentials if not d.is_zero)


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def smith_logs(mats):
    for mat in mats:
        D, row_ops, col_ops = exacthom._smith_core(mat)
        yield row_ops, col_ops, [list(row.items()) for row in D.rows]


def rank_witnesses(mats):
    for mat in mats:
        rows, cols, kernel = exacthom._rank_core(mat)
        yield rows, cols, kernel.shape, [list(row.items()) for row in kernel.rows]


def remainders():
    for c in complexes():
        r = reduce_complex(c)
        yield r.ranks, [[list(row.items()) for row in d.rows] for d in r.differentials]


CASES = {
    "smith_dense": lambda: smith_logs(intmat(dense_square(n)) for n in SIZES),
    "smith_remainders": lambda: smith_logs(remainder_matrices()),
    "rank_dense": lambda: rank_witnesses(intmat(dense_square(n)) for n in SIZES),
    "rank_low": lambda: rank_witnesses(intmat(low_rank(n)) for n in SIZES),
    "rank_remainders": lambda: rank_witnesses(remainder_matrices()),
    "remainders": remainders,
}

PINNED = {
    "rank_dense": "eafa581fd805d5170dc376c86e900c3493171f508677e20a9284600468910e55",
    "rank_low": "1e6e2784e6c1cfa0ce61d0b30841f36d6d0fe96d16ad0cb274744e85716628f2",
    "rank_remainders": "3464aaf1f4c047ad01309f73e4861a1673c047f2e27e562a809350e21b457218",
    "remainders": "0386428a1dfaf18b288c0255d4f4b96cecb2c9e7f7995372fe991185a24ea47c",
    "smith_dense": "30f5516be1a731b75a0ebf318e4b948761136d5dcee2df105831c73fc9209e1a",
    "smith_remainders": "41b65d8dd4a57acedc1cfc1151cda26c181a5f3206df98bec34fa0beb19f8f1f",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_internals_keep_their_digest(name):
    assert digest(CASES[name]()) == PINNED[name]
