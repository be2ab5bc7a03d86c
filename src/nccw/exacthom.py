"""Exact linear algebra over the integers and rationals.

Everything here is computed with arbitrary-precision Python integers; no
floating point is used anywhere.  The module provides one exact matrix
type, Smith normal form, rank over the rationals, finitely generated
abelian groups in invariant-factor normal form, integer cochain complexes,
and their (co)homology with or without coefficients.

Conventions
-----------
* A matrix is a frozen :class:`IntMatrix`: one dict per row from the
  column of each nonzero entry to its Python ``int`` value, as in the
  sparse elimination of Dumas, Heckenbach, Saunders and Welker (2003).
  :func:`intmat` is the one constructor that validates outside data; the
  Smith normal form core works on dense lists of rows.
* ``FGAbelianGroup(free_rank, torsion)`` is the canonical form
  ``Z^free_rank (+) Z/d_1 (+) ... (+) Z/d_t`` with ``d_1 | d_2 | ...`` and
  every ``d_i >= 2``.  Equality of groups is structural equality of the
  canonical form.
* A ``CochainComplex`` stores ranks ``c_0 .. c_k`` and one matrix per
  adjacent pair of degrees.  Every complex raises degree: the matrix at
  index ``p`` maps degree ``p`` to degree ``p + 1`` and has shape
  ``(c_{p+1}, c_p)``.  A chain complex enters by transposing its boundary
  matrices once, as :func:`nccw.cellmodel.from_classical_cw` does.
* Smith normal forms and ranks are certified before they are used, and
  a failed certificate raises :class:`nccw.errors.CertificateFailed`.
  ``reduce_complex`` is only checked, not certified: its remainder must
  satisfy d after d = 0 (else ``ComplexViolation``) and keep the Euler
  characteristic (else ``CertificateFailed``), which does not prove it
  chain-homotopy equivalent to the input.  A zero map's rank 0
  and empty torsion are read off ``IntMatrix.is_zero``, an exact test of
  every row, so no factorization is made and none needs a certificate.
  The Smith normal form core logs elementary row and column operations
  instead of building transforms; ``_check_snf`` replays the logs on the
  input's sparse rows and must reach the diagonal exactly, so the
  transforms are unimodular by construction and no determinant is taken.
  Transforms are built from the logs only where a caller needs them
  (``smith_normal_form``, ``kernel_basis``).  ``matrix_rank`` works over
  Q by fraction-free forward elimination and is certified by a nonzero
  pivot minor and an annihilated kernel; the kernel comes from a second
  pass over the pivot rows alone, and only when some column does not
  pivot.  Over Q (HP) cohomology needs only ranks, so it runs no Smith
  normal form.
* :func:`all_cohomology` is the one producer of a complex's groups;
  there is no per-degree variant.
* d after d = 0 is decided exactly without forming the product
  (``product_is_zero``): Freivalds' matrix-vector test made deterministic
  by Kronecker substitution.  The vector is ``(1, 2^w, 2^(2w), ...)`` with
  ``w`` the bit length of ``max|a| * max|b| * inner dimension``, a bound
  on every entry of the product, so a row of the product is zero exactly
  when its packed value is.  Each matrix keeps its largest absolute entry
  once computed (``IntMatrix.max_abs``).
"""

from __future__ import annotations

import operator
from itertools import compress
from math import gcd

from .errors import CertificateFailed, ComplexViolation, OutOfRange, ShapeMismatch
from .frozen import Value

RING_Z = "Z"
RING_Q = "Q"


# ---------------------------------------------------------------------------
# the matrix type


class IntMatrix:
    """A frozen exact integer matrix stored by sparse rows.

    ``rows[i]`` maps the column of each nonzero entry of row ``i`` to its
    value; zeros are never stored.  No operation modifies a matrix, every
    one returns a new one.  Build matrices from outside data with
    :func:`intmat`, which validates; the constructor trusts its rows.
    """

    __slots__ = ("shape", "rows", "_max_abs")

    def __init__(self, shape: tuple[int, int], rows):
        self.shape = shape
        self.rows = tuple(rows)
        self._max_abs = None

    @classmethod
    def _dense(cls, rows, ncols: int) -> "IntMatrix":
        cols = range(ncols)
        return cls((len(rows), ncols), [{j: r[j] for j in compress(cols, r)} for r in rows])

    def __getitem__(self, index) -> int:
        i, j = index
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise IndexError(f"index {index} outside shape {self.shape}")
        return self.rows[i].get(j, 0)

    @property
    def flat(self):
        """The nonzero entries, row by row."""
        return (x for row in self.rows for x in row.values())

    @property
    def is_zero(self) -> bool:
        return not any(self.rows)

    @property
    def max_abs(self) -> int:
        """The largest absolute value of an entry, 0 for a zero matrix.
        Computed on first use and kept: the entries never change."""
        if self._max_abs is None:
            self._max_abs = max([abs(x) for row in self.rows for x in row.values()], default=0)
        return self._max_abs

    @property
    def T(self) -> "IntMatrix":
        cols = [{} for _ in range(self.shape[1])]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return IntMatrix(self.shape[::-1], cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape[1] != other.shape[0]:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        b_rows = other.rows
        out = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for k, x in row.items():
                for j, y in b_rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix((self.shape[0], other.shape[1]), out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.shape, [{j: -x for j, x in row.items()} for row in self.rows])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot subtract {other.shape} from {self.shape}")
        return IntMatrix(self.shape, [
            {j: v for j in a.keys() | b.keys() if (v := a.get(j, 0) - b.get(j, 0))}
            for a, b in zip(self.rows, other.rows)
        ])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    __hash__ = None

    def tolist(self) -> list[list[int]]:
        """Dense rows, each filled from the nonzeros of its sparse row."""
        out = []
        for row in self.rows:
            dense = [0] * self.shape[1]
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def __repr__(self) -> str:
        return f"IntMatrix({self.tolist()!r}, shape={self.shape})"


def intmat(data, shape: tuple[int, int] | None = None) -> IntMatrix:
    """The validating constructor: a matrix from a nested sequence of
    integers, or an existing matrix checked against ``shape``.

    ``shape`` disambiguates matrices with zero rows or zero columns, where
    the nested-list form cannot carry the missing dimension.
    """
    if isinstance(data, IntMatrix):
        if shape is not None and data.shape != tuple(shape):
            raise ShapeMismatch(f"expected shape {shape}, got {data.shape[0]}x{data.shape[1]}")
        return data
    # a new outer list; list rows are read in place and never written
    rows = [r if type(r) is list else list(r) for r in data]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else (shape[1] if shape else 0)
    if shape is not None:
        if nrows != shape[0] or (nrows > 0 and ncols != shape[1]):
            raise ShapeMismatch(f"expected shape {shape}, got {nrows}x{ncols}")
        ncols = shape[1]
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ShapeMismatch(f"row {i} has length {len(row)}, expected {ncols}")
        if not set(map(type, row)) <= {int}:
            rows[i] = [_checked_int(x, i, j) for j, x in enumerate(row)]
    return IntMatrix._dense(rows, ncols)


def _checked_int(x, i: int, j: int) -> int:
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ShapeMismatch(f"entry ({i},{j}) is not an integer: {x!r}")
    return operator.index(x)


def zeros(nrows: int, ncols: int) -> IntMatrix:
    return IntMatrix((nrows, ncols), [{} for _ in range(nrows)])


def identity(n: int) -> IntMatrix:
    return IntMatrix((n, n), [{i: 1} for i in range(n)])


def stack(blocks: list[list[IntMatrix]]) -> IntMatrix:
    """Block matrix from a list of block rows.  The blocks of one block row
    share their number of rows, and every block row has the same total
    number of columns."""
    rows: list[dict[int, int]] = []
    width = None
    for band in blocks:
        height = band[0].shape[0]
        band_width = sum(m.shape[1] for m in band)
        if any(m.shape[0] != height for m in band) or width not in (None, band_width):
            raise ShapeMismatch(f"blocks {[m.shape for m in band]} do not fit together")
        width = band_width
        for i in range(height):
            row, offset = {}, 0
            for m in band:
                row.update((offset + j, x) for j, x in m.rows[i].items())
                offset += m.shape[1]
            rows.append(row)
    return IntMatrix((len(rows), width or 0), rows)


def product_is_zero(a: IntMatrix, b: IntMatrix) -> bool:
    """Decide ``a @ b == 0`` exactly, without forming the product: the d
    after d check of a complex.

    Row ``k`` of ``b`` is packed into one integer ``P_k = sum_j b_kj 2^(w j)``
    and row ``i`` of ``a`` is tested by ``sum_k a_ik P_k``, which equals
    ``sum_j (ab)_ij 2^(w j)``.  Every ``|(ab)_ij|`` is at most
    ``max|a| * max|b| * inner dimension < 2^w``, so the lowest nonzero
    entry of a row of the product is not a multiple of ``2^w`` and the
    packed sum is zero exactly when that row of the product is zero.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    w = (a.max_abs * b.max_abs * a.shape[1]).bit_length()
    if not w:
        # a zero or empty factor: nothing to pack
        return True
    packed = [sum([y << w * j for j, y in row.items()]) for row in b.rows]
    for row in a.rows:
        if sum([x * packed[k] for k, x in row.items()]):
            return False
    return True


def determinant(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ShapeMismatch("determinant needs a square matrix")
    if n == 0:
        return 1
    a = mat.tolist()
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for r in range(t + 1, n):
                if a[r][t] != 0:
                    a[t], a[r] = a[r], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(t + 1, n):
            for c in range(t + 1, n):
                a[r][c] = (a[r][c] * a[t][t] - a[r][t] * a[t][c]) // prev
            a[r][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
#
# The core logs elementary operations instead of building transforms.  An
# operation acts on the rows (or, in the column log, the columns) of a
# matrix and is one of
#   ("swap", i, j)     exchange lines i and j, i != j;
#   ("add", i, j, k)   line i += k * line j, i != j and k != 0;
#   ("neg", i)         line i = -line i.
# Each is an elementary matrix of determinant +-1, so a log is a unimodular
# transform by construction, and replaying it is the whole certificate.


def _smith_core(mat: IntMatrix):
    """Diagonalize by elementary row and column operations.

    At step ``t`` the nonzero entry of least absolute value in the trailing
    block becomes the pivot, the first such entry by row and then by
    column; one scan finds each row's least entry and stops at a row
    holding a unit.  The pivot's whole column and then its whole row are
    reduced by nearest quotients: ``x = q * p + r`` with ``2 |r| <= |p|``,
    from ``divmod`` rounded up where its remainder is more than half of
    ``|p|`` (``divmod`` rounds toward minus infinity for either sign of
    ``p``).  Zero entries are passed over.  The sweep keeps the first
    remainder of least absolute value, which becomes the next pivot, until
    both lines are clear.  A pivot that does not divide the trailing block
    takes in the first row it fails to divide (no scan for a pivot of 1)
    and its row is reduced again.  Rows and columns before ``t`` are zero
    off the diagonal, so a row operation touches only the trailing
    columns, and a column operation made once the pivot column is clear
    changes only the pivot row.

    Reducing whole lines before the next pivot is chosen keeps the
    intermediate entries near the size of the invariant factors.  A random
    -3..3 square matrix as a two-degree ``classical_cw`` file runs through
    ``nccw compute --theory k`` in 0.045 s at n = 48 and 0.11 s at n = 60
    (best of 3 on a 2-CPU box); re-pivoting on the first nonzero remainder
    took 83 s at n = 48 and did not finish in 240 s at n = 60.

    Returns ``(D, row_ops, col_ops)``: the diagonal matrix and the logs of
    the row and column operations, in the order they were applied.
    Nothing is certified here; :func:`_certified_smith` is the one caller.
    """
    m, n = mat.shape
    a = mat.tolist()
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []
    for t in range(min(m, n)):
        least = 0
        for i in range(t, m):
            x = min(filter(None, map(abs, a[i][t:])), default=0)
            if x and (not least or x < least):
                least, i_least = x, i
                if x == 1:
                    break
        if not least:
            break
        i, row = i_least, a[i_least]
        j = next(j for j in range(t, n) if row[j] == least or row[j] == -least)
        while True:
            # bring the next pivot to (t, t)
            if i != t:
                a[t], a[i] = a[i], a[t]
                row_ops.append(("swap", t, i))
            if j != t:
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
                col_ops.append(("swap", t, j))
            pivot_row = a[t]
            p = pivot_row[t]
            size = abs(p)
            tail = pivot_row[t:]
            least = 0
            for i in range(t + 1, m):
                row = a[i]
                x = row[t]
                if x:
                    q, r = divmod(x, p)
                    if 2 * abs(r) > size:
                        q += 1
                        r -= p
                    if q:
                        row[t:] = [x - q * y for x, y in zip(row[t:], tail)]
                        row_ops.append(("add", i, t, -q))
                    if r and (not least or abs(r) < least):
                        least, i_least = abs(r), i
            if least:
                i, j = i_least, t
                continue
            for j in range(t + 1, n):
                x = pivot_row[j]
                if x:
                    q, r = divmod(x, p)
                    if 2 * abs(r) > size:
                        q += 1
                        r -= p
                    if q:
                        pivot_row[j] = r
                        col_ops.append(("add", j, t, -q))
                    if r and (not least or abs(r) < least):
                        least, j_least = abs(r), j
            if least:
                i, j = t, j_least
                continue
            if size != 1:
                i = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1:])), None)
                if i is not None:
                    # the pivot row is clear and a[i][t] == 0: the sum is a copy
                    pivot_row[t + 1:] = a[i][t + 1:]
                    row_ops.append(("add", t, i, 1))
                    i = j = t
                    continue
            break
        if p < 0:
            pivot_row[t] = -p
            row_ops.append(("neg", t))

    return IntMatrix._dense(a, n), row_ops, col_ops


def _replay(rows, ops) -> list[dict[int, int]]:
    """Apply a log of elementary operations to copies of sparse rows.

    This is the certificate's own arithmetic on dict rows, written apart
    from the core's dense lists; anything in the log that is not an
    elementary operation on these rows raises ``CertificateFailed``.
    Entries that cancel are dropped once, at the end.
    """
    out = [dict(row) for row in rows]
    lines = range(len(out))
    try:
        for op in ops:
            kind = op[0]
            if kind == "add":
                _, i, j, k = op
                if type(k) is not int or not k or i == j or i not in lines or j not in lines:
                    raise ValueError
                target = out[i]
                get = target.get
                for c, x in out[j].items():
                    target[c] = get(c, 0) + k * x
            elif kind == "swap":
                _, i, j = op
                if i == j or i not in lines or j not in lines:
                    raise ValueError
                out[i], out[j] = out[j], out[i]
            elif kind == "neg":
                _, i = op
                if i not in lines:
                    raise ValueError
                out[i] = {c: -x for c, x in out[i].items()}
            else:
                raise ValueError
    except (TypeError, ValueError, IndexError):
        raise CertificateFailed(f"SNF certificate failed: {op!r} is not elementary") from None
    return [{c: x for c, x in row.items() if x} for row in out]


def _transform(size: int, ops) -> list[dict[int, int]]:
    """The rows of a log replayed on the identity: ``U`` for a row log, and
    ``V`` transposed for a column log."""
    return _replay(identity(size).rows, ops)


def _check_snf(M: IntMatrix, D: IntMatrix, row_ops, col_ops) -> None:
    """Certificate of one factorization: ``D`` is diagonal with nonnegative
    entries ``d_1 | d_2 | ...`` and zeros trailing, and replaying the row
    log on ``M``, then the column log on the transpose of the result, gives
    exactly ``D`` (row and column operations commute).  Every logged
    operation is elementary, so the transforms are unimodular and need no
    determinant."""
    if D.shape != M.shape or any(j != i for i, row in enumerate(D.rows) for j in row):
        raise CertificateFailed("SNF certificate failed: D is not diagonal")
    diag = [D[i, i] for i in range(min(D.shape))]
    for d, nxt in zip(diag, diag[1:] + [0]):
        if d < 0 or (d == 0 and nxt != 0) or (d != 0 and nxt % d != 0):
            raise CertificateFailed("SNF certificate failed: divisibility chain")
    m, n = M.shape
    after_rows = IntMatrix((m, n), _replay(M.rows, row_ops))
    if IntMatrix((n, m), _replay(after_rows.T.rows, col_ops)) != D.T:
        raise CertificateFailed("SNF certificate failed: replayed operations do not give D")


def _certified_smith(mat: IntMatrix):
    """``_smith_core`` followed by its certificate."""
    D, row_ops, col_ops = _smith_core(mat)
    _check_snf(mat, D, row_ops, col_ops)
    return D, row_ops, col_ops


def _nonzero_diagonal(D: IntMatrix) -> list[int]:
    return [row[i] for i, row in enumerate(D.rows) if row]


def smith_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return ``(U, D, V)`` with ``U @ mat @ V == D``.

    ``U`` and ``V`` are unimodular and ``D`` is diagonal with nonnegative
    entries ``d_1 | d_2 | ...`` (zeros trailing).  The factorization is
    certified, and ``U @ mat @ V == D`` is checked again on the transforms.
    """
    mat = intmat(mat)
    D, row_ops, col_ops = _certified_smith(mat)
    m, n = mat.shape
    U = IntMatrix((m, m), _transform(m, row_ops))
    V = IntMatrix((n, n), _transform(n, col_ops)).T
    if U @ mat @ V != D:
        raise CertificateFailed("SNF certificate failed: U M V != D")
    return U, D, V


def snf_diagonal(mat: IntMatrix) -> list[int]:
    """The nonzero invariant factors, with no transform built."""
    D, _, _ = _certified_smith(intmat(mat))
    return _nonzero_diagonal(D)


def _rank_core(mat: IntMatrix):
    """Fraction-free (Bareiss 1968) elimination, forward only.

    The pivot in column ``c`` is the first row at or below the current one
    with a nonzero entry there.  After the pivot ``p`` every row below it
    becomes ``(p * row - row[c] * pivot_row) / prev`` on the columns after
    ``c`` only, with ``prev`` the previous pivot; the division is exact
    because every entry stays a minor of the input.  Returns the input rows
    and the columns of the pivots, and a kernel.  When every column pivots
    the kernel is empty (shape ``(n, 0)``) and none is built.  Otherwise it
    is read off a Bareiss Gauss-Jordan pass over only the ``r`` pivot rows:
    a pivot row reaches its own step exactly as the forward pass left it,
    so the pass starts there and each pivot row reduces the pivot rows
    above it, about ``r^2 n / 2`` updates.  The pass ends with the last
    pivot ``delta`` in each row's own pivot column and zeros in the other
    pivot columns; for each free column ``f`` the kernel has ``delta`` at
    ``f`` and ``-row_i[f]`` at the pivot column of row ``i``.  Pivot rows
    are combined only with each other, so these are the rows a Gauss-Jordan
    pass over the whole input would end with.
    """
    m, n = mat.shape
    a = mat.tolist()
    rows = list(range(m))
    cols: list[int] = []
    prev = 1
    for c in range(n):
        k = len(cols)
        if k == m:
            break
        r = next((i for i in range(k, m) if a[i][c]), None)
        if r is None:
            continue
        a[k], a[r] = a[r], a[k]
        rows[k], rows[r] = rows[r], rows[k]
        p = a[k][c]
        tail = a[k][c + 1:]
        for row in a[k + 1:]:
            f = row[c]
            if f:
                row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            else:
                # only scaled: on sparse 60x60 +-1 inputs this is 16-20% faster
                # than the formula above with f == 0 (2-CPU box, Python 3.11)
                # and the same on dense ones
                row[c + 1:] = [p * x // prev for x in row[c + 1:]]
        prev = p
        cols.append(c)
    rank = len(cols)
    if rank == n:
        return rows[:rank], cols, IntMatrix((n, 0), [{} for _ in range(n)])
    # the Gauss-Jordan pass: pivot row k as the forward pass left it (its
    # unwritten columns before c are zero) reduces the pivot rows above it
    prev = 1
    for k, c in enumerate(cols):
        pivot_row = a[k]
        pivot_row[:c] = [0] * c
        p = pivot_row[c]
        for i, row in enumerate(a[:k]):
            f = row[c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    pivot = set(cols)
    free = [f for f in range(n) if f not in pivot]
    kernel: list[dict[int, int]] = [{} for _ in range(n)]
    for t, f in enumerate(free):
        kernel[f] = {t: prev}
    for i, c in enumerate(cols):
        kernel[c] = {t: -a[i][f] for t, f in enumerate(free) if a[i][f]}
    return rows[:rank], cols, IntMatrix((n, len(free)), kernel)


def _check_rank(mat: IntMatrix, rows, cols, kernel: IntMatrix) -> None:
    """Certificate of ``rank mat == len(cols)`` over Q.

    rank >= r: the r x r minor on the pivot rows and columns has nonzero
    determinant.  rank <= r: ``kernel`` is ``delta`` times the identity on
    the n - r free columns, with ``delta != 0``, so its columns are
    independent, and ``mat @ kernel == 0``.
    """
    m, n = mat.shape
    r = len(cols)
    if (len(rows) != r or len(set(rows)) != r or len(set(cols)) != r
            or not all(0 <= i < m for i in rows) or not all(0 <= j < n for j in cols)):
        raise CertificateFailed("rank certificate failed: pivots are not a minor")
    minor = IntMatrix((r, r), [
        {t: x for t, c in enumerate(cols) if (x := mat.rows[i].get(c, 0))} for i in rows
    ])
    if determinant(minor) == 0:
        raise CertificateFailed("rank certificate failed: pivot minor is singular")
    pivot = set(cols)
    free = [f for f in range(n) if f not in pivot]
    delta = kernel[free[0], 0] if free and kernel.shape == (n, n - r) else 1
    if (kernel.shape != (n, n - r) or delta == 0
            or any(kernel.rows[f] != {t: delta} for t, f in enumerate(free))):
        raise CertificateFailed("rank certificate failed: kernel is not delta * I on free columns")
    if not (mat @ kernel).is_zero:
        raise CertificateFailed("rank certificate failed: kernel vector not annihilated")


def matrix_rank(mat: IntMatrix) -> int:
    """Rank over the rationals, by fraction-free elimination with no
    transforms and no Smith normal form; certified on every call."""
    mat = intmat(mat)
    rows, cols, kernel = _rank_core(mat)
    _check_rank(mat, rows, cols, kernel)
    return len(cols)


def kernel_basis(mat: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel ``{x : mat @ x = 0}``:
    the last columns of ``V``, the only transform built."""
    mat = intmat(mat)
    D, _, col_ops = _certified_smith(mat)
    r = len(_nonzero_diagonal(D))
    n = mat.shape[1]
    return IntMatrix((n - r, n), _transform(n, col_ops)[r:]).T


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FGAbelianGroup(Value):
    """A finitely generated abelian group in invariant-factor normal form.

    ``Z^free_rank (+) Z/torsion[0] (+) ...`` with the divisibility chain
    ``torsion[0] | torsion[1] | ...`` and every factor at least 2.  The
    form is unique, so ``==`` decides isomorphism.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int = 0, torsion=()):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        torsion = tuple(int(d) for d in torsion)
        prev = 1
        for d in torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "FGAbelianGroup":
        return cls(0, (order,))

    @classmethod
    def from_cyclic_orders(cls, orders, free: int = 0) -> "FGAbelianGroup":
        """Canonicalize an arbitrary direct sum of cyclic groups.

        ``0`` denotes an infinite cyclic summand, and ``free`` more of them
        are counted rather than listed.  Each finite order ``a`` is
        inserted into a divisibility chain kept as runs of equal factors,
        walking down from the top by the exchange
        ``Z/v (+) Z/a = Z/gcd(v, a) (+) Z/lcm(v, a)``: in a run of ``v``
        the top copy becomes ``lcm(v, a)``, the other copies stay (their
        lcm with ``gcd(v, a)`` is ``v``), and ``gcd(v, a)`` is carried
        down.  A carry of 1 changes nothing below; one left over at the
        bottom is the new smallest factor.  Consecutive distinct factors
        at least double, so one insertion visits at most as many runs as
        the largest factor has bits; no order is factored.
        """
        free += sum(1 for d in orders if d == 0)
        chain: list[list[int]] = []  # [factor, copies], each factor dividing the next
        for d in orders:
            a = abs(int(d))
            i = len(chain)
            while a > 1 and i:
                i -= 1
                v, copies = chain[i]
                g = gcd(v, a)
                if g == a:
                    continue
                if copies == 1:
                    del chain[i]
                    at = i
                else:
                    chain[i][1] = copies - 1
                    at = i + 1
                top = v // g * a
                if at < len(chain) and chain[at][0] == top:
                    chain[at][1] += 1
                else:
                    chain.insert(at, [top, 1])
                a = g
            if a > 1:
                if chain and chain[0][0] == a:
                    chain[0][1] += 1
                else:
                    chain.insert(0, [a, 1])
        return cls(free, tuple(v for v, copies in chain for _ in range(copies)))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def ngens(self) -> int:
        """Minimal number of generators of the canonical presentation."""
        return self.free_rank + len(self.torsion)

    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def direct_sum(self, *others: "FGAbelianGroup") -> "FGAbelianGroup":
        free = self.free_rank + sum(g.free_rank for g in others)
        orders = list(self.torsion)
        for g in others:
            orders.extend(g.torsion)
        return FGAbelianGroup.from_cyclic_orders(orders, free)

    def render(self, symbol: str = "Z") -> str:
        """Canonical string: ``0 | Z^r | Z/d | term (+) term ...``."""
        terms = []
        if self.free_rank == 1:
            terms.append(symbol)
        elif self.free_rank > 1:
            terms.append(f"{symbol}^{_printed(self.free_rank, 'free rank')}")
        terms.extend(f"Z/{_printed(d, 'invariant factor')}" for d in self.torsion)
        return " (+) ".join(terms) if terms else "0"

    def __str__(self) -> str:
        return self.render()


def _printed(n: int, what: str) -> str:
    try:
        return str(n)
    except ValueError:
        # the interpreter's limit on int-to-str conversion
        raise OutOfRange(f"{what} of {n.bit_length()} bits is too long to print") from None


def cokernel_group(mat: IntMatrix) -> FGAbelianGroup:
    """``Z^rows / column span`` in canonical form."""
    diag = snf_diagonal(mat)
    return FGAbelianGroup(mat.shape[0] - len(diag), tuple(d for d in diag if d >= 2))


# ---------------------------------------------------------------------------
# lattice subquotients (used by the spectral-sequence engine)


def relation_matrix(orders: list[int]) -> IntMatrix:
    """Columns ``d_i * e_i`` for the finite orders in a canonical
    presentation (order 0 marks a free generator and contributes nothing)."""
    rows: list[dict[int, int]] = [{} for _ in orders]
    j = 0
    for i, d in enumerate(orders):
        if d != 0:
            rows[i] = {j: int(d)}
            j += 1
    return IntMatrix((len(orders), j), rows)


def presented_subquotient(
    orders: list[int],
    out_map: IntMatrix,
    out_orders: list[int],
    in_map: IntMatrix,
) -> FGAbelianGroup:
    """Kernel-mod-image inside a presented group.

    The ambient group is ``Z^m / R`` where ``m = len(orders)`` and ``R``
    is the relation lattice of ``orders``.  ``out_map`` (on generators)
    must be well defined modulo the target relations described by
    ``out_orders``; ``in_map`` lands in the ambient group.  A zero map, of
    any shape, costs no factorization.  Returns ker(out)/im(in) in canonical form.
    """
    m = len(orders)
    rel = relation_matrix(orders)
    if out_map.is_zero:
        kgen = identity(m)
    else:
        if out_map.shape[1] != m:
            raise ShapeMismatch("outgoing map has wrong number of columns")
        out_rel = relation_matrix(out_orders)
        # kernel columns are (y, x) pairs with out_map @ x = out_rel @ y;
        # the x block spans the preimage of the target relation lattice
        kernel = kernel_basis(stack([[-out_rel, out_map]]))
        kgen = IntMatrix((m, kernel.shape[1]), kernel.rows[out_rel.shape[1] :])
    jcols = [rel]
    if not in_map.is_zero:
        if in_map.shape[0] != m:
            raise ShapeMismatch("incoming map has wrong number of rows")
        jcols.append(in_map)
    jmat = stack([jcols])

    # the row log of kgen's factorization applied to jmat is U @ jmat
    D, row_ops, _ = _certified_smith(kgen)
    diag = _nonzero_diagonal(D)
    r = len(diag)
    x = []
    for i, row in enumerate(_replay(jmat.rows, row_ops)):
        if i >= r:
            if row:
                raise ShapeMismatch("image does not lie inside the kernel")
        else:
            if any(v % diag[i] for v in row.values()):
                raise ShapeMismatch("image does not lie inside the kernel lattice")
            x.append({j: v // diag[i] for j, v in row.items()})
    return cokernel_group(IntMatrix((r, jmat.shape[1]), x))


# ---------------------------------------------------------------------------
# cochain complexes


class CochainComplex(Value):
    """A bounded complex of free modules over Z or Q with exact matrices.

    ``ranks`` are the module ranks in degrees ``0 .. k``; adjacent
    composites are checked to vanish on construction, and the fields are
    frozen after that check.  Two complexes are equal when their ring,
    ranks and differentials are; complexes are not hashable.
    """

    ring: str
    ranks: tuple[int, ...]
    differentials: tuple[IntMatrix, ...]

    def __init__(self, ring: str, ranks, differentials):
        if ring not in (RING_Z, RING_Q):
            raise ValueError(f"unknown ring {ring!r}")
        ranks = tuple(int(c) for c in ranks)
        if not ranks or any(c < 0 for c in ranks):
            raise ValueError("ranks must be a nonempty list of nonnegative integers")
        diffs = [intmat(d) for d in differentials]
        if len(diffs) != len(ranks) - 1:
            raise ShapeMismatch("need exactly one differential per adjacent degree pair")
        for p, d in enumerate(diffs):
            expect = (ranks[p + 1], ranks[p])
            if d.shape != expect:
                raise ShapeMismatch(f"differential {p} has shape {d.shape}, expected {expect}")
        for p, (first, second) in enumerate(zip(diffs, diffs[1:])):
            if not product_is_zero(second, first):
                raise ComplexViolation(p)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "differentials", tuple(diffs))

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, p: int) -> int:
        if 0 <= p <= self.top_degree:
            return self.ranks[p]
        return 0

    def differential(self, p: int) -> IntMatrix:
        """The map from degree ``p`` to degree ``p + 1``; a zero matrix of
        shape ``(c_{p+1}, c_p)`` outside the stored range."""
        if 0 <= p < len(self.differentials):
            return self.differentials[p]
        return zeros(self.rank(p + 1), self.rank(p))

    __hash__ = None

    def __repr__(self) -> str:
        return f"CochainComplex(ring={self.ring}, ranks={list(self.ranks)})"

    def with_ring(self, ring: str) -> "CochainComplex":
        """The same differentials over ``ring``; they were checked when this
        complex was built, so nothing is checked again."""
        out = object.__new__(CochainComplex)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "ranks", self.ranks)
        object.__setattr__(out, "differentials", self.differentials)
        return out


def _map_invariants(ring: str, mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """``(rank, torsion)`` of one differential: over Q its certified rank
    from ``matrix_rank`` and no torsion, over Z the number of its nonzero
    invariant factors and those >= 2, from one ``snf_diagonal``.  A zero
    map, of any shape, has rank 0 and no torsion, read off ``is_zero``
    with no factorization."""
    if mat.is_zero:
        return 0, ()
    if ring == RING_Q:
        return matrix_rank(mat), ()
    diag = snf_diagonal(mat)
    return len(diag), tuple(d for d in diag if d >= 2)


def euler(ranks) -> int:
    """Alternating sum ``c_0 - c_1 + c_2 - ...`` of ranks or cell counts."""
    return sum((-1) ** p * r for p, r in enumerate(ranks))


def reduce_complex(c: CochainComplex) -> CochainComplex:
    """A chain-homotopy equivalent complex with no entry +-1 left in any
    differential.

    Gaussian elimination on the chain complex (Kaczynski, Mrozek and
    Slusarek 1998): a unit entry ``u`` at ``(i, j)`` of the differential
    out of degree ``p`` splits off the contractible pair formed by
    generator ``j`` of degree ``p`` and generator ``i`` of degree
    ``p + 1``.  What is left has the differential
    ``d - d[:, j] * u * d[i, :]`` with row ``i`` and column ``j`` dropped;
    the differential into degree ``p`` loses row ``j`` and the one out of
    degree ``p + 1`` loses column ``i``.  Pivots are taken while any
    differential holds a unit.  Each pass visits the rows of a degree
    shortest first, as they stand when the pass starts, and a row's pivot
    is its unit in the column with the fewest entries: the update then
    touches at most ``(row length - 1) * (column length - 1)`` entries,
    Markowitz's bound on fill-in.  The work runs on sparse rows, with the
    pivot row's other entries listed once per pivot; each column's set of
    rows changes only where an entry fills in or cancels.  The result is
    an ordinary ``CochainComplex``, so d after d = 0 is checked again on
    what remains.  A complex without unit entries comes back unchanged.
    """
    # rows[s]: generator of degree s + 1 -> {generator of degree s: entry};
    # cols[s]: generator of degree s -> generators of degree s + 1 with an entry
    rows: list[dict[int, dict[int, int]]] = []
    cols: list[dict[int, set[int]]] = []
    has_unit = False
    for s, mat in enumerate(c.differentials):
        row_map: dict[int, dict[int, int]] = {}
        col_map: dict[int, set[int]] = {j: set() for j in range(c.ranks[s])}
        for i, row in enumerate(mat.rows):
            if row:
                row_map[i] = dict(row)
                for j, x in row.items():
                    col_map[j].add(i)
                    has_unit = has_unit or x in (1, -1)
        rows.append(row_map)
        cols.append(col_map)
    if not has_unit:
        return c
    alive = [set(range(r)) for r in c.ranks]

    def eliminate(s: int, i: int, j: int) -> None:
        row_map, col_map = rows[s], cols[s]
        pivot_row = row_map.pop(i)
        u = pivot_row[j]
        for j2 in pivot_row:
            col_map[j2].discard(i)
        # the pivot row's other entries times -u, listed once.  A one-entry
        # row has none; skipping the empty comprehension for it makes this
        # pass about 9% faster on simplex-boundary spheres S^6 and S^8
        # (2-CPU box, Python 3.11)
        others = ()
        if len(pivot_row) > 1:
            others = [(j2, -u * v) for j2, v in pivot_row.items() if j2 != j]
        for r in col_map.pop(j):
            row = row_map[r]
            f = row.pop(j)
            for j2, w in others:
                x = row.get(j2)
                if x is None:
                    # fill-in: f and w are nonzero
                    row[j2] = f * w
                    col_map[j2].add(r)
                elif x := x + f * w:
                    row[j2] = x
                else:
                    # cancellation
                    del row[j2]
                    col_map[j2].discard(r)
            if not row:
                del row_map[r]
        if s > 0:
            gone = rows[s - 1].pop(j, {})
            for j2 in gone:
                cols[s - 1][j2].discard(j)
        if s + 1 < len(rows):
            # no row of d_{s+1} empties: its only entry in column i would
            # make d_{s+1} d_s = 0 force row i of d_s, the pivot row, to zero
            for r in cols[s + 1].pop(i):
                del rows[s + 1][r][i]
        alive[s].discard(j)
        alive[s + 1].discard(i)

    progress = True
    while progress:
        progress = False
        for s in range(len(rows)):
            row_map, col_map = rows[s], cols[s]
            for i in sorted(row_map, key=lambda i: len(row_map[i])):
                row = row_map.get(i)
                if row is None:
                    continue
                pivot, best = None, 0
                for j, x in row.items():
                    if (x == 1 or x == -1) and (pivot is None or len(col_map[j]) < best):
                        pivot, best = j, len(col_map[j])
                if pivot is not None:
                    eliminate(s, i, pivot)
                    progress = True

    keep = [sorted(a) for a in alive]
    index = [{old: new for new, old in enumerate(kept)} for kept in keep]
    out_mats = []
    for s, row_map in enumerate(rows):
        out: list[dict[int, int]] = [{} for _ in keep[s + 1]]
        for i, row in row_map.items():
            out[index[s + 1][i]] = {index[s][j]: x for j, x in row.items()}
        out_mats.append(IntMatrix((len(keep[s + 1]), len(keep[s])), out))
    out_ranks = [len(kept) for kept in keep]
    if euler(out_ranks) != euler(c.ranks):
        raise CertificateFailed("reduction postcondition failed: Euler characteristic changed")
    return CochainComplex(c.ring, out_ranks, out_mats)


def all_cohomology(c: CochainComplex) -> list[FGAbelianGroup]:
    """Cohomology in every degree, the one producer of a complex's groups.

    The complex is reduced once by ``reduce_complex`` and each
    differential of the remainder is read once: a zero map has rank 0
    and no torsion, read off ``is_zero`` with no factorization to
    certify, and any other map is factorized and certified
    (``matrix_rank`` over Q, ``snf_diagonal`` over Z).  At degree ``p``
    the free rank is ``c_p`` minus the ranks of the maps out of and into
    ``p``, and the torsion is that of the incoming map: every torsion
    class of its cokernel lies in the kernel of the outgoing map because
    the composite vanishes."""
    r = reduce_complex(c)
    # inv[p] belongs to the map into degree p, inv[p + 1] to the map out of it
    none = (0, ())
    inv = [none] + [_map_invariants(r.ring, d) for d in r.differentials] + [none]
    return [
        FGAbelianGroup(rank - out[0] - into[0], into[1])
        for rank, into, out in zip(r.ranks, inv, inv[1:])
    ]


MAX_LISTED_SUMMANDS = 10**6


def cohomology_with_coefficients(
    plain: list[FGAbelianGroup], group: FGAbelianGroup
) -> list[FGAbelianGroup]:
    """Cohomology with coefficients in ``group``, degree by degree, of a
    complex whose plain cohomology is ``plain``, the caller's
    ``all_cohomology(c)``.

    The universal coefficient theorem for a cochain complex of free
    modules (Hatcher, *Algebraic Topology*, Thm 3A.3, with the degrees
    reversed) gives H^p(C; G) = H^p(C) (x) G (+) Tor(H^{p+1}(C), G), so
    everything follows from ``plain`` by gcd arithmetic: Z (x) G = G, and
    Z/a (x) Z/b = Tor(Z/a, Z/b) = Z/gcd(a, b).  Over Q the caller passes
    a torsion-free group (``fibration.leray_serre_e2`` checks it).  Free
    summands are counted, cyclic ones listed; a degree that would list
    more than ``MAX_LISTED_SUMMANDS`` of them raises ``OutOfRange``.
    """
    plain = [*plain, FGAbelianGroup.trivial()]
    out = []
    for p, (h, nxt) in enumerate(zip(plain, plain[1:])):
        listed = len(h.torsion) * group.free_rank + len(group.torsion) * (
            h.free_rank + len(h.torsion) + len(nxt.torsion)
        )
        if listed > MAX_LISTED_SUMMANDS:
            raise OutOfRange(
                f"H^{p} with coefficients has {listed} cyclic summands,"
                f" more than the limit of {MAX_LISTED_SUMMANDS}"
            )
        orders = list(h.torsion) * group.free_rank if h.torsion else []
        for d in group.torsion:
            orders += [d] * h.free_rank
            orders += [gcd(e, d) for e in h.torsion + nxt.torsion]
        out.append(FGAbelianGroup.from_cyclic_orders(orders, h.free_rank * group.free_rank))
    return out
