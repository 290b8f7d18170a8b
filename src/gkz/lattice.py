"""Exact linear algebra over the integers and rationals.

Everything in this module works on small dense matrices given as sequences
of rows.  Arithmetic uses Python ints and fractions.Fraction throughout;
no floating point is introduced anywhere.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence


IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    """Normalize a matrix-like into a tuple of int tuples."""
    out = tuple(tuple(int(v) for v in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    if any(len(r) != inner for r in a):
        raise ValueError(f"left factor needs {inner} columns")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def mat_vec(a, v) -> tuple:
    if any(len(r) != len(v) for r in a):
        raise ValueError(f"matrix needs {len(v)} columns")
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def transpose(a) -> IntMatrix:
    return tuple(zip(*a))


def column(a, j) -> tuple:
    return tuple(row[j] for row in a)


def _integral(vec) -> tuple[list[int], int]:
    """The integer vector den.vec for the least common denominator den."""
    fr = [Fraction(v) for v in vec]
    den = lcm(*(f.denominator for f in fr))
    return [int(f * den) for f in fr], den


def _echelon(a, rhs=None):
    """Fraction-free (Bareiss) row echelon form of ``a``, or of ``[a | rhs]``.

    Returns ``(rows, pivots, sign, scale)``: the integer echelon rows, the
    pivot columns (searched in ``a`` only), the sign of the row swaps, and
    the product of the denominators that made the input rows integral.
    After k pivots each entry below them is a (k+1)-minor of the input, so
    every division by the previous pivot is exact (Sylvester's identity;
    Bareiss, Math. Comp. 22, 1968).
    """
    width = len(a[0]) if a else 0
    if any(len(row) != width for row in a):
        raise ValueError("ragged matrix")
    if rhs is not None:
        a = [tuple(row) + tuple(v) for row, v in zip(a, rhs)]
        if any(len(row) != len(a[0]) for row in a):
            raise ValueError("ragged right-hand side")
    rows, scale = [], 1
    for row in a:
        if not all(type(v) is int for v in row):
            row, den = _integral(row)
            scale *= den
        rows.append(row)
    pivots, sign, prev = [], 1, 1
    for col in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(piv * v - f * w) // prev for v, w in zip(rows[i], top)]
        prev = piv
        pivots.append(col)
    return rows, pivots, sign, scale


def _require_square(a, b=None) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if b is not None and len(b) != n:
        raise ValueError(f"right-hand side has length {len(b)}, expected {n}")
    return n


def rank(a) -> int:
    """Rank over the rationals."""
    return len(_echelon(a)[1])


def pivot_columns(a) -> tuple[int, ...]:
    """Lexicographically first maximal set of independent column indices."""
    return tuple(_echelon(a)[1])


def det(a) -> Fraction:
    """Determinant of a square matrix, exact."""
    n = _require_square(a)
    rows, pivots, sign, scale = _echelon(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * (rows[-1][-1] if n else 1), scale)


def solve_unique(a, b) -> Optional[tuple]:
    """Solve a.x = b for square invertible ``a``; None if singular.

    ``b`` is a vector, or a matrix of n rows to solve for several
    right-hand sides by one elimination; x is then the matrix of n rows
    with a.x = b.  Returns Fractions.
    """
    n = _require_square(a, b)
    several = n > 0 and isinstance(b[0], (tuple, list))
    rhs = b if several else [(v,) for v in b]
    rows, pivots, _, _ = _echelon(a, rhs)
    if len(pivots) < n:
        return None
    # The last pivot d is +-det of the integral rows, so by Cramer's rule
    # y = d.x is integral and back-substitution divides exactly.
    d = rows[-1][n - 1] if n else 1
    y = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        y[i] = [
            (d * v - sum(row[j] * y[j][c] for j in range(i + 1, n))) // row[i]
            for c, v in enumerate(row[n:])
        ]
    x = tuple(tuple(Fraction(v, d) for v in yi) for yi in y)
    return x if several else tuple(xi[0] for xi in x)


def adjugate(a) -> tuple[int, IntMatrix]:
    """``(det a, adj a)`` of an invertible integer matrix, so a.adj = det.I.

    adj = det.a^-1 comes from one solve of [a | I].  T.a = c is then solved
    for many c by the integer product c.adj and one divisibility test by
    det, with no further elimination.
    """
    n = _require_square(a)
    den = det(a)
    if den == 0:
        raise ValueError("matrix is singular")
    if any(v != int(v) for row in a for v in row):
        raise ValueError("matrix is not integral")
    den = int(den)
    return den, tuple(
        tuple(den // v.denominator * v.numerator for v in row)
        for row in solve_unique(a, identity(n))
    )


def invert_unimodular(u) -> IntMatrix:
    """Integer inverse of a matrix with determinant +-1."""
    den, adj = adjugate(u)
    if abs(den) != 1:
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(den * v for v in row) for row in adj)


class SmithDecomposition(NamedTuple):
    """U.M.V = S with U, V unimodular and S diagonal, divisibility ordered."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.s), len(self.s[0]) if self.s else 0)
        return tuple(self.s[i][i] for i in range(k) if self.s[i][i] != 0)


def smith_normal_form(mat) -> SmithDecomposition:
    """Smith normal form over the integers.

    Row operations accumulate in U, column operations in V, so that
    U.M.V = S exactly.  Diagonal entries are nonnegative and each divides
    the next.
    """
    m = [list(row) for row in freeze(mat)]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u = [list(row) for row in identity(nrows)]
    v = [list(row) for row in identity(ncols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + k * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in m:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < min(nrows, ncols):
        # Locate a minimal-magnitude nonzero pivot in the trailing block.
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                a = abs(m[i][j])
                if a and (best is None or a < best):
                    best, pivot = a, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # Euclidean reduction until the pivot divides its row and column.
        while True:
            for i in range(t + 1, nrows):
                if m[i][t]:
                    add_row(t, i, -(m[i][t] // m[t][t]))
            if any(m[i][t] for i in range(t + 1, nrows)):
                i = min(
                    (i for i in range(t + 1, nrows) if m[i][t]),
                    key=lambda i: abs(m[i][t]),
                )
                swap_rows(t, i)
                continue
            for j in range(t + 1, ncols):
                if m[t][j]:
                    add_col(t, j, -(m[t][j] // m[t][t]))
            if any(m[t][j] for j in range(t + 1, ncols)):
                j = min(
                    (j for j in range(t + 1, ncols) if m[t][j]),
                    key=lambda j: abs(m[t][j]),
                )
                swap_cols(t, j)
                continue
            break
        if m[t][t] < 0:
            negate_row(t)
        # Enforce divisibility of the remaining block by the pivot.
        culprit = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t]:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(culprit, t, 1)
            continue
        t += 1

    return SmithDecomposition(
        freeze(u), freeze(m), freeze(v)
    )


def kernel_basis_int(mat) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer kernel {z : M.z = 0}, saturated in Z^ncols."""
    snf = smith_normal_form(mat)
    ncols = len(snf.v)
    k = min(len(snf.s), ncols)
    r = sum(1 for i in range(k) if snf.s[i][i] != 0)
    basis = []
    for j in range(r, ncols):
        vec = column(snf.v, j)
        # Sign convention: first nonzero entry positive.
        lead = next((x for x in vec if x != 0), 1)
        if lead < 0:
            vec = tuple(-x for x in vec)
        basis.append(vec)
    return tuple(basis)


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, same direction."""
    ints, _ = _integral(vec)
    g = gcd(*ints) if any(ints) else 1
    return tuple(v // g for v in ints)


def unimodular_completion(rows: Sequence[Sequence[int]], d: int) -> Optional[IntMatrix]:
    """Extend m independent rows to a d x d unimodular matrix.

    The given rows must form a basis of a direct summand of Z^d (all Smith
    invariant factors 1); otherwise no completion exists and None is
    returned.  The output has the given rows first, in order.
    """
    head = freeze(rows)
    m = len(head)
    if m == 0:
        return identity(d)
    snf = smith_normal_form(head)
    k = min(m, d)
    diag = [snf.s[i][i] for i in range(k)]
    if len([x for x in diag if x != 0]) != m or any(x != 1 for x in diag):
        return None
    v_inv = invert_unimodular(snf.v)
    tail = v_inv[m:]
    return freeze(list(head) + [list(r) for r in tail])
