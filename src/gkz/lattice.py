"""Exact linear algebra over the integers and rationals.

Everything in this module works on small dense matrices given as sequences
of rows.  Arithmetic uses Python ints and fractions.Fraction throughout;
no floating point is introduced anywhere.
"""

from fractions import Fraction
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
    assert all(len(r) == inner for r in a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def mat_vec(a, v) -> tuple:
    assert len(a[0]) == len(v)
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def transpose(a) -> IntMatrix:
    return tuple(zip(*a))


def column(a, j) -> tuple:
    return tuple(row[j] for row in a)


def rank(a) -> int:
    """Rank over the rationals, by fraction-free style Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in a]
    nrows, ncols = len(m), len(m[0]) if m else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def det(a) -> Fraction:
    """Determinant of a square matrix, exact."""
    n = len(a)
    m = [[Fraction(v) for v in row] for row in a]
    sign = 1
    out = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        out *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [v - f * w for v, w in zip(m[i], m[col])]
    return out * sign


def solve_unique(a, b) -> Optional[tuple]:
    """Solve a.x = b for square invertible ``a``; None if singular.

    Returns a tuple of Fractions.
    """
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[col])]
    return tuple(m[i][n] for i in range(n))


def invert_unimodular(u) -> IntMatrix:
    """Integer inverse of a matrix with determinant +-1."""
    n = len(u)
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        sol = solve_unique(u, e)
        if sol is None:
            raise ValueError("matrix is singular")
        cols.append(sol)
    inv = transpose(cols)
    out = tuple(tuple(int(v) for v in row) for row in inv)
    if any(Fraction(o) != v for ro, rv in zip(out, inv) for o, v in zip(ro, rv)):
        raise ValueError("matrix is not unimodular")
    return out


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


def solve_integer(mat, rhs) -> Optional[tuple[int, ...]]:
    """One integer solution of M.x = rhs, or None."""
    snf = smith_normal_form(mat)
    c = mat_vec(snf.u, rhs)
    nrows, ncols = len(mat), len(mat[0])
    y = [0] * ncols
    for i in range(nrows):
        s = snf.s[i][i] if i < min(nrows, ncols) else 0
        if s:
            if c[i] % s:
                return None
            y[i] = c[i] // s
        elif c[i]:
            return None
    return mat_vec(snf.v, tuple(y))


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, same direction."""
    from math import gcd, lcm

    fr = [Fraction(v) for v in vec]
    denom = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * denom) for f in fr]
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
