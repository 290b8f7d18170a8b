"""adjugate by one solve of [a | I], and solve_unique with several
right-hand sides."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkz.lattice import adjugate, det, identity, mat_mul, solve_unique, transpose

ENTRY = st.integers(-6, 6)
FEW = settings(max_examples=60, deadline=None)


@st.composite
def squares(draw, entries=ENTRY):
    n = draw(st.integers(1, 6))
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@FEW
@given(squares())
def test_adjugate_inverts_up_to_det(a):
    assume(det(a) != 0)
    den, adj = adjugate(a)
    n = len(a)
    assert type(den) is int and den == det(a)
    assert all(type(v) is int for row in adj for v in row)
    scaled = tuple(tuple(den * v for v in row) for row in identity(n))
    assert mat_mul(a, adj) == scaled
    assert mat_mul(adj, a) == scaled


@FEW
@given(squares(), st.data())
def test_singular_matrices_are_refused(a, data):
    # repeat a row (or scale it) so that the matrix is singular
    n = len(a)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    k = data.draw(ENTRY)
    rows = list(a)
    rows[i] = tuple(k * v for v in rows[j]) if i != j else (0,) * n
    with pytest.raises(ValueError, match="matrix is singular"):
        adjugate(tuple(rows))


@FEW
@given(squares(), st.data())
def test_fraction_matrices_are_refused(a, data):
    assume(det(a) != 0)
    i = data.draw(st.integers(0, len(a) - 1))
    den = data.draw(st.integers(2, 6))
    rows = [tuple(map(Fraction, row)) for row in a]
    rows[i] = tuple(v / den for v in rows[i])
    assume(any(v.denominator != 1 for v in rows[i]))
    with pytest.raises(ValueError, match="matrix is not integral"):
        adjugate(tuple(rows))


def test_integral_fractions_are_integers():
    a = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    assert adjugate(a) == (1, ((1, -1), (-1, 2)))
    # det and adjugate integral, entries not: still refused
    with pytest.raises(ValueError, match="matrix is not integral"):
        adjugate(((Fraction(1, 2), 0, 0), (0, 2, 0), (0, 0, 2)))


@FEW
@given(squares(), st.data())
def test_several_right_hand_sides_equal_column_by_column(a, data):
    n = len(a)
    k = data.draw(st.integers(1, 4))
    b = tuple(tuple(data.draw(ENTRY) for _ in range(k)) for _ in range(n))
    got = solve_unique(a, b)
    columns = [solve_unique(a, col) for col in transpose(b)]
    if det(a) == 0:
        assert got is None and all(c is None for c in columns)
        return
    assert got == transpose(columns)
    assert mat_mul(a, got) == b


def test_several_right_hand_sides_shapes():
    assert solve_unique(((2,),), ((1, 4),)) == ((Fraction(1, 2), Fraction(2)),)
    assert solve_unique(((1, 0), (0, 1)), [[1], [2]]) == ((1,), (2,))
    with pytest.raises(ValueError, match="ragged"):
        solve_unique(((1, 0), (0, 1)), ((1, 2), (3,)))
    with pytest.raises(ValueError):
        solve_unique(((1, 0), (0, 1)), ((1, 2),))
