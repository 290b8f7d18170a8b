"""Properties of the exact lattice kernels: rank, det, solve, SNF, kernels."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkz.lattice import (
    det,
    kernel_basis_int,
    mat_mul,
    mat_vec,
    pivot_columns,
    rank,
    smith_normal_form,
    solve_unique,
    transpose,
)

ENTRY = st.integers(-6, 6)
FRACTION = st.fractions(min_value=-6, max_value=6, max_denominator=6)
FEW = settings(max_examples=40, deadline=None)


@st.composite
def matrices(draw, rows=None, cols=None, entries=ENTRY):
    nrows = draw(st.integers(1, 6)) if rows is None else rows
    ncols = draw(st.integers(1, 6)) if cols is None else cols
    return tuple(
        tuple(draw(entries) for _ in range(ncols)) for _ in range(nrows)
    )


@st.composite
def squares(draw):
    n = draw(st.integers(1, 6))
    return draw(matrices(rows=n, cols=n))


def cofactor_det(a):
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * cofactor_det(tuple(row[:j] + row[j + 1:] for row in a[1:]))
        for j in range(len(a))
        if a[0][j]
    )


@FEW
@given(squares(), st.data())
def test_solve_recovers_x(a, data):
    n = len(a)
    x = tuple(data.draw(FRACTION) for _ in range(n))
    b = mat_vec(a, x)
    if cofactor_det(a) == 0:
        assert solve_unique(a, b) is None
        return
    assert solve_unique(a, b) == x
    scales = [data.draw(FRACTION.filter(bool)) for _ in range(n)]
    a_scaled = tuple(tuple(s * v for v in row) for s, row in zip(scales, a))
    b_scaled = tuple(s * v for s, v in zip(scales, b))
    assert solve_unique(a_scaled, b_scaled) == x


@FEW
@given(squares(), st.data())
def test_det_is_multiplicative_and_matches_cofactors(a, data):
    b = data.draw(matrices(rows=len(a), cols=len(a)))
    assert det(a) == cofactor_det(a)
    assert det(mat_mul(a, b)) == det(a) * det(b)


@FEW
@given(squares(), st.lists(FRACTION.filter(bool), min_size=6, max_size=6))
def test_det_of_fraction_rows(a, scales):
    scaled = tuple(tuple(s * v for v in row) for s, row in zip(scales, a))
    expected = cofactor_det(a)
    for s in scales[: len(a)]:
        expected *= s
    assert det(scaled) == expected


def _greedy_pivots(a):
    cols = transpose(a)
    chosen = []
    for j in range(len(cols)):
        if rank(tuple(cols[k] for k in chosen + [j])) == len(chosen) + 1:
            chosen.append(j)
    return tuple(chosen)


@FEW
@given(matrices())
def test_rank_and_pivot_columns(a):
    assert rank(a) == len(pivot_columns(a)) == rank(transpose(a))
    assert rank(a) == len(smith_normal_form(a).invariant_factors)
    assert pivot_columns(a) == _greedy_pivots(a)


@FEW
@given(matrices())
def test_smith_invariant_factors_divide_the_next(a):
    factors = smith_normal_form(a).invariant_factors
    assert all(f > 0 for f in factors)
    assert all(g % f == 0 for f, g in zip(factors, factors[1:]))


@FEW
@given(matrices())
def test_kernel_basis_is_saturated(a):
    basis = kernel_basis_int(a)
    assert len(basis) == len(a[0]) - rank(a)
    for z in basis:
        assert mat_vec(a, z) == (0,) * len(a)
    if basis:
        assert set(smith_normal_form(basis).invariant_factors) == {1}
        assert len(smith_normal_form(basis).invariant_factors) == len(basis)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError):
        det(((1, 2), (3, 4), (5, 6)))


def test_solve_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        solve_unique(((1, 0, 5), (0, 1, 7)), (1, 2))
    with pytest.raises(ValueError):
        solve_unique(((1, 0), (0, 1)), (1, 2, 3))


def test_products_reject_mismatched_shapes():
    # shape checks that must hold under python -O too
    with pytest.raises(ValueError):
        mat_vec(((1, 2), (3, 4)), (1,))
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1,),))


def test_empty_and_float_inputs():
    assert det(()) == 1 and solve_unique((), ()) == () and rank(()) == 0
    assert det(((0.5, 1), (0.25, 3))) == Fraction(5, 4)
    assert pivot_columns(((0, 1, 2), (0, 2, 4))) == (1,)
