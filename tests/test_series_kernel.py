"""The FC(m) series kernel against loops and oracles, and the float rows
that feed it from the classical parameter dictionaries."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gkz import catalog
from gkz.configs import CATALOG_NAMES
from gkz.evaluate import _fc_series, _log_convolve


def loop_convolve(p, q):
    """log sum_k exp(p[k] + q[N - k]), one degree at a time."""
    out = np.empty(len(p), dtype=complex)
    for n in range(len(p)):
        v = p[: n + 1] + q[n::-1]
        top = v.real.max()
        if top == -np.inf:
            out[n] = -np.inf
            continue
        out[n] = top + np.log(np.exp(v - top).sum())
    return out


def random_table(rng, n):
    t = rng.normal(0, 20, n) + 1j * rng.uniform(-4, 4, n)
    t[rng.random(n) < 0.25] = -np.inf
    return t


# lengths 1..300 cross one or several row blocks of the kernel
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31, 64, 127, 128, 129, 200, 255, 257, 300])
def test_log_convolve_matches_the_degree_loop(n):
    rng = np.random.default_rng(n)
    p, q = random_table(rng, n), random_table(rng, n)
    got, want = _log_convolve(p, q), loop_convolve(p, q)
    empty = want.real == -np.inf
    assert (got.real[empty] == -np.inf).all()
    assert np.isfinite(got[~empty]).all()
    assert np.abs(np.exp(got[~empty] - want[~empty]) - 1).max(initial=0) < 1e-13


def test_log_convolve_of_an_empty_row_is_minus_infinity():
    p = np.array([-np.inf, 0, 1], dtype=complex)
    q = np.array([-np.inf, 2, 3], dtype=complex)
    got = _log_convolve(p, q)
    assert got[0].real == -np.inf and got[1].real == -np.inf
    assert abs(got[2] - 2) < 1e-15


def split(s, shares):
    """Arguments with sum sqrt|y_i| = s: y_i = sign(w) (s w)^2."""
    return tuple(np.sign(w) * (s * w) ** 2 for w in shares)


@pytest.mark.parametrize("s", [0.3, 0.7, 0.98])
def test_2f1_and_f4_match_mpmath(s):
    a, b, c, cp = 0.31, 0.74, 1.2, 0.85
    with mp.workdps(30):
        for x in (s * s, -s * s):
            ref = complex(mp.hyp2f1(a, b, c, x))
            assert abs(_fc_series(a, b, (c,), (x,)) - ref) < 1e-12 * abs(ref)
        # mixed signs: mpmath's double sum is slow at s = 0.98 with both
        # arguments positive (the Bailey-product test covers that case)
        shares = [(0.3, -0.7)] + ([(0.5, 0.5)] if s < 0.9 else [])
        for ys in map(lambda w: split(s, w), shares):
            ref = complex(mp.appellf4(a, b, c, cp, *ys))
            assert abs(_fc_series(a, b, (c, cp), ys) - ref) < 1e-12 * abs(ref)


def test_large_parameters_outgrow_the_first_table():
    # at sum sqrt|y| = 0.3 the first table is short, but (20)_N^2 / N!
    # keeps the terms growing past it, so the tables must double
    ys = split(0.3, (0.5, 0.5))
    with mp.workdps(30):
        ref = complex(mp.hyp2f1(20, 20, 1.5, 0.09))
        ref2 = complex(mp.appellf4(12, 9, 1.5, 2.5, *ys))
    assert abs(_fc_series(20, 20, (1.5,), (0.09,)) - ref) < 1e-12 * abs(ref)
    assert abs(_fc_series(12, 9, (1.5, 2.5), ys) - ref2) < 1e-12 * abs(ref2)


def poch(z, k):
    out = Fraction(1)
    for j in range(k):
        out *= z + j
    return out


def test_terminating_series_is_its_polynomial():
    a, b = -3, Fraction(7, 10)
    cs, ys = (Fraction(6, 5), Fraction(17, 20)), (Fraction(1, 5), Fraction(-3, 10))
    exact1 = sum(
        poch(a, k) * poch(b, k) * ys[0] ** k / (poch(cs[0], k) * poch(1, k))
        for k in range(4)
    )
    exact2 = sum(
        poch(a, k1 + k2) * poch(b, k1 + k2) * ys[0] ** k1 * ys[1] ** k2
        / (poch(cs[0], k1) * poch(1, k1) * poch(cs[1], k2) * poch(1, k2))
        for k1 in range(4)
        for k2 in range(4 - k1)
    )
    got1 = _fc_series(a, float(b), (float(cs[0]),), (float(ys[0]),))
    got2 = _fc_series(a, float(b), tuple(map(float, cs)), tuple(map(float, ys)))
    assert abs(got1 - float(exact1)) < 1e-15 * abs(float(exact1))
    assert abs(got2 - float(exact2)) < 1e-15 * abs(float(exact2))
    assert got1.imag == 0 and got2.imag == 0


# --------------------------------------------------------------------------
# classical models: float rows give the Fraction rows' values
# --------------------------------------------------------------------------


def documented_points():
    for name in CATALOG_NAMES:
        entry = catalog(name)
        model = entry.classical
        if model is None or len(model.param_names) != len(model.beta_matrix):
            continue
        for sample in (entry.group_grid, entry.pde_sample):
            if sample is not None:
                yield pytest.param(model, sample.beta, id=f"{name}-{sample.beta}")


@pytest.mark.parametrize("model, beta", list(documented_points()))
def test_float_rows_equal_the_fraction_path(model, beta):
    lin = np.array([row[1:] for row in model.beta_matrix], dtype=complex)
    rhs = [b - row[0] for b, row in zip(beta, model.beta_matrix)]
    sol = np.linalg.solve(lin, np.array(rhs, dtype=complex))
    want = {
        name: float(v.real) if abs(v.imag) < 1e-14 else complex(v)
        for name, v in zip(model.param_names, sol)
    }
    params = model.params_from_beta(beta)
    assert params == want
    for p in (params, {k: complex(v) + 0.25j for k, v in params.items()}):
        vec = (1,) + tuple(p[name] for name in model.param_names)
        exact = tuple(
            sum(c * v for c, v in zip(row, vec)) for row in model.prefactor_exponents
        )
        assert model.prefactor_exponent_values(p) == exact


def test_exact_parameters_keep_exact_exponents():
    model = catalog("gauss").classical
    params = {"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(7, 5)}
    values = model.prefactor_exponent_values(params)
    assert all(type(v) is Fraction for v in values)
    assert values[0] == Fraction(2, 5)
