"""Quadrature engine, classical series, and the factorial helpers."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkz import (
    BranchAmbiguityWarning,
    DimensionMismatch,
    OutOfDomain,
    PoleInC,
    PoleInGamma,
    QuadratureSettings,
    UnsupportedParameters,
    appell_f4,
    classical_solution,
    derivative_integral,
    euler_integral,
    gauss_2f1,
    homogenization_constant,
    lauricella_fc,
    negative_axis,
    positive_axis,
    real_line,
    unit_circle,
    unit_interval,
)
from gkz.errors import SingularOnCycle
from gkz.evaluate import falling_factorial, log_gamma, rising_pochhammer

ORTHANT = None  # filled by fixture; 2-D integrals are the slow part


@pytest.fixture(scope="module")
def gauss_orthant(gauss_entry, fast_settings):
    """One 2-D positive-orthant evaluation shared by several tests."""
    sf = gauss_entry.standard_form(1)
    beta = (-0.9, -0.35, -0.45)
    x = (1, 0.8, 1.2, 0.4)
    res = euler_integral(
        sf, beta, x, (positive_axis(), positive_axis()), fast_settings
    )
    return sf, beta, x, res


def checked(res, settings):
    assert res.converged
    assert res.error_estimate <= max(
        settings.rel_tol * abs(res.value), settings.abs_tol
    )
    return res.value


# --------------------------------------------------------------------------
# Euler integrals against closed forms
# --------------------------------------------------------------------------


def test_beta_integral_when_block_power_vanishes(gauss_entry, fast_settings):
    # with a = 0 the kernel factor drops and the integral is B(b, c-b)
    b, c = 0.5, 1.7
    sf = gauss_entry.standard_form(2)
    res = euler_integral(
        sf, (c - 1, -b, 0.0), (1, -1, 1, -0.77), (unit_interval(),), fast_settings
    )
    val = checked(res, fast_settings)
    assert abs(val - complex(mp.beta(b, c - b))) < 1e-12


def test_interval_integral_is_beta_times_series(gauss_entry, fast_settings):
    a, b, c, x4 = 0.3, 0.5, 1.7, 0.25
    sf = gauss_entry.standard_form(2)
    res = euler_integral(
        sf, (c - 1, -b, -a), (1, -1, 1, -x4), (unit_interval(),), fast_settings
    )
    val = checked(res, fast_settings)
    ref = complex(mp.beta(b, c - b) * mp.hyp2f1(a, b, c, x4))
    assert abs(val - ref) / abs(ref) < 1e-10


def test_orthant_integral_closed_form(gauss_orthant, fast_settings):
    # integrating the first axis leaves a one-dimensional kernel whose
    # integral is again of Gauss type; chaining the two steps gives
    # gamma(p) gamma(-s-p) / gamma(-s) * x1^(s+p+q) x2^(-p) x3^(-q)
    #   * B(q, -s-q) * 2F1(p, q; -s; 1 - x1 x4 / (x2 x3))
    sf, beta, x, res = gauss_orthant
    s, p, q = -1.7, 0.35, 0.45
    assert sf.transform_parameters(beta) == (s, -p, -q)
    z = 1 - (x[0] * x[3]) / (x[1] * x[2])
    ref = complex(
        mp.gamma(p) * mp.gamma(-s - p) / mp.gamma(-s)
        * x[0] ** (s + p + q) * x[1] ** (-p) * x[2] ** (-q)
        * mp.beta(q, -s - q) * mp.hyp2f1(p, q, -s, z)
    )
    val = checked(res, fast_settings)
    assert abs(val - ref) / abs(ref) < 1e-9


def test_rotated_ray_leaves_value(gauss_orthant, fast_settings):
    # the integrand is analytic and decaying in the right half planes, so
    # tilting one ray must not move the value
    sf, beta, x, res = gauss_orthant
    tilted = euler_integral(
        sf, beta, x, (positive_axis(0.3), positive_axis()), fast_settings
    )
    assert tilted.converged
    assert abs(tilted.value - res.value) / abs(res.value) < 1e-8


def test_half_line_orientations(quadric_entry, fast_settings):
    """negative_axis continues the tail power into the lower half plane
    (theta = -pi ray, leaving the origin); real_line is the chain from
    -inf to +inf, so it carries the negative ray with reversed sign."""
    beta = (-0.7, -0.2)
    x = (2.0, 1.0, 3.0)
    sf = quadric_entry.standard_form(1)
    pos = euler_integral(sf, beta, x, (positive_axis(),), fast_settings)
    neg = euler_integral(sf, beta, x, (negative_axis(),), fast_settings)
    line = euler_integral(sf, beta, x, (real_line(),), fast_settings)
    # t = u^5 removes the algebraic endpoint singularity of the oracle
    ipos = mp.quad(lambda u: 5 * (2 + u**5 + 3 * u**10) ** mp.mpf("-0.7"), [0, 1, 2, mp.inf])
    ineg = mp.quad(lambda u: 5 * (2 - u**5 + 3 * u**10) ** mp.mpf("-0.7"), [0, 1, 2, mp.inf])
    assert abs(pos.value - complex(ipos)) < 1e-9
    assert abs(neg.value - cmath.exp(-0.2j * math.pi) * complex(ineg)) < 1e-9
    assert abs(line.value - (pos.value - neg.value)) < 1e-9


def test_circle_cycle_picks_residue(quadric_entry, fast_settings):
    # at block power 2 and tail parameter 1 the integrand is f^2 / w^2,
    # whose residue at 0 is twice x1 x2
    sf = quadric_entry.standard_form(1)
    x = (1.3, 0.6, 2.0)
    res = euler_integral(sf, (2, 1), x, (unit_circle(),), fast_settings)
    val = checked(res, fast_settings)
    assert abs(val - 4j * math.pi * x[0] * x[1]) < 1e-10


def test_plain_measure_circle_oracle(square_entry, fast_settings):
    # inner circle integral of f^-2 w2^2 is a residue in closed form; the
    # remaining ray integral is a pair of beta functions
    sf = square_entry.standard_form(1)
    res = euler_integral(
        sf,
        (-2.0, -2, -0.1),
        (0.3, 0.2j, 1, 1),
        (positive_axis(), unit_circle()),
        fast_settings,
        measure="plain",
    )
    ref = -4j * math.pi * complex(
        0.3 * mp.beta(1.1, 1.9) + 0.2j * mp.beta(2.1, 0.9)
    )
    val = checked(res, fast_settings)
    assert abs(val - ref) / abs(ref) < 1e-9


def test_measure_name_is_validated(quadric_entry, fast_settings):
    sf = quadric_entry.standard_form(1)
    with pytest.raises(OutOfDomain):
        euler_integral(
            sf, (-0.7, -0.2), (2, 1, 3), (positive_axis(),), fast_settings,
            measure="lebesgue",
        )


def test_vanishing_kernel_is_rejected(quadric_entry, fast_settings):
    # both roots of 1 - 3w + w^2 are positive, so the ray hits them
    sf = quadric_entry.standard_form(1)
    with pytest.raises(SingularOnCycle):
        euler_integral(
            sf, (-0.7, -0.2), (1, -3, 1), (positive_axis(),), fast_settings
        )


def test_cycle_arity_must_match(quadric_entry, fast_settings):
    sf = quadric_entry.standard_form(1)
    with pytest.raises(DimensionMismatch):
        euler_integral(
            sf, (-0.7, -0.2), (2, 1, 3), (positive_axis(), positive_axis()),
            fast_settings,
        )


def test_doubling_subdivisions_within_error(gauss_entry):
    sf = gauss_entry.standard_form(2)
    beta = (0.7, -0.5, -0.3)
    x = (1, -1, 1, -0.25)
    coarse = QuadratureSettings(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=25)
    fine = QuadratureSettings(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=50)
    ra = euler_integral(sf, beta, x, (unit_interval(),), coarse)
    rb = euler_integral(sf, beta, x, (unit_interval(),), fine)
    assert ra.converged and rb.converged
    assert abs(ra.value - rb.value) <= max(ra.error_estimate, rb.error_estimate)


def test_loose_tolerance_error_budget_is_honest(gauss_entry, fast_settings):
    sf = gauss_entry.standard_form(2)
    beta = (0.7, -0.5, -0.3)
    x = (1, -1, 1, -0.25)
    loose = QuadratureSettings(rel_tol=1e-6, abs_tol=1e-9)
    rl = euler_integral(sf, beta, x, (unit_interval(),), loose)
    rt = euler_integral(sf, beta, x, (unit_interval(),), fast_settings)
    assert rl.converged and rt.converged
    assert abs(rl.value - rt.value) <= rl.error_estimate + rt.error_estimate


def test_settings_require_positive_tolerances():
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=0)
    with pytest.raises(ValueError):
        QuadratureSettings(abs_tol=-1e-10)


# --------------------------------------------------------------------------
# derivatives under the integral sign
# --------------------------------------------------------------------------


def test_zero_order_derivative_is_the_integral(gauss_orthant, fast_settings):
    sf, beta, x, res = gauss_orthant
    same = derivative_integral(
        sf, beta, x, (0, 0, 0, 0), (positive_axis(), positive_axis()),
        fast_settings,
    )
    assert same.value == res.value
    assert same.error_estimate == res.error_estimate


def test_equal_column_sums_give_equal_derivatives(gauss_entry, fast_settings):
    # columns 1+4 and 2+3 sum to the same lattice point
    a = np.array(gauss_entry.config.matrix)
    assert (a[:, 0] + a[:, 3] == a[:, 1] + a[:, 2]).all()
    sf = gauss_entry.standard_form(2)
    beta = (0.7, -0.5, -0.3)
    x = (1, -0.9, 1, -0.35)
    d1 = derivative_integral(sf, beta, x, (1, 0, 0, 1), (unit_interval(),), fast_settings)
    d2 = derivative_integral(sf, beta, x, (0, 1, 1, 0), (unit_interval(),), fast_settings)
    assert d1.converged and d2.converged
    assert abs(d1.value - d2.value) <= 1e-9 * abs(d1.value)


def test_euler_operator_rows(quadric_entry, fast_settings):
    # sum_j A_ij x_j dF/dx_j must reproduce beta_i F row by row; needs a
    # cycle without boundary under the torus scaling, hence the full line
    sf = quadric_entry.standard_form(1)
    beta = (-0.7, -0.2)
    x = (2.0, 1.0, 3.0)
    cycle = (real_line(),)
    base = euler_integral(sf, beta, x, cycle, fast_settings).value
    grads = []
    for j in range(3):
        u = tuple(1 if k == j else 0 for k in range(3))
        grads.append(derivative_integral(sf, beta, x, u, cycle, fast_settings).value)
    a = quadric_entry.config.matrix
    for i in range(2):
        lhs = sum(a[i][j] * x[j] * grads[j] for j in range(3))
        assert abs(lhs - beta[i] * base) <= 1e-9 * abs(base)


def test_derivative_against_finite_difference(gauss_entry, fast_settings):
    sf = gauss_entry.standard_form(2)
    beta = (0.7, -0.5, -0.3)
    cycle = (unit_interval(),)
    h = 1e-5
    d4 = derivative_integral(
        sf, beta, (1, -1, 1, -0.25), (0, 0, 0, 1), cycle, fast_settings
    ).value
    up = euler_integral(sf, beta, (1, -1, 1, -0.25 + h), cycle, fast_settings).value
    dn = euler_integral(sf, beta, (1, -1, 1, -0.25 - h), cycle, fast_settings).value
    assert abs(d4 - (up - dn) / (2 * h)) <= 1e-6 * abs(d4)


# --------------------------------------------------------------------------
# homogenization constant
# --------------------------------------------------------------------------


def test_homogenization_single_block_is_one():
    for b in (0.37, -1.2, 2 + 0.5j):
        assert homogenization_constant(1, (b,)) == 1


def test_homogenization_multinomials():
    assert homogenization_constant(2, (1, 1)) == 2
    assert homogenization_constant(2, (2, 1)) == 3
    assert homogenization_constant(2, (2, 2)) == 6


def test_homogenization_rejects_fractional_heads():
    with pytest.raises(UnsupportedParameters):
        homogenization_constant(2, (0.5, 1))


# --------------------------------------------------------------------------
# classical series
# --------------------------------------------------------------------------


def test_2f1_at_origin():
    assert gauss_2f1(0.3, 0.7, 1.1, 0) == 1


def test_2f1_log_closed_form():
    x = 0.5
    ref = -cmath.log(1 - x) / x
    assert abs(gauss_2f1(1, 1, 2, x) - ref) < 1e-14
    # x = -3 is reachable only through the reflected argument
    assert abs(gauss_2f1(1, 1, 2, -3) - math.log(4) / 3) < 1e-14


def test_2f1_matches_reference_near_boundary():
    for x in (0.95, -0.5, 0.3 + 0.4j):
        ref = complex(mp.hyp2f1(0.3, 0.7, 1.1, x))
        assert abs(gauss_2f1(0.3, 0.7, 1.1, x) - ref) / abs(ref) < 1e-12


def test_2f1_symmetric_in_upper_parameters():
    v1 = gauss_2f1(0.3, 0.7, 1.1, 0.4)
    v2 = gauss_2f1(0.7, 0.3, 1.1, 0.4)
    assert abs(v1 - v2) < 1e-14 * abs(v1)


def test_2f1_domain_errors():
    with pytest.raises(PoleInC):
        gauss_2f1(0.3, 0.7, 0, 0.4)
    with pytest.raises(PoleInC):
        gauss_2f1(0.3, 0.7, -1, 0.4)
    with pytest.raises(OutOfDomain):
        gauss_2f1(0.3, 0.7, 1.1, 2.0)


def test_f4_at_origin():
    assert appell_f4(0.3, 0.7, 1.1, 0.9, 0, 0) == 1


def test_f4_collapses_to_2f1():
    v = appell_f4(0.3, 0.7, 1.1, 0.9, 0.2, 0)
    w = gauss_2f1(0.3, 0.7, 1.1, 0.2)
    assert abs(v - w) / abs(w) < 1e-12


def test_f4_argument_symmetry():
    v1 = appell_f4(0.3, 0.7, 1.1, 0.9, 0.1, 0.15)
    v2 = appell_f4(0.3, 0.7, 0.9, 1.1, 0.15, 0.1)
    assert abs(v1 - v2) / abs(v1) < 1e-13


def test_f4_matches_reference():
    for y1, y2 in ((0.1, 0.15), (0.1, -0.2)):
        ref = complex(mp.hyper2d({"m+n": [0.3, 0.7]}, {"m": [1.1], "n": [0.9]}, y1, y2))
        val = appell_f4(0.3, 0.7, 1.1, 0.9, y1, y2)
        assert abs(val - ref) / abs(ref) < 1e-12


def test_f4_domain_errors():
    with pytest.raises(OutOfDomain):
        appell_f4(0.3, 0.7, 1.1, 0.9, 0.5, 0.3)
    with pytest.raises(PoleInC):
        appell_f4(0.3, 0.7, 1.1, -2, 0.1, 0.1)


def test_fc_at_origin():
    assert lauricella_fc(3, 0.3, 0.7, (1.1, 0.9, 1.3), (0, 0, 0)) == 1


def test_fc_single_variable_is_2f1():
    for y in (0.3, -0.6, 0.2 + 0.1j):
        v = lauricella_fc(1, 0.3, 0.7, (1.1,), (y,))
        w = gauss_2f1(0.3, 0.7, 1.1, y)
        assert abs(v - w) / abs(w) < 1e-12


def test_fc_two_variables_is_f4():
    rng = np.random.default_rng(7)
    for _ in range(5):
        r = rng.uniform(0.05, 0.45, size=2)
        y1, y2 = r[0] ** 2, (1 - 0.05 - r[0]) ** 2 * rng.uniform(0.2, 1)
        v = lauricella_fc(2, 0.3, 0.7, (1.1, 0.9), (y1, y2))
        w = appell_f4(0.3, 0.7, 1.1, 0.9, y1, y2)
        assert abs(v - w) / abs(w) < 1e-12


def test_fc_third_variable_collapse():
    v = lauricella_fc(3, 0.3, 0.7, (1.1, 0.9, 1.3), (0.1, 0.15, 0))
    w = appell_f4(0.3, 0.7, 1.1, 0.9, 0.1, 0.15)
    assert abs(v - w) / abs(w) < 1e-12


def test_fc_domain_errors():
    with pytest.raises(UnsupportedParameters):
        lauricella_fc(4, 0.3, 0.7, (1.1,) * 4, (0.01,) * 4)
    with pytest.raises(DimensionMismatch):
        lauricella_fc(2, 0.3, 0.7, (1.1,), (0.1, 0.1))
    with pytest.raises(OutOfDomain):
        lauricella_fc(2, 0.3, 0.7, (1.1, 0.9), (0.4, 0.4))


# Bailey's reduction (DLMF 16.16): with c' = a + b - c + 1,
# F4(a, b; c, c'; x(1-y), y(1-x)) = 2F1(a, b; c; x) 2F1(a, b; c'; y).
# The first two points have sqrt|y1| + sqrt|y2| = 0.995, where the
# terms y^N underflow long before the series settles.
@pytest.mark.parametrize("x, y", [(0.4, 0.5), (0.45, 0.45), (-0.2, 0.3)])
def test_f4_and_fc2_match_bailey_product(x, y):
    a, b, c = 0.31, 0.74, 1.2
    cp = a + b - c + 1
    with mp.workdps(30):
        ref = complex(mp.hyp2f1(a, b, c, x) * mp.hyp2f1(a, b, cp, y))
    y1, y2 = x * (1 - y), y * (1 - x)
    for val in (appell_f4(a, b, c, cp, y1, y2), lauricella_fc(2, a, b, (c, cp), (y1, y2))):
        assert abs(val - ref) / abs(ref) < 1e-12


def test_2f1_matches_reference_up_to_the_unit_circle():
    for x in (0.9, 0.99, 0.999, -0.9, 0.6 + 0.6j):
        with mp.workdps(30):
            ref = complex(mp.hyp2f1(0.3, 0.7, 1.1, x))
        assert abs(gauss_2f1(0.3, 0.7, 1.1, x) - ref) / abs(ref) < 1e-12


def test_fc3_matches_sum_of_shifted_f4():
    # FC(3) = sum_k (a)_k (b)_k y3^k / ((c3)_k k!) F4(a + k, b + k; c1, c2; y1, y2)
    a, b, cs, ys = 0.31, 0.74, (1.2, 0.85, 1.4), (0.03, 0.05, -0.01)
    with mp.workdps(30):
        ref = mp.fsum(
            mp.rf(a, k) * mp.rf(b, k) * mp.mpf(ys[2]) ** k / (mp.rf(cs[2], k) * mp.factorial(k))
            * mp.appellf4(a + k, b + k, cs[0], cs[1], ys[0], ys[1])
            for k in range(12)
        )
    assert abs(lauricella_fc(3, a, b, cs, ys) - complex(ref)) / abs(ref) < 1e-13


def test_real_inputs_give_real_values():
    # log-space sums carry a phase i pi per negative factor; a real
    # input must still give a real value (canonical JSON writes a float)
    assert lauricella_fc(3, -0.31, 0.74, (1.2, -0.85, 1.4), (-0.05, 0.04, -0.03)).imag == 0
    assert lauricella_fc(1, -0.31, 0.74, (1.2,), (0.3,)).imag == 0
    assert appell_f4(0.31, 0.74, 1.2, 0.85, -0.1, 0.2).imag == 0
    assert gauss_2f1(-0.3, 0.7, 1.1, -0.6).imag == 0
    assert gauss_2f1(-2.5, -0.7, 1.1, 0.6).imag == 0


def test_classical_gauss_point(gauss_entry):
    p = dict(a=0.3, b=0.5, c=1.7)
    v = classical_solution(gauss_entry, p, (1, 1, 1, 0.25))
    assert abs(v - gauss_2f1(0.3, 0.5, 1.7, 0.25)) < 1e-15


def test_classical_f4_points():
    from gkz import catalog

    entry = catalog("appell_f4")
    p = dict(a=0.3, b=0.7, c=1.1, cp=0.9)
    y1, y2 = 0.1, 0.15
    plain = classical_solution(entry, p, (1, 1, 1, 1, y1, y2))
    assert abs(plain - appell_f4(0.3, 0.7, 1.1, 0.9, y1, y2)) < 1e-14
    # moving the arguments into slots 2 and 3 switches on the monomial
    # prefactor y1^(c-1) y2^(c'-1)
    shifted = classical_solution(entry, p, (1, y1, y2, 1, 1, 1))
    pref = y1 ** (1.1 - 1) * y2 ** (0.9 - 1)
    assert abs(shifted - pref * appell_f4(0.3, 0.7, 1.1, 0.9, y1, y2)) < 1e-13


def test_classical_zero_denominator(gauss_entry):
    with pytest.raises(OutOfDomain):
        classical_solution(gauss_entry, dict(a=0.3, b=0.5, c=1.7), (1, 0, 1, 0.25))


def test_classical_negative_base_warns(gauss_entry):
    with pytest.warns(BranchAmbiguityWarning):
        classical_solution(
            gauss_entry, dict(a=0.3, b=0.5, c=1.7), (-1, 1, 1, -0.25)
        )


# --------------------------------------------------------------------------
# factorial helpers
# --------------------------------------------------------------------------


def test_factorials_at_zero():
    assert falling_factorial(0.3 + 1j, 0) == 1
    assert rising_pochhammer(0.3 + 1j, 0) == 1


def test_rising_of_one_is_factorial():
    for k in range(12):
        assert abs(rising_pochhammer(1, k) - math.factorial(k)) <= 1e-13 * math.factorial(k)


@given(
    re=st.floats(-5, 5, allow_nan=False),
    im=st.floats(-5, 5, allow_nan=False),
    k=st.integers(0, 20),
)
@settings(max_examples=80, deadline=None)
def test_falling_rising_sign_flip(re, im, k):
    alpha = complex(re, im)
    lhs = falling_factorial(alpha, k)
    rhs = (-1) ** k * rising_pochhammer(-alpha, k)
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def test_log_gamma_matches_reference():
    for z in (0.5, 3.7, 12.0, 2 + 3j, 0.1 - 0.4j):
        ref = complex(mp.loggamma(z))
        assert abs(log_gamma(z) - ref) < 1e-12 * max(abs(ref), 1.0)


def test_log_gamma_poles():
    for z in (0, -1, -7):
        with pytest.raises(PoleInGamma):
            log_gamma(z)
