"""The double-exponential rule on the innermost ray axis of an Euler
integral: slow tails, rotated rays and the real line against mpmath,
divergence refused at once, inputs that must not escape as bare
exceptions, and the QUADPACK calls left to the outer axes."""

import cmath
import math

import mpmath as mp
import pytest

import gkz.evaluate
from gkz import (
    GkzError,
    NotConverged,
    QuadratureSettings,
    derivative_integral,
    euler_integral,
    negative_axis,
    positive_axis,
    real_line,
    unit_interval,
    verify_pde,
)
from gkz.cli import main

GAUSS_BETA = (-0.9, -0.35, -0.45)
GAUSS_X = (1, 0.8, 1.2, 0.4)


def _quadric_ray(x, s, p, theta):
    """int_0^oo f(e^{i theta} t)^s (e^{i theta} t)^p dt/t by mpmath, in
    y = t^p, where the integrand is smooth at y = 0."""
    rot = mp.expj(theta)

    def g(y):
        w = rot * y ** (1 / mp.mpf(p))
        return (x[0] + x[1] * w + x[2] * w**2) ** s / p

    with mp.workdps(30):
        return complex(mp.expj(theta * p) * mp.quad(g, [0, 0.5, 1, 2, mp.inf]))


def _within_claim(res, oracle):
    assert res.converged
    assert abs(res.value - oracle) <= res.error_estimate


# --------------------------------------------------------------------------
# accuracy and honest error estimates
# --------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("gap", [0.05, 0.35])
def test_slow_tail_matches_beta_function(quadric_entry, s, gap):
    # quadric with x3 = 0 is int_0^oo t^(s-1) (1 + t)^(-a) dt = B(s, a - s),
    # whose integrand falls off only like t^(-gap) dt/t
    sf = quadric_entry.standard_form(1)
    a = s + gap
    res = euler_integral(sf, (-a, -s), (1, 1, 0), (positive_axis(),))
    _within_claim(res, complex(mp.beta(s, gap)))


@pytest.mark.parametrize("cycle", ["rotated", "line"])
def test_rotated_ray_and_real_line_match_mpmath(quadric_entry, cycle):
    sf = quadric_entry.standard_form(1)
    x, beta = (2.0, 1.0, 3.0), (-0.7, -0.2)
    s, p = -0.7, 0.2
    if cycle == "rotated":
        axis, oracle = positive_axis(0.6), _quadric_ray(x, s, p, 0.6)
    else:
        axis = real_line()
        oracle = _quadric_ray(x, s, p, 0) - _quadric_ray(x, s, p, -math.pi)
    _within_claim(euler_integral(sf, beta, x, (axis,)), oracle)


def test_rotated_inner_ray_keeps_the_orthant_value(gauss_entry):
    # the integrand decays in the right half plane of w2, so tilting the
    # inner ray leaves the value of test_orthant_integral_closed_form
    sf = gauss_entry.standard_form(1)
    s, p, q = -1.7, 0.35, 0.45
    x = GAUSS_X
    z = 1 - (x[0] * x[3]) / (x[1] * x[2])
    ref = complex(
        mp.gamma(p) * mp.gamma(-s - p) / mp.gamma(-s)
        * x[0] ** (s + p + q) * x[1] ** (-p) * x[2] ** (-q)
        * mp.beta(q, -s - q) * mp.hyp2f1(p, q, -s, z)
    )
    res = euler_integral(
        sf, GAUSS_BETA, x, (positive_axis(), positive_axis(0.3))
    )
    assert res.converged
    assert abs(res.value - ref) <= 1e-10 * abs(ref)


def test_zero_coefficient_is_dropped(gauss_entry):
    # x4 = 0 leaves (x1 + x2 w1 + x3 w2)^s, a Dirichlet integral:
    # x1^(s+p+q) x2^-p x3^-q G(p) G(q) G(-s-p-q) / G(-s)
    sf = gauss_entry.standard_form(1)
    s, p, q = -1.7, 0.35, 0.45
    x = (1.3, 0.8, 1.2, 0)
    ref = complex(
        x[0] ** (s + p + q) * x[1] ** (-p) * x[2] ** (-q)
        * mp.gamma(p) * mp.gamma(q) * mp.gamma(-s - p - q) / mp.gamma(-s)
    )
    res = euler_integral(sf, GAUSS_BETA, x, (positive_axis(), positive_axis()))
    assert res.converged
    assert abs(res.value - ref) <= 1e-9 * abs(ref)


# six of the slowest quadric negative-axis draws of the benchmark's contour
# workload: beta2 near -0.10 leaves the integrand falling off only like
# t^0.1 dt/t towards 0
SLOW_DRAWS = [
    (-0.8899, -0.1017, (1.9348, -3.4918, 2.7881)),
    (-0.6783, -0.1014, (2.4219, 2.3515, 1.7810)),
    (-0.8773, -0.1014, (2.7774, -2.4168, 2.8326)),
    (-0.6686, -0.1018, (1.4543, 1.6946, 2.8927)),
    (-0.6138, -0.1017, (2.4976, 3.6077, 1.9811)),
    (-0.8445, -0.1009, (2.7277, 1.9053, 2.1120)),
]


@pytest.mark.parametrize("s, b, x", SLOW_DRAWS)
def test_slow_negative_axis_draws(quadric_entry, s, b, x):
    sf = quadric_entry.standard_form(1)
    res = euler_integral(sf, (s, b), x, (negative_axis(),))
    _within_claim(res, _quadric_ray(x, s, -b, -math.pi))


# --------------------------------------------------------------------------
# refusals and robustness
# --------------------------------------------------------------------------


def test_growing_integrand_is_refused_at_once(gauss_entry):
    # beta (0.7, -0.3, -0.5) gives f^-0.1 w1^0.3 w2^0.5: along w2 the
    # integrand grows like t^0.4
    sf = gauss_entry.standard_form(1)
    with pytest.raises(NotConverged, match=r"axis 2: it grows like t\^0\.4 "):
        euler_integral(
            sf, (0.7, -0.3, -0.5), (1, 1.1, 1.3, 0.2),
            (positive_axis(), positive_axis()),
        )


def test_growing_integrand_exits_3(capsys, monkeypatch):
    monkeypatch.delenv("GKZ_TOL", raising=False)
    code = main(["eval", "--catalog", "gauss", "--beta", "0.7,-0.3,-0.5",
                 "--x", "1,1.1,1.3,0.2"])
    assert code == 3
    assert "does not decay towards infinity on axis 2" in capsys.readouterr().err


WIDE = [(1e30, 1.0, 1e-30), (1e-30, 1.0, 1e30), (1e-30, 1e-30, 1.0),
        (1.0, 1e30, 1.0), (1e30, -1.0, 1e-30)]


@pytest.mark.parametrize("x", WIDE)
@pytest.mark.parametrize("theta", [0.2, -math.pi])
def test_wide_coefficients_match_the_scaled_oracle(quadric_entry, x, theta):
    # t = lam * y with lam = sqrt(x1 / x3) maps x to (1, x2 / sqrt(x1 x3), 1)
    # and the integral to x1^s lam^p times that one's
    s, p = -0.6, 0.35
    lam = math.sqrt(x[0] / x[2])
    with mp.workdps(30):
        oracle = complex(
            mp.mpf(x[0]) ** s * mp.mpf(lam) ** p
            * _quadric_ray((1, x[1] / math.sqrt(x[0] * x[2]), 1), s, p, theta)
        )
    sf = quadric_entry.standard_form(1)
    res = euler_integral(sf, (s, -p), x, (positive_axis(theta),))
    # (1, 1e30, 1) has two zeros on the negative axis, outside the prescan
    if res.converged:
        assert abs(res.value - oracle) <= res.error_estimate


@pytest.mark.parametrize("x", WIDE)
@pytest.mark.parametrize("axis", ["negative", "line"])
@pytest.mark.parametrize("u", [(0, 1, 0), (1, 0, 2)])
def test_wide_derivatives_raise_only_gkz_errors(quadric_entry, x, axis, u):
    cycle = negative_axis() if axis == "negative" else real_line()
    sf = quadric_entry.standard_form(1)
    try:
        res = derivative_integral(sf, (-0.6, -0.35), x, u, (cycle,))
    except GkzError:
        return
    assert cmath.isfinite(res.value) and math.isfinite(res.error_estimate)


def test_wide_orthant_raises_only_gkz_errors(gauss_entry):
    sf = gauss_entry.standard_form(1)
    for x in ((1e30, 1.0, 1.0, 1e-30), (1.0, 1e-30, 1e30, 1.0)):
        try:
            res = euler_integral(
                sf, GAUSS_BETA, x, (positive_axis(), positive_axis()),
                QuadratureSettings(rel_tol=1e-6, abs_tol=1e-300),
            )
        except GkzError:
            continue
        assert cmath.isfinite(res.value) and math.isfinite(res.error_estimate)


def test_outer_interval_node_that_underflows(gauss_entry):
    # a power p = 0.004 maps the interval by t = s^250, which underflows to
    # 0 near s = 0; with x4 = 0 the inner ray integral is a beta function
    # and the outer one x1^(s+q) / p 2F1(-s-q, p; p+1; -x2/x1)
    sf = gauss_entry.standard_form(1)
    s, p, q = -1.7, 0.004, 0.45
    x = (1.3, 0.8, 1.2, 0)
    ref = complex(
        mp.mpf(x[0]) ** (s + q) / p * mp.hyp2f1(-s - q, p, p + 1, -x[1] / x[0])
        * mp.mpf(x[2]) ** (-q) * mp.beta(q, -s - q)
    )
    # beta with transform_parameters(beta) = (s, -p, -q) on this chart
    beta = (s + p + q, -p, -q)
    assert sf.transform_parameters(beta) == pytest.approx((s, -p, -q))
    res = euler_integral(sf, beta, x, (unit_interval(), positive_axis()))
    _within_claim(res, ref)


# --------------------------------------------------------------------------
# QUADPACK is left to the outer axes
# --------------------------------------------------------------------------


def test_pde_report_calls_quadpack_on_outer_axes_only(gauss_entry, monkeypatch):
    calls = []
    quad = gkz.evaluate.quad

    def counted(*args, **kwargs):
        calls.append(None)
        return quad(*args, **kwargs)

    monkeypatch.setattr(gkz.evaluate, "quad", counted)
    rep = verify_pde(
        gauss_entry.config, GAUSS_BETA, GAUSS_X,
        (positive_axis(), positive_axis()),
    )
    assert rep.verdict == "pass"
    # 6 integrals, one outer call each, and at most one retry each
    assert len(calls) <= 12

