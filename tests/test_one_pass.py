"""One quadrature pass per Euler integral: the prescan's refusals and its
branch-cut warning, malformed cycles refused before any quadrature, and
no second pass over an integral that misses its band."""

import math

import pytest

import gkz.evaluate
import gkz.verify
from gkz import (
    AxisCycle,
    OutOfDomain,
    SingularOnCycle,
    binomial_expansion_identity,
    elementary_pullback,
    euler_integral,
    positive_axis,
    unit_circle,
    verify_binomial_identity,
)
from gkz.cli import main

GAUSS_BETA = (-0.9, -0.35, -0.45)
ORTHANT = (positive_axis(), positive_axis())

# --------------------------------------------------------------------------
# the prescan
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x, message",
    [((1, -3, 1), "f_1 changes sign along axis 1"),
     ((1, -2, 1), "f_1 vanishes near w")],
)
def test_prescan_refuses_a_zero_on_the_positive_axis(quadric_entry, x, message):
    sf = quadric_entry.standard_form(1)
    with pytest.raises(SingularOnCycle, match=message):
        euler_integral(sf, (-0.6, -0.35), x, (positive_axis(),))


def test_prescan_refuses_a_sign_change_on_the_orthant(gauss_entry):
    sf = gauss_entry.standard_form(1)
    with pytest.raises(SingularOnCycle, match="f_1 changes sign along axis 1"):
        euler_integral(sf, GAUSS_BETA, (1, -0.8, 1.2, 0.4), ORTHANT)


@pytest.mark.parametrize("beta, fractional", [(GAUSS_BETA, True),
                                              ((-1.2, -0.35, -0.45), False)])
def test_prescan_warns_of_a_cut_crossing_for_a_fractional_power(
    gauss_entry, monkeypatch, beta, fractional
):
    sf = gauss_entry.standard_form(1)
    power = sf.transform_parameters(beta)[0]
    assert (power == pytest.approx(-2)) != fractional
    # every axis integral reads 0, so the result carries the prescan's
    # warnings alone
    monkeypatch.setattr(gkz.evaluate._IteratedIntegral, "_axis", lambda *a: 0j)
    res = euler_integral(sf, beta, (1, 0.8j, 1.2, -0.4), ORTHANT)
    cut = "f_1 crosses the branch cut along axis 1"
    assert (cut in res.warnings) == fractional


# --------------------------------------------------------------------------
# cycles are checked where they enter
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "axis",
    [AxisCycle("segment"), positive_axis(math.nan), positive_axis(-math.inf)],
    ids=["segment", "nan", "inf"],
)
def test_a_malformed_cycle_is_refused_before_any_quadrature(
    gauss_entry, monkeypatch, axis
):
    def no_quadrature(*args):
        raise AssertionError("a quadrature was set up")

    monkeypatch.setattr(gkz.evaluate, "_IteratedIntegral", no_quadrature)
    sf = gauss_entry.standard_form(1)
    with pytest.raises(OutOfDomain):
        euler_integral(sf, GAUSS_BETA, (1, 0.8, 1.2, 0.4), (axis, positive_axis()))


def test_a_nan_phase_on_the_cli_exits_3(capsys):
    code = main(["eval", "--catalog", "gauss", "--beta", "-0.9,-0.35,-0.45",
                 "--x", "1,0.8,1.2,0.4", "--cycle", "pos:nan,pos"])
    assert code == 3
    assert "the phase of ray(phase=nan) is not finite" in capsys.readouterr().err


# --------------------------------------------------------------------------
# one pass per integral
# --------------------------------------------------------------------------


def test_binomial_square_builds_one_quadrature_per_integral(
    square_entry, monkeypatch
):
    # the last point of the built-in sample, order N = 1, default
    # tolerances; a rerun with boosted budgets used to build 4 quadratures
    # for these 3 integrals, and 15 for the 12 of `gkz verify binomial
    # square` (N = 2 at the three points)
    built, integrals = [], []

    class Counted(gkz.evaluate._IteratedIntegral):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    def counted(*args, **kwargs):
        integrals.append(None)
        return euler_integral(*args, **kwargs)

    monkeypatch.setattr(gkz.evaluate, "_IteratedIntegral", Counted)
    monkeypatch.setattr(gkz.verify, "euler_integral", counted)
    sample = square_entry.binomial_sample
    sf = square_entry.standard_form(1)
    auto = elementary_pullback(sf, sample.variable, sample.shift)
    identity = binomial_expansion_identity(sf, auto, sample.beta_for(1), 1)
    rep = verify_binomial_identity(
        identity, [(identity.lhs_beta, sample.xs[-1])],
        cycle=(positive_axis(), unit_circle()),
    )
    assert rep.verdict == "pass"
    assert len(integrals) == 1 + len(identity.terms)
    assert len(built) == len(integrals)
