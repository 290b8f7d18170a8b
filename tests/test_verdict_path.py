"""The shared verdict path of the identity checks: quadratures per PDE
report, the F4 certificate's symmetry taken from the group, and the
Pfaff check's sample count."""

from fractions import Fraction

import pytest

import gkz.verify
from gkz import GkzError, apply, catalog, induced_transformation, verify_pde, verify_pfaff
from gkz.evaluate import EvaluationResult
from gkz.lattice import solve_unique
from gkz.symmetry import find_symmetries
from gkz.verify import f4_nonexistence_report, toric_moves


def test_pde_runs_one_integral_per_toric_move(gauss_entry, monkeypatch):
    # Only the number of quadratures and the rows their values land in are
    # under test, so each integral is a counted stand-in whose value names
    # the derivative it was asked for.
    calls = []

    def fake_euler(sf, beta, x, cycle, settings):
        calls.append(None)
        return EvaluationResult(value=1 + 0j, error_estimate=0.0, converged=True)

    def fake_derivative(sf, beta, x, u, cycle, settings):
        calls.append(tuple(u))
        value = complex(2 + sum((j + 1) * k for j, k in enumerate(u)))
        return EvaluationResult(value=value, error_estimate=0.0, converged=True)

    monkeypatch.setattr(gkz.verify, "euler_integral", fake_euler)
    monkeypatch.setattr(gkz.verify, "derivative_integral", fake_derivative)
    config = gauss_entry.config
    rep = verify_pde(config, (-0.9, -0.35, -0.45), (1, 0.8, 1.2, 0.4),
                     None, None)
    moves = toric_moves(config)
    assert len(calls) == 1 + config.n + len(moves) == 6
    toric_rows = zip(rep.lhs_values[config.d:], rep.rhs_values[config.d:])
    assert [l == r for l, r in toric_rows] == [True] * len(moves)
    assert rep.residuals[config.d:] == [0.0] * len(moves)


def _shape(p):
    a, b, c, cp = p
    return (b - cp + 1, b, c, b - a + 1)


def test_f4_certificate_element_is_the_only_one_with_the_shape():
    ent = catalog("appell_f4")
    model = ent.classical
    names = model.param_names
    shift = tuple(row[0] for row in model.beta_matrix)
    lin = tuple(row[1:] for row in model.beta_matrix)
    zero = (Fraction(0),) * len(names)
    units = [tuple(Fraction(int(i == j)) for j in range(len(names)))
             for i in range(len(names))]

    def induced(sym, p):
        beta = model.beta_from_params(dict(zip(names, p)))
        beta2, _ = apply(induced_transformation(sym), beta, (0,) * ent.config.n)
        return solve_unique(lin, tuple(v - s for v, s in zip(beta2, shift)))

    # an affine map is fixed by its values at 0 and at the unit vectors
    matches = [sym for sym in find_symmetries(ent.config)
               if all(induced(sym, p) == _shape(p) for p in [zero, *units])]
    assert len(matches) == 1
    (sym,) = matches
    rep = f4_nonexistence_report()
    assert rep.steps[0]["detail"].startswith(
        f"T rows {sym.t_matrix}, column map {tuple(p + 1 for p in sym.perm)} ")
    assert rep.steps[0]["passed"] and rep.steps[1]["passed"]


@pytest.mark.parametrize("samples", [0, -1])
def test_pfaff_refuses_fewer_than_one_sample(samples):
    with pytest.raises(GkzError):
        verify_pfaff(samples)
