"""Identity-checking harness.

Every numeric identity check evaluates both sides on a sample grid and
measures relative residuals; `_report` is the one verdict path, "pass"
when the check's own condition holds and the largest residual is below
its threshold.  Multivalued integrands make identities true only up to a
unit factor depending on branch and cycle choices, so the linear
transformation and quadric checks fit that constant at the first sample
(`_fit`); the PDE, Pfaff and binomial checks compare values directly and
report the constant 1.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import lattice
from .configs import (
    CatalogEntry,
    PointConfiguration,
    catalog,
    chart_of,
    entry_of,
)
from .errors import FitUnstable, UnknownName, UnsupportedParameters
from .evaluate import (
    QuadratureSettings,
    appell_f4,
    classical_solution,
    derivative_integral,
    euler_integral,
    gauss_2f1,
    log_gamma,
    negative_axis,
    positive_axis,
    real_line,
    series_2f1,
)
from .symmetry import find_symmetries, verify_symmetry
from .transforms import BinomialIdentity, LinearTransformation, apply

_TINY = 1e-300
# verify_pde's verdict: every residual below _EULER_TOL; the toric rows
# share one integral per move, so theirs is 0 within the stated _TORIC_TOL
_EULER_TOL = 1e-8
_TORIC_TOL = 1e-6


# ==========================================================================
# report containers
# ==========================================================================


def _num(v):
    if isinstance(v, int):  # bool included
        return v
    if isinstance(v, Fraction):
        return float(v)
    z = complex(v)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def _fmtc(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g} {sign} {abs(z.imag):.12g}i"


@dataclass
class IdentityReport:
    """Residuals and the fitted branch constant for one claimed identity."""

    description: str
    sample_points: list  # (beta, x) pairs
    lhs_values: list
    rhs_values: list
    fitted_constant: complex
    residuals: list
    verdict: str  # "pass" | "fail"
    notes: list = field(default_factory=list)
    threshold: float = 1e-6

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "samples": [
                {
                    "beta": [_num(b) for b in beta],
                    "x": [_num(v) for v in x],
                }
                for beta, x in self.sample_points
            ],
            "lhs": [_num(v) for v in self.lhs_values],
            "rhs": [_num(v) for v in self.rhs_values],
            "fitted_constant": [
                complex(self.fitted_constant).real,
                complex(self.fitted_constant).imag,
            ],
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def _fit(lhs, rhs, scale):
    """kappa with lhs[0] = kappa * scale * rhs[0], and every residual."""
    if len(lhs) < 2:
        # kappa fitted at the only sample matches it by construction
        raise FitUnstable(f"fitting a constant needs 2 samples, got {len(lhs)}")
    denom = scale * rhs[0]
    if abs(denom) < 1e-250 or not cmath.isfinite(denom):
        raise FitUnstable("first sample gives no usable value to fit against")
    kappa = lhs[0] / denom
    residuals = [
        abs(l - kappa * scale * r) / max(abs(l), _TINY)
        for l, r in zip(lhs, rhs)
    ]
    return kappa, residuals


def _report(
    description, points, lhs, rhs, residuals, threshold, notes, ok, kappa
) -> IdentityReport:
    """The verdict: pass when ok holds and every residual is below threshold."""
    return IdentityReport(
        description=description,
        sample_points=list(points),
        lhs_values=list(lhs),
        rhs_values=list(rhs),
        fitted_constant=kappa,
        residuals=residuals,
        verdict="pass" if ok and max(residuals) < threshold else "fail",
        notes=list(notes),
        threshold=threshold,
    )


# ==========================================================================
# sample grids
# ==========================================================================


@dataclass(frozen=True)
class SampleGrid:
    """(beta, x) pairs chosen to converge for the intended evaluators."""

    points: tuple

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    @staticmethod
    def for_entry(entry, count: int = 6) -> "SampleGrid":
        """The entry's default group-check grid with count points."""
        if not isinstance(entry, CatalogEntry):
            entry = catalog(str(entry))
        grid = entry.group_grid
        if grid is None:
            raise UnknownName(f"no default sample grid for {entry.name!r}")
        return SampleGrid(points=tuple((grid.beta, x) for x in grid.xs(count)))


# ==========================================================================
# kernel and PDE annihilation
# ==========================================================================


def kernel_basis(config: PointConfiguration) -> list:
    """Integer basis of the kernel of the configuration matrix."""
    return [tuple(v) for v in lattice.kernel_basis_int(config.matrix)]


def toric_moves(config: PointConfiguration) -> list:
    """Each kernel basis vector split as u - v with disjoint supports."""
    out = []
    for vec in kernel_basis(config):
        u = tuple(max(c, 0) for c in vec)
        v = tuple(max(-c, 0) for c in vec)
        out.append((u, v))
    return out


def verify_pde(
    config: PointConfiguration,
    beta,
    x,
    cycle,
    settings: Optional[QuadratureSettings] = None,
) -> IdentityReport:
    """Check annihilation by the toric and homogeneity operators.

    Toric: for kernel vectors u - v, the u and v mixed partials of the
    integral must agree; both are one chart integral, computed once.
    Homogeneity: sum_j a_ij x_j (dF/dx_j) must equal beta_i F, which
    quadrature sees as a nontrivial integration by parts identity.
    """
    sf = chart_of(config)
    n, d = config.n, config.d
    a = config.matrix
    base = euler_integral(sf, beta, x, cycle, settings)
    derivs = []
    for j in range(n):
        ej = tuple(1 if i == j else 0 for i in range(n))
        derivs.append(derivative_integral(sf, beta, x, ej, cycle, settings))
    lhs, rhs, residuals = [], [], []
    converged = base.converged and all(dv.converged for dv in derivs)
    for i in range(d):
        left = sum(a[i][j] * x[j] * derivs[j].value for j in range(n))
        right = complex(beta[i]) * base.value
        lhs.append(left)
        rhs.append(right)
        residuals.append(
            abs(left - right) / max(abs(right), abs(base.value), _TINY)
        )
    euler_max = max(residuals, default=0.0)
    for u, _ in toric_moves(config):
        # A.u = A.v gives d^u F and d^v F the same block degrees, exponent
        # vector and prefactor in the chart: one integral serves both sides
        lu = derivative_integral(sf, beta, x, u, cycle, settings)
        converged = converged and lu.converged
        lhs.append(lu.value)
        rhs.append(lu.value)
        residuals.append(0.0)
    notes = [
        f"euler residual max {euler_max:.3e} (tol {_EULER_TOL:.1e}); "
        f"toric residual max {0.0:.3e} (tol {_TORIC_TOL:.1e})",
        "equal-degree mixed partials share one integral formula in the "
        "dehomogenized chart, so one integral serves both sides of each "
        "toric row and the toric residual is 0 by construction",
    ]
    if not converged:
        notes.append("at least one quadrature did not converge")
    return _report(
        f"PDE annihilation for {config.name or 'configuration'}",
        [(tuple(beta), tuple(x))], lhs, rhs, residuals, _EULER_TOL, notes,
        converged, 1 + 0j,
    )


# ==========================================================================
# linear transformation identities
# ==========================================================================


def verify_linear_transformation(
    config: PointConfiguration,
    tr: LinearTransformation,
    grid: SampleGrid,
    evaluator: str = "classical",
    settings: Optional[QuadratureSettings] = None,
) -> IdentityReport:
    """Check F(beta; x) = kappa * scale * F(T beta; x') on a grid.

    kappa is fitted at the first grid point and reused; it equals 1 when
    both sides are evaluated on the same positive cycle with principal
    branches, and a unit branch factor otherwise.  The integral evaluator
    takes the positive axis in every chart variable.
    """
    if evaluator not in ("classical", "integral"):
        raise UnknownName(f"unknown evaluator {evaluator!r}")
    threshold = 1e-10 if evaluator == "classical" else 1e-6
    ent = entry_of(config)
    if ent is None:
        raise UnknownName("configuration is not in the catalog")
    points = list(grid)
    lhs, rhs, notes = [], [], []
    if evaluator == "classical":
        if ent.classical is None or ent.classical.series == "none":
            raise UnsupportedParameters(
                f"{ent.name} has no classical series evaluator"
            )
        for beta, x in points:
            b2, x2 = apply(tr, beta, x)
            p1 = ent.classical.params_from_beta(beta)
            p2 = ent.classical.params_from_beta(b2)
            lhs.append(classical_solution(ent, p1, x))
            rhs.append(classical_solution(ent, p2, x2))
    else:
        sf = ent.standard_form(1)
        cyc = tuple(positive_axis() for _ in range(sf.r))
        bad = 0
        for beta, x in points:
            b2, x2 = apply(tr, beta, x)
            r1 = euler_integral(sf, beta, x, cyc, settings)
            r2 = euler_integral(sf, b2, x2, cyc, settings)
            if not (r1.converged and r2.converged):
                bad += 1
            lhs.append(r1.value)
            rhs.append(r2.value)
        if bad:
            notes.append(f"{bad} grid point(s) did not fully converge")
    sym = tr.symmetry
    desc = (
        f"linear transformation on {ent.name}: T rows {sym.t_matrix}, "
        f"column map {tuple(p + 1 for p in sym.perm)}, {evaluator} evaluator"
    )
    kappa, residuals = _fit(lhs, rhs, tr.scale)
    notes.append(f"fitted constant {_fmtc(kappa)}")
    return _report(desc, points, lhs, rhs, residuals, threshold, notes, True, kappa)


# ==========================================================================
# Pfaff reflection of the Gauss series
# ==========================================================================


def verify_pfaff(samples: int = 10) -> IdentityReport:
    """Both reflection forms, raw series on each side, |x| < 1/2."""
    if samples < 1:
        raise UnsupportedParameters(f"samples must be >= 1, got {samples}")
    a, b, c = 0.3, 0.5, 1.7
    xs = [0.25 + 0j]
    for k in range(samples - 1):
        xs.append(0.45 * cmath.exp(2j * math.pi * k / (samples - 1)))
    lhs, rhs, residuals, points = [], [], [], []
    for x in xs:
        w = x / (x - 1)
        left = series_2f1(a, b, c, x)
        right1 = cmath.exp(-a * cmath.log(1 - x)) * series_2f1(a, c - b, c, w)
        right2 = cmath.exp(-b * cmath.log(1 - x)) * series_2f1(c - a, b, c, w)
        lhs.extend([left, left])
        rhs.extend([right1, right2])
        residuals.append(abs(left - right1) / abs(left))
        residuals.append(abs(left - right2) / abs(left))
        points.append(((a, b, c), (x,)))
    notes = [f"(a, b, c) = ({a}, {b}, {c}); {len(xs)} arguments with |x| < 1/2"]
    return _report(
        "reflection of the Gauss series onto argument x/(x-1), both "
        "parameter placements",
        points, lhs, rhs, residuals, 1e-10, notes, True, 1 + 0j,
    )


# ==========================================================================
# quadric multivaluedness
# ==========================================================================


def verify_quadric_multivaluedness(
    settings: Optional[QuadratureSettings] = None,
) -> IdentityReport:
    """Reversal and half-turn identities for the quadric integrals.

    F1 integrates over the positive axis, F2 over the negative axis
    reached clockwise (phase -pi).  Checks: (i) the reversal identity
    (beta1, beta2) -> (beta1, 2 beta1 - beta2) with reversed coefficients
    on each cycle, (ii) the half-turn phase identity
    F1(beta; x) = exp(-i pi beta2) F2(beta; (x1, -x2, x3)), and (iii) a
    bookkeeping demonstration of the composed full-turn factor, which is
    a branch-subgroup element, not an equality of principal values.
    """
    ent = catalog("quadric")
    sf = ent.standard_form(1)
    beta = (-0.6, -0.35)
    b1, b2 = beta
    rev_beta = (b1, 2 * b1 - b2)
    xs = [
        (1.0, 0.5, 1.0),
        (1.0, 0.8, 1.0),
        (1.0, 1.1, 1.0),
        (2.0, 1.0, 3.0),
        (1.5, -0.4, 1.0),
    ]
    for x in xs:
        if not x[1] ** 2 < 4 * x[0] * x[2]:
            raise ValueError("sample leaves the no-real-roots region")

    def ev(bvec, xvec, cyc):
        return euler_integral(sf, bvec, xvec, cyc, settings).value

    pos = positive_axis()
    neg = negative_axis()
    # (i) reversal on the positive axis; exact on principal branches
    rev_pos_l = [ev(beta, x, pos) for x in xs]
    rev_pos_r = [ev(rev_beta, (x[2], x[1], x[0]), pos) for x in xs]
    # (i') reversal on the negative axis; branch constant fitted
    rev_neg_l = [ev(beta, x, neg) for x in xs]
    rev_neg_r = [ev(rev_beta, (x[2], x[1], x[0]), neg) for x in xs]
    # (ii) half-turn phase identity
    phase = cmath.exp(-1j * math.pi * b2)
    half_l = rev_pos_l
    half_r = [phase * ev(beta, (x[0], -x[1], x[2]), neg) for x in xs]

    kappa_pos, res_pos = _fit(rev_pos_l, rev_pos_r, 1)
    kappa_neg, res_neg = _fit(rev_neg_l, rev_neg_r, 1)
    kappa_half, res_half = _fit(half_l, half_r, 1)
    residuals = [abs(kappa_pos - 1), *res_pos, *res_neg,
                 abs(kappa_half - 1), *res_half]
    lhs = rev_pos_l + rev_neg_l + half_l
    rhs = rev_pos_r + rev_neg_r + half_r
    points = [(beta, x) for x in xs] * 3

    composed = cmath.exp(-2j * math.pi * (b1 + b2))
    kvec = _branch_subgroup_match(composed, beta)
    notes = [
        f"reversal on the positive axis: constant {_fmtc(kappa_pos)} "
        "(exact 1 expected)",
        f"reversal on the negative axis: constant {_fmtc(kappa_neg)}; "
        f"predicted exp(2 pi i (b2 - b1)) = "
        f"{_fmtc(cmath.exp(2j * math.pi * (b2 - b1)))}",
        f"half-turn phase identity with factor exp(-i pi b2) = "
        f"{_fmtc(phase)}: constant {_fmtc(kappa_half)} (exact 1 expected)",
        "the negative axis is reached clockwise; the counterclockwise "
        "half-turn would flip the factor to exp(+i pi b2)",
        "composed full-turn bookkeeping: two half-turns return the cycle "
        "to itself, so the measured ratio is 1, while chaining the "
        f"half-turn factors gives exp(-2 pi i (b1 + b2)) = {_fmtc(composed)}",
        f"the discrepancy is the branch-subgroup element "
        f"exp(2 pi i <k, beta>) with k = {kvec}, as the full turn crosses "
        "the cut of the quadratic factor and winds the pure power once",
    ]
    return _report(
        "quadric half-turn and reversal identities",
        points, lhs, rhs, residuals, 1e-8, notes, True, kappa_half,
    )


def _branch_subgroup_match(target: complex, beta):
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            val = cmath.exp(2j * math.pi * (k1 * beta[0] + k2 * beta[1]))
            if abs(val - target) < 1e-9:
                return (k1, k2)
    return None


# ==========================================================================
# binomial-sum identities
# ==========================================================================


def verify_binomial_identity(
    identity: BinomialIdentity,
    grid,
    settings: Optional[QuadratureSettings] = None,
    cycle=None,
) -> IdentityReport:
    """LHS integral vs the finite sum of shifted-coefficient integrals.

    Both sides are plain-measure integrals on the dehomogenized chart.
    The shifted axis must be translation invariant as a cycle, so by
    default it runs over the whole real line; the remaining axes stay on
    the positive ray.  Residuals are scaled by the largest magnitude among
    the left side and the individual right-hand terms, so a sample where
    both sides vanish by symmetry cannot certify the identity for free.
    """
    threshold = 1e-6
    sf = identity.standard_form
    auto = identity.automorphism
    if cycle is None:
        axes = [positive_axis() for _ in range(sf.r)]
        axes[auto.variable_index - 1] = real_line()
        cycle = tuple(axes)
    t = auto.shift
    lhs, rhs, residuals, points = [], [], [], []
    converged = True
    budget_note = vacuous = False
    for _, x in grid:
        left = euler_integral(
            sf, identity.lhs_beta, x, cycle, settings, measure="plain"
        )
        xm = auto.pullback(x)
        total = 0j
        scale = abs(left.value)
        budget = left.error_estimate
        flags = left.converged
        for term in identity.terms:
            part = euler_integral(
                sf, term.beta, xm, cycle, settings, measure="plain"
            )
            coeff = complex(term.coefficient(t))
            piece = coeff * part.value
            total += piece
            scale = max(scale, abs(piece))
            budget += abs(coeff) * part.error_estimate
            flags = flags and part.converged
        lhs.append(left.value)
        rhs.append(total)
        residuals.append(abs(left.value - total) / max(scale, _TINY))
        points.append((identity.lhs_beta, tuple(x)))
        # an integral may miss its own precision band (e.g. a term that
        # is structurally zero) without hurting the identity check, as
        # long as the combined quadrature error is negligible at the
        # requested threshold
        ok = flags or budget <= 0.1 * threshold * scale
        if ok and not flags:
            budget_note = True
        converged = converged and ok
        vacuous = vacuous or scale <= 1e3 * _TINY
    notes = [
        f"shift t = {_fmtc(t)} in variable {auto.variable_index}, "
        f"order N = {identity.order}",
        "derived index range: term K = 0..N carries binom(N, K) t^(N-K) "
        "with slot parameter -K; the transcription summing K = 0..N-1 "
        "with binom(N-1, K) and slot parameter 1-K disagrees with direct "
        "expansion under either measure convention",
    ]
    if budget_note:
        notes.append(
            "a quadrature missed its own tolerance band; combined error "
            "stays below the identity threshold"
        )
    if vacuous:
        notes.append(
            "both sides vanish at some sample; the check is vacuous there"
        )
    if not converged:
        notes.append("at least one quadrature did not converge")
    return _report(
        f"binomial-sum identity, N = {identity.order}, "
        f"{sf.base.name or 'configuration'}",
        points, lhs, rhs, residuals, threshold, notes, converged, 1 + 0j,
    )


# ==========================================================================
# non-existence report for the fourth Appell function
# ==========================================================================


@dataclass
class F4Report:
    """Finite contradiction certificate for the missing integral shape."""

    description: str
    steps: list
    sample_points: list
    fitted_k: tuple
    residuals: list
    ratio_spread: float
    parameter_map: dict
    verdict: str
    notes: list = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return all(s["passed"] for s in self.steps)

    def to_json(self) -> dict:
        k1, k2 = self.fitted_k
        return {
            "description": self.description,
            "steps": [dict(s) for s in self.steps],
            "samples": [[_num(v) for v in pt] for pt in self.sample_points],
            "fitted_constant": [complex(k1).real, complex(k1).imag],
            "fitted_constants": [
                [complex(k1).real, complex(k1).imag],
                [complex(k2).real, complex(k2).imag],
            ],
            "max_residual": self.max_residual,
            "ratio_spread": self.ratio_spread,
            "parameter_map": dict(self.parameter_map),
            "verdict": "pass" if self.passed else "fail",
            "conclusion": self.verdict,
            "notes": list(self.notes),
        }


def _f4_term2(a, b, c, cp):
    """Parameters of the single-term shape F4(b - c' + 1, b; c, b - a + 1)."""
    return (b - cp + 1, b, c, b - a + 1)


def _f4_symmetry(model, group, c0, m):
    """The element of group whose induced parameter map is p -> c0 + M.p.

    With beta = s + L.p, T.beta(p) = beta(c0 + M.p) for every p forces
    T.L = L.M and T.s = s + L.c0, so T is solved exactly from the map.
    None if no element has that T.
    """
    s = tuple(row[0] for row in model.beta_matrix)
    lin = tuple(row[1:] for row in model.beta_matrix)
    t_rows = lattice.solve_unique(
        lattice.transpose(lin), lattice.transpose(lattice.mat_mul(lin, m))
    )
    if t_rows is None:
        return None
    t = lattice.transpose(t_rows)
    shifted = tuple(v + w for v, w in zip(s, lattice.mat_vec(lin, c0)))
    if lattice.mat_vec(t, s) != shifted:
        return None
    return next((e for e in group if e.t_matrix == t), None)


def _f4_row_series(a, b, c, cp, y1, y2) -> complex:
    """Double series summed by rows in the first argument.

    Row r contributes (a)_r (b)_r / ((c)_r r!) y1^r * 2F1(a+r, b+r; c'; y2);
    the inner series is continued by reflection, so y2 may lie far outside
    the unit disk while y1/|1 - y2| stays small.
    """
    coef = 1 + 0j
    total = 0j
    small = 0
    for r in range(800):
        row = coef * gauss_2f1(a + r, b + r, cp, y2)
        total += row
        if r >= 2 and abs(row) <= 1e-15 * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
        coef *= (a + r) * (b + r) / ((c + r) * (r + 1)) * y1
    raise FitUnstable("row series for the double sum did not settle")


def f4_nonexistence_report() -> F4Report:
    """Contradiction certificate: the F4 system admits a symmetry whose
    induced single-term identity is incompatible with the two-term
    connection formula, so no integral of the catalog shape over a
    rotated positive orthant can represent the F4 series solution.

    Steps: (1) the symmetry, solved exactly from the single-term shape
    and found in the configuration's group; (2) its induced parameter
    map; (3) fit of the two connection constants at two samples,
    residuals at six more, and the constants against their gamma
    quotients; (4) non-proportionality of the two connection terms; (5)
    verdict.
    """
    ent = catalog("appell_f4")
    names = ent.classical.param_names
    # the single-term shape as p -> c0 + M.p, read off exactly
    c0 = _f4_term2(0, 0, 0, 0)
    m = lattice.transpose(
        [tuple(v - w for v, w in zip(_f4_term2(*e), c0)) for e in lattice.identity(4)]
    )
    group = find_symmetries(ent.config)
    sym = _f4_symmetry(ent.classical, group, c0, m)
    steps = []

    # step 1: the element of the group that induces the single-term shape
    if sym is None:
        ok1 = False
        detail = f"no element of the order-{group.order} group induces the shape"
    else:
        ok1 = verify_symmetry(ent.config, sym.t_matrix, sym.perm)
        detail = (
            f"T rows {sym.t_matrix}, column map "
            f"{tuple(p + 1 for p in sym.perm)} (1-based), exact integers"
        )
    steps.append(
        {
            "name": "symmetry pair fixes the configuration",
            "passed": bool(ok1),
            "detail": detail,
        }
    )

    # step 2: the affine map on (a, b, c, c') that the element induces
    pmap = {
        out_name: _affine_str(
            names, {n: v for n, v in zip(names, m[j]) if v}, c0[j]
        )
        for j, out_name in enumerate(names)
    }
    ok2 = sym is not None
    steps.append(
        {
            "name": "induced parameter map",
            "passed": bool(ok2),
            "detail": "; ".join(f"{k} -> {v}" for k, v in pmap.items()),
        }
    )

    # step 3: fit the connection constants, then check residuals
    a, b, c, cp = 0.31, 0.74, 1.2, 0.85
    fit_pts = [(0.1, -3.0), (0.2, -4.0)]
    chk_pts = [
        (0.05, -2.5),
        (0.15, -3.5),
        (0.25, -5.0),
        (0.12, -2.8),
        (0.3, -6.0),
        (0.08, -4.5),
    ]

    def lhs_val(y1, y2):
        return _f4_row_series(a, b, c, cp, y1, y2)

    def g1(y1, y2):
        pref = cmath.exp(-a * cmath.log(-y2))
        return pref * appell_f4(a, a - cp + 1, c, a - b + 1, y1 / y2, 1 / y2)

    def g2(y1, y2):
        pref = cmath.exp(-b * cmath.log(-y2))
        return pref * appell_f4(*_f4_term2(a, b, c, cp), y1 / y2, 1 / y2)

    m00, m01 = g1(*fit_pts[0]), g2(*fit_pts[0])
    m10, m11 = g1(*fit_pts[1]), g2(*fit_pts[1])
    r0, r1 = lhs_val(*fit_pts[0]), lhs_val(*fit_pts[1])
    det = m00 * m11 - m01 * m10
    if abs(det) < 1e-200:
        raise FitUnstable("connection fit system is singular")
    k1 = (r0 * m11 - m01 * r1) / det
    k2 = (m00 * r1 - r0 * m10) / det
    residuals = []
    for y1, y2 in chk_pts:
        left = lhs_val(y1, y2)
        right = k1 * g1(y1, y2) + k2 * g2(y1, y2)
        residuals.append(abs(left - right) / abs(left))
    cand1 = cmath.exp(
        log_gamma(cp) + log_gamma(b - a) - log_gamma(cp - a) - log_gamma(b)
    )
    cand2 = cmath.exp(
        log_gamma(cp) + log_gamma(a - b) - log_gamma(cp - b) - log_gamma(a)
    )
    rel1 = abs(k1 - cand1) / abs(cand1)
    rel2 = abs(k2 - cand2) / abs(cand2)
    ok3 = (
        max(residuals) < 1e-8 and abs(k1) > 1e-6 and abs(k2) > 1e-6
        and rel1 < 1e-10 and rel2 < 1e-10
    )
    steps.append(
        {
            "name": "two-term connection fit",
            "passed": bool(ok3),
            "detail": f"K1 = {_fmtc(k1)}, K2 = {_fmtc(k2)}, "
            f"max residual {max(residuals):.3e} at {len(chk_pts)} samples",
        }
    )

    # step 4: the two connection terms are not proportional
    ratios = [abs(g1(*pt) / g2(*pt)) for pt in chk_pts]
    mean = sum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / mean
    ok4 = spread > 1e-2
    steps.append(
        {
            "name": "non-proportionality of the connection terms",
            "passed": bool(ok4),
            "detail": f"|term1/term2| relative spread {spread:.3e} "
            f"over {len(chk_pts)} samples",
        }
    )

    all_ok = ok1 and ok2 and ok3 and ok4
    verdict = "contradiction reproduced" if all_ok else "inconclusive"
    steps.append(
        {"name": "verdict", "passed": bool(all_ok), "detail": verdict}
    )

    notes = [
        "a symmetry of the configuration would force the single-term "
        "shape K (-y2)^(-b) F4(b - c' + 1, b; c, b - a + 1; y1/y2, "
        "1/y2); the fitted two-term connection has K1 != 0 and the "
        "two terms are non-proportional, so no such single-term "
        "identity holds",
        "second-term prefactor exponent on (-y2) is -b; the variant "
        "with +b fails the residual check by orders of magnitude",
        f"gamma-quotient constants (asserted in step 3, rel diff < 1e-10): "
        f"K1 ~ G(c')G(b-a)/(G(c'-a)G(b)) = {_fmtc(cand1)} "
        f"(rel diff {rel1:.2e}); "
        f"K2 ~ G(c')G(a-b)/(G(c'-b)G(a)) = {_fmtc(cand2)} "
        f"(rel diff {rel2:.2e})",
        f"parameters (a, b, c, c') = ({a}, {b}, {c}, {cp}); the left "
        "side is summed by rows, the right side termwise in the "
        "reflected arguments",
    ]
    return F4Report(
        description="no Euler-type integral over a rotated positive "
        "orthant yields the fourth Appell double series",
        steps=steps,
        sample_points=fit_pts + chk_pts,
        fitted_k=(k1, k2),
        residuals=residuals,
        ratio_spread=spread,
        parameter_map=pmap,
        verdict=verdict,
        notes=notes,
    )


def _affine_str(names, coeffs, const) -> str:
    pos = [n for n in names if coeffs.get(n, 0) > 0]
    neg = [n for n in names if coeffs.get(n, 0) < 0]
    parts = []
    for n in pos:
        c = coeffs[n]
        parts.append(n if c == 1 else f"{c} {n}")
    for n in neg:
        c = -coeffs[n]
        parts.append(f"- {n}" if c == 1 else f"- {c} {n}")
    if const > 0:
        parts.append(f"+ {const}")
    elif const < 0:
        parts.append(f"- {-const}")
    if not parts:
        return "0"
    out = " ".join(parts)
    return out.replace(" + -", " - ")
