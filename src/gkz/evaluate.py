"""Numerical engine: Euler-type integrals, classical series, helpers.

Integrals are evaluated in a dehomogenized chart over product cycles,
axis by axis, with the logarithmic measure and the pure power of each
variable folded into the axis parameterization.
Branch rule on a rotated ray w = e^{i theta} t, t > 0:
    w^alpha := exp(alpha (ln t + i theta)),
so theta = 0 is the principal branch and integrals vary continuously in
theta.  An innermost ray (real_line is two rays) takes one vectorised
double-exponential rule (Takahasi and Mori 1974; Mori and Sugihara 2001):
the trapezoid rule in tau for log t = u0 + sinh(tau), with the outer
variables folded into the block coefficients and each block sum a
log-sum-exp over its monomials.  Its window reaches e^-40 below the peak
by the decay exponents of the blocks and the pure power, and its error
estimate comes from halving the step on nested nodes.  Any other axis
is one adaptive QUADPACK call per outer node; an outer ray is mapped onto
the unit interval by t = s/(1-s).  Each integral is one such pass,
converged iff its error estimate is within max(rel_tol |value|, abs_tol).
Before it, a prescan evaluates the block sums on a grid of each cycle (the
other axes on a reduced grid) and refuses a zero or a sign change of a
real block sum with SingularOnCycle; it warns where a block with a
fractional power crosses the branch cut of its logarithm.
"""

import cmath
import math
import warnings as _warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import loggamma as _scipy_loggamma

from .configs import CatalogEntry, StandardForm
from .errors import (
    DimensionMismatch,
    NotConverged,
    OutOfDomain,
    PoleInC,
    PoleInGamma,
    SingularOnCycle,
    UnsupportedParameters,
    BranchAmbiguityWarning,
)

_INT_TOL = 1e-12
# innermost ray: halvings of the step 1/8, the depth of the window below
# the peak in e-folds, how often the window may double; double rounding
_DE_LEVELS, _DE_DECAY, _DE_WIDEN, _EPS = 6, 40.0, 8, 2.0**-52


# ==========================================================================
# factorial conventions and log-gamma
# ==========================================================================


def falling_factorial(alpha, k: int) -> complex:
    """alpha (alpha - 1) ... (alpha - k + 1); descending convention."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1 + 0j
    for j in range(k):
        out *= alpha - j
    return out


def rising_pochhammer(alpha, k: int) -> complex:
    """alpha (alpha + 1) ... (alpha + k - 1); ascending convention."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1 + 0j
    for j in range(k):
        out *= alpha + j
    return out


def log_gamma(z) -> complex:
    """Principal log-gamma; exp(log_gamma(z)) equals Gamma(z) exactly."""
    zc = complex(z)
    if abs(zc.imag) < _INT_TOL and zc.real <= 0.5 and _near_int(zc.real):
        raise PoleInGamma(f"gamma pole at {z!r}")
    return complex(_scipy_loggamma(zc))


def _near_int(v: float, tol: float = _INT_TOL) -> bool:
    return abs(v - round(v)) < tol


def _is_integer(q) -> bool:
    z = complex(q)
    return abs(z.imag) < _INT_TOL and _near_int(z.real)


# ==========================================================================
# cycles and quadrature plumbing
# ==========================================================================


@dataclass(frozen=True)
class AxisCycle:
    """Integration path for one dehomogenized variable."""

    kind: str  # "ray" | "real_line" | "unit_interval" | "unit_circle"
    phase: float = 0.0

    def describe(self) -> str:
        if self.kind == "ray":
            return f"ray(phase={self.phase:g})"
        return self.kind


def positive_axis(phase: float = 0.0) -> AxisCycle:
    return AxisCycle(kind="ray", phase=float(phase))


def negative_axis() -> AxisCycle:
    # phase -pi: the branch for which the half-turn rotation identity
    # carries the factor exp(-i pi beta) with no extra winding
    return AxisCycle(kind="ray", phase=-math.pi)


def real_line() -> AxisCycle:
    return AxisCycle(kind="real_line")


def unit_interval() -> AxisCycle:
    return AxisCycle(kind="unit_interval")


def unit_circle() -> AxisCycle:
    return AxisCycle(kind="unit_circle")


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class EvaluationResult:
    value: complex
    error_estimate: float
    converged: bool
    warnings: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "error_estimate": self.error_estimate,
            "converged": self.converged,
            "warnings": list(self.warnings),
        }


def _normalize_cycle(cycle, r: int) -> tuple[AxisCycle, ...]:
    if isinstance(cycle, AxisCycle):
        cycle = (cycle,)
    cycle = tuple(cycle)
    if len(cycle) != r:
        raise DimensionMismatch(f"cycle has arity {len(cycle)}, chart has r = {r}")
    for ax in cycle:
        if ax.kind not in ("ray", "real_line", "unit_interval", "unit_circle"):
            raise OutOfDomain(f"unknown cycle kind {ax.kind!r}")
        if not math.isfinite(ax.phase):
            raise OutOfDomain(f"the phase of {ax.describe()} is not finite")
    return cycle


# ==========================================================================
# Euler-type integrals
# ==========================================================================


def euler_integral(
    sf: StandardForm,
    beta,
    x,
    cycle,
    settings: Optional[QuadratureSettings] = None,
    measure: str = "log",
) -> EvaluationResult:
    """Integral of prod_i f_i(w)^{beta'_i} prod_k w_k^{-beta'_{m+k}} dlog w.

    measure="plain" integrates against Lebesgue measure dw instead of
    dw/w on every axis (the convention of the dehomogenized shift
    identities, which would otherwise hit the w = 0 pole on line cycles).
    """
    return derivative_integral(
        sf, beta, x, (0,) * sf.base.n, cycle, settings, measure=measure
    )


def derivative_integral(
    sf: StandardForm,
    beta,
    x,
    u,
    cycle,
    settings: Optional[QuadratureSettings] = None,
    measure: str = "log",
) -> EvaluationResult:
    """Mixed partial d^u of the Euler integral, by one quadrature.

    Differentiating under the integral sign lowers the block exponent by
    the total order drawn from that block and inserts the monomial w^{Eu};
    the scalar prefactor is the product of descending factorials of the
    block parameters.
    """
    settings = settings or QuadratureSettings()
    if measure not in ("log", "plain"):
        raise OutOfDomain(f"measure must be 'log' or 'plain', got {measure!r}")
    n, r, m = sf.base.n, sf.r, sf.m
    if len(x) != n:
        raise DimensionMismatch(f"x has length {len(x)}, expected {n}")
    u = tuple(int(v) for v in u)
    if len(u) != n or any(v < 0 for v in u):
        raise DimensionMismatch("u must be a length-n nonnegative integer vector")
    cycle = _normalize_cycle(cycle, r)
    beta_t = sf.transform_parameters(beta)
    degs = [sum(u[j] for j in blk) for blk in sf.blocks]
    prefactor = 1 + 0j
    for i in range(m):
        prefactor *= falling_factorial(complex(beta_t[i]), degs[i])
    exps = sf.exponents
    eu = [sum(exps[k][j] * u[j] for j in range(n)) for k in range(r)]
    powers = [complex(eu[k]) - complex(beta_t[m + k]) for k in range(r)]
    if measure == "plain":
        # dw = w * dw/w: shift every axis exponent up by one
        powers = [p + 1 for p in powers]
    fpowers = [complex(beta_t[i]) - degs[i] for i in range(m)]
    work = _IteratedIntegral(sf, x, fpowers, powers, cycle, settings)
    if prefactor == 0:
        return EvaluationResult(value=0j, error_estimate=0.0, converged=True)
    with np.errstate(all="ignore"):
        work.prescan()
    value, err = work.run()
    value *= prefactor
    err *= abs(prefactor)
    tol = max(settings.rel_tol * abs(value), settings.abs_tol)
    return EvaluationResult(
        value=value, error_estimate=err, converged=err <= tol, warnings=work.warnings
    )


class _IteratedIntegral:
    """Per-axis adaptive quadrature, outermost axis first."""

    def __init__(self, sf, x, fpowers, powers, cycle, settings):
        self.x = [complex(v) for v in x]
        self.fpowers = fpowers
        self.powers = powers
        self.cycle = cycle
        self.settings = settings
        self.r = sf.r
        exps = sf.exponents
        self.cols = [
            tuple(exps[k][j] for k in range(self.r)) for j in range(sf.base.n)
        ]
        self.blocks = sf.blocks
        self.warnings: list[str] = []
        # largest absolute error and value seen on each inner axis; their
        # ratio bounds the relative noise the outer quadrature integrates
        self.inner_err = [0.0] * self.r
        self.inner_scale = [0.0] * self.r
        self.outer_err = 0.0
        self.is_real = self._real_valued()
        # blocks with a power: it, nonzero columns, their innermost powers
        self.inner = []
        for blk, q in zip(self.blocks, fpowers):
            if q != 0:
                js = [j for j in blk if self.x[j] != 0]
                pows = np.array([self.cols[j][-1] for j in js], dtype=float)
                self.inner.append((q, js, pows))

    def _real_valued(self) -> bool:
        # real numbers on the unit interval and the positive axis
        return not any(v.imag for v in self.x + self.powers + self.fpowers) and all(
            ax.kind == "unit_interval" or ax == positive_axis() for ax in self.cycle
        )

    # -- integrand ---------------------------------------------------------

    def f_values(self, w) -> list:
        # the block sums at w; one array of points per axis gives arrays
        vals = []
        for blk in self.blocks:
            s = 0j
            for j in blk:
                term = self.x[j]
                col = self.cols[j]
                for k in range(self.r):
                    e = col[k]
                    if e:
                        term *= w[k] ** e
                s += term
            vals.append(s)
        return vals

    def leaf(self, w) -> complex:
        out = 1 + 0j
        for fv, q in zip(self.f_values(w), self.fpowers):
            if q == 0:
                continue
            out *= cmath.exp(q * cmath.log(fv))
        return out

    # -- pre-scan for zeros on the cycle ------------------------------------

    def prescan(self):
        # along each axis in turn, with the other axes on a reduced grid
        grids = [self._scan_points(ax) for ax in self.cycle]
        reduced = [g if len(g) <= 9 else g[:: max(1, len(g) // 9)] for g in grids]
        scale = max(abs(v) for v in self.x) or 1.0
        fractional = [not _is_integer(q) for q in self.fpowers]
        for k in range(self.r):
            # w[axis][c, t]: combination c of the other axes, step t along k
            mesh = np.meshgrid(*reduced[:k], *reduced[k + 1 :], grids[k], indexing="ij")
            w = [a.reshape(-1, len(grids[k])) for a in mesh]
            w.insert(k, w.pop())
            f = np.stack(np.broadcast_arrays(*self.f_values(w)), axis=-1)
            vanish = abs(f) < 1e-13 * scale
            real = abs(f.imag) < 1e-14 * scale
            flip = real[:, 1:] & real[:, :-1] & (f.real[:, 1:] * f.real[:, :-1] < 0)
            flip = np.concatenate((np.zeros_like(flip[:, :1]), flip), axis=1)
            # the first failure in scan order: point, block, zero before sign
            bad = np.flatnonzero(np.stack((vanish, flip), axis=-1))
            if bad.size:
                c, t, i, sign = np.unravel_index(bad[0], vanish.shape + (2,))
                if sign:
                    raise SingularOnCycle(f"f_{i + 1} changes sign along axis {k + 1}")
                at = [complex(a[c, t]) for a in w]
                raise SingularOnCycle(f"f_{i + 1} vanishes near w = {at}")
            # integer powers are single valued; a cut crossing only matters
            # for fractional ones
            jump = (abs(np.angle(f[:, 1:] / f[:, :-1])) > 3.0) & fractional
            for i in dict.fromkeys(np.flatnonzero(jump) % len(self.blocks)):
                self._warn(f"f_{i + 1} crosses the branch cut along axis {k + 1}")

    def _scan_points(self, ax: AxisCycle) -> np.ndarray:
        if ax.kind == "ray":
            return cmath.exp(1j * ax.phase) * np.geomspace(1e-4, 1e4, 33)
        if ax.kind == "real_line":
            ts = np.geomspace(1e-4, 1e4, 17)
            return np.concatenate((-ts[::-1], ts))
        if ax.kind == "unit_interval":
            return np.linspace(1.0 / 64, 1 - 1.0 / 64, 33)
        return np.exp(2j * math.pi * np.arange(32) / 32)

    def _warn(self, msg: str):
        if msg not in self.warnings:
            self.warnings.append(msg)

    # -- per-axis integration ------------------------------------------------

    def run(self):
        if self.cycle[-1].kind in ("ray", "real_line"):
            # the integrand is t^lo dt/t towards 0 and t^-hi dt/t towards oo
            p = self.powers[-1].real
            lo = p + sum(q.real * pows.min() for q, _, pows in self.inner)
            hi = -p - sum(q.real * pows.max() for q, _, pows in self.inner)
            if lo <= 0 or hi <= 0:
                end, rate = ("0", lo) if lo <= 0 else ("infinity", -hi)
                raise NotConverged(
                    f"the integrand does not decay towards {end} on axis "
                    f"{self.r}: it grows like t^{rate:.6g} dt/t"
                )
            self.decay = lo, hi
        value = self._axis(0, [None] * self.r)
        noise = sum(
            self.inner_err[k] / max(self.inner_scale[k], 1e-300)
            for k in range(1, self.r)
        )
        err = self.outer_err + abs(value) * noise
        return value, err

    def _axis_tols(self, k: int):
        s = self.settings
        shrink = 2 * 4**k
        rel = max(s.rel_tol / shrink, 2e-14)
        return rel, s.abs_tol / shrink

    def _axis(self, k: int, w) -> complex:
        ax = self.cycle[k]
        if ax.kind == "ray":
            pieces = [(ax.phase, 1.0)]
        elif ax.kind == "real_line":
            # oriented left to right: the negative half enters reversed
            pieces = [(0.0, 1.0), (-math.pi, -1.0)]
        else:
            pieces = [(ax.kind, 1.0)]
        total = 0j
        err = 0.0
        for spec, sign in pieces:
            v, e = self._piece(k, w, spec)
            total += sign * v
            err += e
        if k == 0:
            self.outer_err = err
        else:
            self.inner_err[k] = max(self.inner_err[k], err)
            self.inner_scale[k] = max(self.inner_scale[k], abs(total))
        return total

    def _piece(self, k, w, spec):
        p = self.powers[k]

        if spec == "unit_interval":
            rho = complex(p).real
            if rho > 0:
                # absorb the algebraic endpoint weight exactly:
                # t = s^(1/rho) turns t^(p-1) dt into t^(p-rho) ds / rho
                inv = 1.0 / rho

                def h(s):
                    t = s**inv
                    w[k] = t
                    inner = self._inner(k, w)
                    # log t from log s: t itself underflows for large inv
                    return inner * cmath.exp((p - rho) * inv * math.log(s)) * inv

            else:

                def h(t):
                    w[k] = t
                    inner = self._inner(k, w)
                    return inner * cmath.exp((p - 1) * math.log(t))

            return self._quad(h, 0.0, 1.0, k)

        if spec == "unit_circle":

            def h(s):
                w[k] = cmath.exp(2j * math.pi * s)
                inner = self._inner(k, w)
                return inner * 2j * math.pi * cmath.exp(2j * math.pi * p * s)

            return self._quad(h, 0.0, 1.0, k)

        # rotated ray with phase theta
        theta = spec
        if k + 1 == self.r:
            with np.errstate(all="ignore"):
                return self._de_ray(k, w, theta)
        rot = cmath.exp(1j * theta)
        phase_factor = cmath.exp(1j * theta * p)

        def h(t):
            w[k] = rot * t
            inner = self._inner(k, w)
            return inner * phase_factor * cmath.exp((p - 1) * math.log(t))

        return self._ray(h, k)

    def _de_ray(self, k, w, theta):
        # block coefficients with the outer variables folded in, zeros dropped
        blocks = []
        for q, js, pows in self.inner:
            coef = np.array([self.x[j] * math.prod(
                w[i] ** e for i, e in enumerate(self.cols[j][:k])) for j in js])
            if not coef.any():
                raise SingularOnCycle(f"a block vanishes on axis {k + 1}")
            blocks.append((q, np.log(coef[coef != 0]), pows[coef != 0]))
        p = self.powers[k]

        def log_g(u):
            # log of the integrand in u = log t: each block sum f is a
            # log-sum-exp of its monomials, on the principal branch of log f
            z = u + 1j * theta
            out = p * z
            for q, logc, pows in blocks:
                a = logc[:, None] + pows[:, None] * z
                top = a.real.max(axis=0)
                out = out + q * (top + np.log(np.exp(a - top).sum(axis=0)))
            return out

        # centre on the largest value where two monomials cross
        cross = [np.zeros(1)]
        for _, logc, pows in blocks:
            u = np.subtract.outer(logc.real, logc.real) / np.subtract.outer(pows, pows)
            cross.append(-u[np.isfinite(u)])
        cross = np.concatenate(cross)
        u0 = cross[np.argmax(log_g(cross).real)]
        # a node value is rounded like the largest term of its logarithm
        size = 1 + (abs(u0) + 1) * abs(p) + sum(
            abs(q) * ((abs(u0) + 1) * abs(pw).max() + abs(lc).max())
            for q, lc, pw in blocks)
        span = [_DE_DECAY / rate for rate in self.decay]
        for _ in range(_DE_WIDEN):
            ends = [math.ceil(math.asinh(s)) for s in span]
            tau = np.arange(-8 * ends[0], 8 * ends[1] + 1) / 8
            u = u0 + np.sinh(tau)
            lg = log_g(u)
            top = lg.real.max()
            g = np.exp(lg - top) * np.cosh(tau)
            # what lies beyond each end, from the decay rate there
            tails = []
            for i, o, rate in ((0, 1, self.decay[0]), (-1, -2, self.decay[1])):
                slope = (lg[o] - lg[i]).real / abs(u[o] - u[i])
                edge = math.exp(lg[i].real - top)
                tails.append(edge / min(slope, rate) if slope > 0 else math.inf)
            if max(tails) <= _EPS * abs(g.sum()) / 8:
                break
            span = [2 * s for s in span]
        noise = sum(tails) + 4 * _EPS * size * np.abs(g).sum() / 8
        total = g.sum()
        ests = [g[:: 8 >> lev].sum() / 2**lev for lev in (1, 2, 3)]
        rel, at = self._axis_tols(k)
        scale = np.exp(top)
        while True:
            # the last halving shrank the change by rho: the halvings still
            # to come add at most a geometric tail of it
            d1, d2 = abs(ests[-1] - ests[-2]), abs(ests[-2] - ests[-3])
            rho = d1 / d2 if d2 > 0 else 1.0
            err = (d1 * rho / (1 - rho) if rho < 0.5 else d1) + noise
            met = scale * err <= max(at, rel * scale * abs(ests[-1]))
            lev = len(ests) + 1
            if met or lev > 3 + _DE_LEVELS:
                break
            # the nodes new at this level are odd multiples of its step
            tau = np.arange(1 - ends[0] * 2**lev, ends[1] * 2**lev, 2) / 2**lev
            total += (np.exp(log_g(u0 + np.sinh(tau)) - top) * np.cosh(tau)).sum()
            ests.append(total / 2**lev)
        if not met:
            self._warn(f"quadrature warning on axis {k + 1}")
        value, err = complex(scale * ests[-1]), float(scale * err)
        if not (cmath.isfinite(value) and math.isfinite(err)):
            raise NotConverged(f"the integral does not settle on axis {k + 1}")
        return (complex(value.real) if self.is_real else value), err

    def _inner(self, k, w) -> complex:
        if k + 1 == self.r:
            return self.leaf(w)
        return self._axis(k + 1, list(w))

    def _ray(self, h, k):
        # map t = s/(1-s) onto the unit interval and let the extrapolating
        # rule work through the algebraic endpoints in a single call
        def g(s):
            om = 1.0 - s
            return h(s / om) / (om * om)

        val, err = self._quad(g, 0.0, 1.0, k)
        if not (cmath.isfinite(val) and math.isfinite(err)):
            raise NotConverged(f"the integral does not settle on axis {k + 1}")
        return val, err

    def _quad(self, h, a, b, k):
        rel, at = self._axis_tols(k)
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always", IntegrationWarning)
            if self.is_real:
                val, err = quad(
                    lambda t: h(t).real,
                    a,
                    b,
                    epsabs=at,
                    epsrel=rel,
                    limit=self.settings.max_subdivisions,
                )
                val = complex(val)
            else:
                val, err = quad(
                    h,
                    a,
                    b,
                    epsabs=at,
                    epsrel=rel,
                    limit=self.settings.max_subdivisions,
                    complex_func=True,
                )
        if any(issubclass(item.category, IntegrationWarning) for item in caught):
            # QUADPACK could not hit the per-axis budget; its achieved
            # error estimate is still honest and flows into the final
            # converged test, so the complaint is advisory
            self._warn(f"quadrature warning on axis {k + 1}")
        if isinstance(err, complex):
            # complex_func=True packs the two QUADPACK error estimates
            # into real and imaginary parts
            err = abs(err.real) + abs(err.imag)
        return complex(val), float(err)


# ==========================================================================
# homogenization constant
# ==========================================================================


def homogenization_constant(m: int, beta_head) -> complex:
    """Torus-skeleton factor, normalized by (2 pi i)^m.

    For one block the skeleton integrand is constant.  For several blocks
    with nonnegative integer head parameters the contour integral extracts
    a multinomial coefficient; other head parameters are multivalued on
    the skeleton and are not supported.
    """
    if m < 1:
        raise UnsupportedParameters("m must be >= 1")
    if m == 1:
        return 1 + 0j
    ints = []
    for v in beta_head:
        z = complex(v)
        if abs(z.imag) > _INT_TOL or not _near_int(z.real) or round(z.real) < 0:
            raise UnsupportedParameters(
                "several blocks need nonnegative integer head parameters"
            )
        ints.append(round(z.real))
    if len(ints) != m:
        raise DimensionMismatch("beta_head must have length m")
    total = sum(ints)
    out = math.factorial(total)
    for v in ints:
        out //= math.factorial(v)
    return complex(out)


# ==========================================================================
# classical series
# ==========================================================================


def _check_c(cval, name="c"):
    z = complex(cval)
    if abs(z.imag) < _INT_TOL and z.real <= 0.5 and _near_int(z.real):
        raise PoleInC(f"{name} = {cval!r} is a nonpositive integer")


# Every classical series is FC(m) (FC(1) = 2F1, FC(2) = F4), summed by one
# kernel to this relative tolerance within this many total degrees.
_SERIES_REL = 1e-16
_SERIES_DEGREES = 1 << 18
# entries per block of the convolution's Toeplitz matrix
_BLOCK = 1 << 14


def _log_poch(z, n: int) -> np.ndarray:
    """log (z)_k for k < n; a zero factor z + j gives -inf from k = j + 1 on."""
    with np.errstate(divide="ignore"):
        steps = np.log(z + np.arange(n - 1, dtype=complex))
    return np.concatenate(([0j], np.cumsum(steps)))


def _log_convolve(p, q) -> np.ndarray:
    """log sum_k exp(p[k] + q[N - k]) for every N < len(p).

    Row N of the Toeplitz matrix q[N - k] is a window of q reversed and
    padded with -inf, so a block of rows is one log-sum-exp; a block holds
    about _BLOCK entries, or one row when n > _BLOCK.  A row of -inf terms
    gives -inf.
    """
    n = len(p)
    pad = np.concatenate((q[::-1], np.full(n - 1, -np.inf, dtype=complex)))
    windows = np.lib.stride_tricks.sliding_window_view(pad, n)
    out = np.empty(n, dtype=complex)
    rows = max(1, _BLOCK // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        v = p[:hi] + windows[n - hi : n - lo][::-1, :hi]
        top = v.real.max(axis=1)
        top[~np.isfinite(top)] = 0.0
        with np.errstate(divide="ignore"):
            out[lo:hi] = top + np.log(np.exp(v - top[:, None]).sum(axis=1))
    return out


def _fc_series(a, b, cs, ys) -> complex:
    """sum over k of (a)_N (b)_N prod y_i^k_i / ((c_i)_k_i k_i!), N = |k|.

    Summed by total degree N in log space: per variable the table
    k log y_i - log (c_i)_k - log k!, the tables combined per degree by a
    log-sum-exp convolution, then log (a)_N + log (b)_N added, so that
    neither y^N nor the Pochhammer symbols under- or overflow on their own.
    The terms fall off like rho^(2N) for rho = sum sqrt|y_i|, so the
    tables start at 8 + 23 / -ln rho degrees, where rho^(2N) is 1e-20,
    but at no more than 64.  They double until three consecutive degrees
    are below _SERIES_REL of the partial sum, within _SERIES_DEGREES.
    Real inputs give a real result.
    """
    real = all(complex(v).imag == 0 for v in (a, b, *cs, *ys))
    pairs = [(c, complex(y)) for c, y in zip(cs, ys) if y != 0]
    if not pairs:
        return 1 + 0j
    rho = sum(math.sqrt(abs(y)) for _, y in pairs)
    n = min(64, 8 + math.ceil(23 / -math.log(rho))) if rho < 1 else 64
    while n <= _SERIES_DEGREES:
        lf = _log_poch(1, n)
        tables = [np.arange(n) * np.log(y) - _log_poch(c, n) - lf for c, y in pairs]
        degree = tables[0]
        for t in tables[1:]:
            degree = _log_convolve(degree, t)
        terms = np.exp(_log_poch(a, n) + _log_poch(b, n) + degree)
        if not np.isfinite(terms).all():
            raise NotConverged("FC series terms are not finite")
        partial = np.cumsum(terms)
        small = np.abs(terms) <= _SERIES_REL * np.abs(partial)
        hits = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
        if hits.size:
            total = partial[hits[0] + 2]
            return complex(total.real) if real else complex(total)
        n *= 2
    raise NotConverged("FC series did not settle within the degree budget")


def series_2f1(a, b, c, x) -> complex:
    """Plain power series; caller guarantees |x| < 1."""
    return _fc_series(a, b, (c,), (x,))


def gauss_2f1(a, b, c, x) -> complex:
    """Gauss series with automatic continuation onto the smaller argument.

    Uses the plain series on |x| < 1, switching to the reflected argument
    x/(x-1) with prefactor (1-x)^(-a) whenever that argument is smaller.
    """
    _check_c(c)
    x = complex(x)
    if x == 0:
        return 1 + 0j
    w = x / (x - 1) if x != 1 else None
    use_pfaff = w is not None and abs(w) < abs(x)
    if use_pfaff and abs(w) < 1:
        pref = cmath.exp(-a * cmath.log(1 - x))
        return pref * series_2f1(a, c - b, c, w)
    if abs(x) < 1:
        return series_2f1(a, b, c, x)
    raise OutOfDomain(f"x = {x!r} is outside the series and reflection domains")


def appell_f4(a, b, c, cp, y1, y2) -> complex:
    """Appell F4 = FC(2), on sqrt|y1| + sqrt|y2| < 1."""
    _check_c(c, "c")
    _check_c(cp, "c'")
    if math.sqrt(abs(y1)) + math.sqrt(abs(y2)) >= 1:
        raise OutOfDomain("sqrt|y1| + sqrt|y2| must be < 1")
    return _fc_series(a, b, (c, cp), (y1, y2))


def lauricella_fc(m: int, a, b, cs, ys) -> complex:
    """Lauricella FC in m <= 3 variables, on sum sqrt|y_i| < 1."""
    if m < 1 or m > 3:
        raise UnsupportedParameters("m must be 1, 2, or 3")
    if len(cs) != m or len(ys) != m:
        raise DimensionMismatch("need m lower parameters and m arguments")
    for i, cv in enumerate(cs):
        _check_c(cv, f"c{i + 1}")
    if sum(math.sqrt(abs(y)) for y in ys) >= 1:
        raise OutOfDomain("sum of sqrt|y_i| must be < 1")
    return _fc_series(a, b, cs, ys)


# ==========================================================================
# classical solutions of the catalog systems
# ==========================================================================


def classical_solution(entry: CatalogEntry, params: dict, x) -> complex:
    """Monomial prefactor times the entry's classical series at x."""
    model = entry.classical
    if model is None or model.series not in ("2f1", "f4", "fc"):
        raise UnsupportedParameters(
            f"catalog entry {entry.name!r} has no classical series form"
        )
    n = entry.config.n
    if len(x) != n:
        raise DimensionMismatch(f"x has length {len(x)}, expected {n}")
    x = [complex(v) for v in x]
    args = []
    for kind, num, den in model.arguments:
        dval = 1 + 0j
        for j in den:
            dval *= x[j]
        if dval == 0:
            raise OutOfDomain("argument denominator vanishes")
        nval = 1 + 0j
        for j in num:
            nval *= x[j]
        ratio = nval / dval
        args.append(1 - ratio if kind == "one_minus_ratio" else ratio)
    expvals = model.prefactor_exponent_values(params)
    pref = 1 + 0j
    for j, e in enumerate(expvals):
        ec = complex(e)
        if ec == 0:
            continue
        base = x[j]
        if base == 0:
            raise OutOfDomain(f"prefactor base x_{j + 1} is zero")
        if base.imag == 0 and base.real < 0:
            _warnings.warn(
                f"prefactor base x_{j + 1} lies on the negative real axis; "
                "principal branch chosen",
                BranchAmbiguityWarning,
                stacklevel=2,
            )
        pref *= cmath.exp(ec * cmath.log(base))
    p = params
    if model.series == "2f1":
        return pref * gauss_2f1(p["a"], p["b"], p["c"], args[0])
    if model.series == "f4":
        return pref * appell_f4(p["a"], p["b"], p["c"], p["cp"], args[0], args[1])
    m = len(model.arguments)
    cs = [p[f"c{i + 1}"] for i in range(m)]
    return pref * lauricella_fc(m, p["a"], p["b"], cs, args)
