"""Point configurations and their combinatorial invariants.

A configuration is a d x n integer matrix A whose columns span Z^d as a
lattice and whose rational row span contains the all-ones vector.  The
unique rational row vector xi with xi.A = (1,...,1) grades the columns;
every column has degree one, so conv(A) is a lattice polytope of dimension
d - 1 sitting at height one inside the cone R+.A.
"""

import functools
import itertools
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import lattice
from .errors import (
    DegenerateCone,
    LatticeNotSpanned,
    NoSuchBlockStructure,
    NotFullRank,
    NoXi,
    UnknownName,
)
from .lattice import IntMatrix, SmithDecomposition, smith_normal_form  # noqa: F401

_INT_TOL = 1e-9


# ==========================================================================
# core types
# ==========================================================================


@dataclass(frozen=True)
class PointConfiguration:
    """Validated configuration matrix together with its grading vector."""

    matrix: IntMatrix
    xi: tuple[int, ...]
    name: Optional[str] = None

    @property
    def d(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix[0])

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return lattice.transpose(self.matrix)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.matrix)

    def __str__(self) -> str:
        label = self.name or "configuration"
        return f"{label} ({self.d} x {self.n})"


def compute_xi(matrix) -> tuple[int, ...]:
    """The unique row vector with xi.A = (1,...,1).

    For a lattice-spanning configuration the solution is automatically
    integral.  Raises NoXi when the all-ones vector is not in the row span.
    """
    mat = lattice.freeze(matrix)
    d, n = len(mat), len(mat[0])
    cols = lattice.transpose(mat)
    # Solve A^T xi^T = 1 in the least-squares-free exact sense: pick d
    # independent rows of A^T (columns of A), solve, then check the rest.
    idx = lattice.pivot_columns(mat)
    if len(idx) < d:
        raise NoXi("matrix does not have full row rank")
    sub = tuple(cols[j] for j in idx)
    sol = lattice.solve_unique(sub, (1,) * d)
    if sol is None:
        raise NoXi("degenerate column basis")
    for j in range(n):
        if sum(Fraction(sol[i]) * cols[j][i] for i in range(d)) != 1:
            raise NoXi("all-ones vector is not in the rational row span")
    if any(f.denominator != 1 for f in sol):
        raise NoXi("xi is not integral; columns cannot span the lattice")
    return tuple(int(f) for f in sol)


def validate_configuration(matrix, name: Optional[str] = None) -> PointConfiguration:
    """Check full rank, lattice spanning, and existence of the grading xi."""
    mat = lattice.freeze(matrix)
    if not mat or not mat[0]:
        raise NotFullRank("empty matrix")
    d, n = len(mat), len(mat[0])
    if d > n:
        raise NotFullRank(f"more rows than columns ({d} > {n})")
    snf = smith_normal_form(mat)
    factors = snf.invariant_factors
    if len(factors) < d:
        raise NotFullRank(f"rank {len(factors)} < d = {d}")
    if any(f != 1 for f in factors):
        raise LatticeNotSpanned(
            f"columns span a proper sublattice; invariant factors {factors}"
        )
    xi = compute_xi(mat)
    return PointConfiguration(matrix=mat, xi=xi, name=name)


# ==========================================================================
# standard forms
# ==========================================================================


@dataclass(frozen=True)
class StandardForm:
    """Configuration rewritten so the leading rows are block indicators.

    transformed = u_matrix . base.matrix has rows 1..m equal to 0/1
    indicator rows of a partition of the columns into m blocks; the
    remaining r = d - m rows carry the dehomogenized exponents.
    """

    base: PointConfiguration
    u_matrix: IntMatrix
    m: int
    block_sizes: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    transformed: IntMatrix

    @property
    def r(self) -> int:
        return self.base.d - self.m

    @property
    def exponents(self) -> IntMatrix:
        """r x n matrix; column j is the dehomogenized exponent of monomial j."""
        return self.transformed[self.m :]

    def transform_parameters(self, beta: Sequence) -> tuple:
        """beta' = U.beta; accepts exact or floating entries."""
        if len(beta) != self.base.d:
            from .errors import DimensionMismatch

            raise DimensionMismatch("parameter vector length != d")
        return tuple(
            sum(self.u_matrix[i][k] * beta[k] for k in range(self.base.d))
            for i in range(self.base.d)
        )


def standard_form(config: PointConfiguration, u_matrix, m: int) -> StandardForm:
    """Build a standard form from an explicit unimodular row transform."""
    u = lattice.freeze(u_matrix)
    if len(u) != config.d or len(u[0]) != config.d:
        raise NoSuchBlockStructure("U must be d x d")
    if abs(lattice.det(u)) != 1:
        raise NoSuchBlockStructure("U is not unimodular")
    transformed = lattice.mat_mul(u, config.matrix)
    blocks = _indicator_blocks(transformed, m)
    if blocks is None:
        raise NoSuchBlockStructure(
            "rows 1..m of U.A are not 0/1 indicator rows of a partition"
        )
    return StandardForm(
        base=config,
        u_matrix=u,
        m=m,
        block_sizes=tuple(len(b) for b in blocks),
        blocks=blocks,
        transformed=transformed,
    )


def _indicator_blocks(transformed, m) -> Optional[tuple[tuple[int, ...], ...]]:
    n = len(transformed[0])
    blocks = []
    seen: set[int] = set()
    for i in range(m):
        row = transformed[i]
        if any(v not in (0, 1) for v in row):
            return None
        blk = tuple(j for j in range(n) if row[j] == 1)
        if not blk or seen & set(blk):
            return None
        seen |= set(blk)
        blocks.append(blk)
    if len(seen) != n:
        return None
    return tuple(blocks)


def to_standard_form(config: PointConfiguration, m: int = 1) -> StandardForm:
    """Find a standard form with m blocks, if one exists.

    For m = 1 the first row of U is xi, completed to a unimodular matrix.
    For m > 1 the integer row span is searched for 0/1 indicator rows that
    partition the columns; the partition is chosen deterministically
    (blocks ordered by smallest member).  Raises NoSuchBlockStructure when
    no partition exists or the indicator rows do not extend to a
    unimodular transform.
    """
    d, n = config.d, config.n
    if not 1 <= m <= d:
        raise NoSuchBlockStructure(f"m = {m} outside 1..{d}")
    if m == 1:
        u = lattice.unimodular_completion([config.xi], d)
        if u is None:
            raise NoSuchBlockStructure("xi does not extend to a unimodular matrix")
        return standard_form(config, u, 1)

    candidates = _indicator_candidates(config)
    partition = _partition_from_candidates(candidates, n, m)
    if partition is None:
        raise NoSuchBlockStructure(
            f"no partition of the columns into {m} indicator blocks"
        )
    head = [candidates[frozenset(blk)] for blk in partition]
    u = lattice.unimodular_completion(head, d)
    if u is None:
        raise NoSuchBlockStructure("indicator rows do not extend unimodularly")
    return standard_form(config, u, m)


def _indicator_candidates(config) -> dict[frozenset, tuple[int, ...]]:
    """Column subsets whose indicator row is an integer row combination.

    A row r is fixed by its 0/1 values v on the basis columns: with S those
    columns stacked as rows, r = adj(S).v/det(S).
    """
    cols = config.columns
    idx = lattice.pivot_columns(config.matrix)
    den, adj = lattice.adjugate(tuple(cols[j] for j in idx))
    out: dict[frozenset, tuple[int, ...]] = {}
    for pattern in itertools.product((0, 1), repeat=len(idx)):
        nums = [sum(x for x, p in zip(row, pattern) if p) for row in adj]
        if any(v % den for v in nums):
            continue
        row = tuple(v // den for v in nums)
        values = [sum(x * y for x, y in zip(row, c)) for c in cols]
        subset = frozenset(j for j, v in enumerate(values) if v == 1)
        if 0 < len(subset) < len(cols) and all(v in (0, 1) for v in values):
            out[subset] = row
    return out


def _partition_from_candidates(candidates, n, m) -> Optional[tuple[tuple[int, ...], ...]]:
    subsets = sorted(candidates, key=lambda s: (min(s), sorted(s)))

    def extend(cover: set, chosen: list) -> Optional[list]:
        if len(chosen) == m:
            return chosen if len(cover) == n else None
        remaining = set(range(n)) - cover
        if not remaining:
            return None
        anchor = min(remaining)
        for s in subsets:
            if anchor in s and not (s & cover):
                got = extend(cover | s, chosen + [s])
                if got is not None:
                    return got
        return None

    got = extend(set(), [])
    if got is None:
        return None
    return tuple(tuple(sorted(s)) for s in got)


# ==========================================================================
# catalog
# ==========================================================================


@dataclass(frozen=True)
class ClassicalModel:
    """Dictionary between classical series parameters and (beta, x).

    beta = beta_matrix . (1, p_1, ..., p_k) for parameters in the order of
    param_names.  The solution is prefactor * series(arguments), where the
    prefactor is prod_j x_j ** e_j with e_j affine in the parameters
    (prefactor_exponents, an n x (k+1) matrix), and each argument is a
    ratio prod x[num] / prod x[den], optionally as 1 - ratio.
    """

    series: str  # "2f1" | "f4" | "fc"
    param_names: tuple[str, ...]
    beta_matrix: tuple[tuple[Fraction, ...], ...]
    prefactor_exponents: tuple[tuple[Fraction, ...], ...]
    arguments: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]

    def beta_from_params(self, params: dict) -> tuple:
        vec = (1,) + tuple(params[name] for name in self.param_names)
        return tuple(
            sum(c * v for c, v in zip(row, vec)) for row in self.beta_matrix
        )

    def params_from_beta(self, beta: Sequence) -> dict:
        """Invert the affine map; defined whenever d = len(param_names)."""
        k = len(self.param_names)
        d = len(self.beta_matrix)
        if k != d:
            raise UnknownName("parameter dictionary is not square-invertible")
        shift = tuple(row[0] for row in self.beta_matrix)
        rhs = tuple(b - s for b, s in zip(beta, shift))
        try:
            sol = np.linalg.solve(self._linear_part, np.array(rhs, dtype=complex))
        except np.linalg.LinAlgError:
            raise UnknownName("singular parameter dictionary") from None
        return {
            name: float(v.real) if abs(v.imag) < 1e-14 else complex(v)
            for name, v in zip(self.param_names, sol)
        }

    def prefactor_exponent_values(self, params: dict) -> tuple:
        vec = (1,) + tuple(params[name] for name in self.param_names)
        rows = self.prefactor_exponents
        if all(type(v) in (float, complex) for v in vec[1:]):
            # Fraction * float rounds as float(c) * float: same values
            rows = self._float_prefactor_exponents
        return tuple(sum(c * v for c, v in zip(row, vec)) for row in rows)

    @functools.cached_property
    def _float_prefactor_exponents(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(map(float, row)) for row in self.prefactor_exponents)

    @functools.cached_property
    def _linear_part(self) -> np.ndarray:
        """The parameter columns of beta_matrix as the complex array solved."""
        return np.array([row[1:] for row in self.beta_matrix], dtype=complex)


@dataclass(frozen=True)
class PdeSample:
    """Default point of `gkz verify pde`; the cycle is in CLI tokens."""

    beta: tuple
    x: tuple
    cycle: str


@dataclass(frozen=True)
class BinomialSample:
    """Default inputs of `gkz verify binomial` in the one-block chart.

    beta holds None at the pole slot, which takes -n for pole order n;
    chart variable `variable` (1-based) is shifted by `shift`.  cycle is
    in CLI tokens, or None for the verifier's default.
    """

    variable: int
    shift: float
    beta: tuple
    xs: tuple
    cycle: Optional[str] = None

    def beta_for(self, n: int) -> tuple:
        return tuple(-float(n) if b is None else b for b in self.beta)


@dataclass(frozen=True)
class GroupGrid:
    """Default group-check grid: beta fixed, xs(count) the x points."""

    beta: tuple
    xs: Callable[[int], list]


def _spread(lo, hi, count):
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + step * k for k in range(count)]


@dataclass(frozen=True)
class CatalogEntry:
    """Named configuration with an optional classical dictionary."""

    name: str
    config: PointConfiguration
    classical: Optional[ClassicalModel]
    prefactor: str = ""
    # preferred row transforms per block count; fixes the chart (variable
    # ordering and signs) used by integral evaluation and worked examples
    charts: dict = field(default_factory=dict)
    pde_sample: Optional[PdeSample] = None
    binomial_sample: Optional[BinomialSample] = None
    group_grid: Optional[GroupGrid] = None
    group_evaluator: str = "classical"

    def standard_form(self, m: int = 1) -> StandardForm:
        if m in self.charts:
            return standard_form(self.config, self.charts[m], m)
        return to_standard_form(self.config, m)


def _fracrows(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _gauss_entry() -> CatalogEntry:
    mat = ((1, 0, 0, -1), (0, 1, 0, 1), (0, 0, 1, 1))
    config = validate_configuration(mat, name="gauss")
    model = ClassicalModel(
        series="2f1",
        param_names=("a", "b", "c"),
        # beta = (c - 1, -a, -b)
        beta_matrix=_fracrows(((-1, 0, 0, 1), (0, -1, 0, 0), (0, 0, -1, 0))),
        # x1^(c-1) x2^(-a) x3^(-b)
        prefactor_exponents=_fracrows(
            ((-1, 0, 0, 1), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0))
        ),
        arguments=(("ratio", (0, 3), (1, 2)),),
    )
    return CatalogEntry(
        name="gauss",
        config=config,
        classical=model,
        prefactor="x1^(c-1) x2^(-a) x3^(-b) * 2F1(a, b; c; x1 x4 / (x2 x3))",
        charts={
            # m=1: f = x1 + x2 w1 + x3 w2 + x4 w1 w2
            1: ((1, 1, 1), (0, 1, 0), (0, 0, 1)),
            # m=2: blocks {x1, x2}, {x3, x4}; f1 = x1 + x2 w, f2 = x3 + x4 w
            2: ((1, 1, 0), (0, 0, 1), (0, 1, 0)),
        },
        pde_sample=PdeSample((-0.9, -0.35, -0.45), (1.0, 0.8, 1.2, 0.4), "pos,pos"),
        group_grid=GroupGrid(
            (0.7, -0.3, -0.5),  # (a, b, c) = (0.3, 0.5, 1.7)
            lambda count: [
                (1.0, 1.1, 1.3, ratio * 1.1 * 1.3)
                for ratio in _spread(0.08, 0.44, count)
            ],
        ),
    )


def _quadric_entry() -> CatalogEntry:
    config = validate_configuration(((1, 1, 1), (0, 1, 2)), name="quadric")
    model = ClassicalModel(
        series="none",
        param_names=("b1", "b2"),
        beta_matrix=_fracrows(((0, 1, 0), (0, 0, 1))),
        prefactor_exponents=_fracrows(((0, 0, 0),) * 3),
        arguments=(),
    )
    return CatalogEntry(
        name="quadric",
        config=config,
        classical=model,
        prefactor="integral of (x1 + x2 z + x3 z^2)^b1 z^(-b2) dz/z",
        charts={1: ((1, 0), (0, 1))},
        pde_sample=PdeSample((-0.7, -0.2), (2.0, 1.0, 3.0), "real"),
        binomial_sample=BinomialSample(
            variable=1,
            shift=1.0,
            beta=(-2.6, None),
            xs=((3.0, 1.0, 2.0), (2.0, 0.8, 1.5), (2.5, 0.4, 1.1)),
        ),
        group_grid=GroupGrid(
            (-0.6, -0.35),
            lambda count: [(1.0, mid, 1.0) for mid in _spread(0.2, 1.2, count)],
        ),
        group_evaluator="integral",
    )


def _square_entry() -> CatalogEntry:
    mat = ((1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 0, 1))
    config = validate_configuration(mat, name="square")
    model = ClassicalModel(
        series="2f1",
        param_names=("a", "b", "c"),
        # beta = (-c, -a, -b)
        beta_matrix=_fracrows(((0, 0, 0, -1), (0, -1, 0, 0), (0, 0, -1, 0))),
        # x1^(a+b-c) x2^(-b) x3^(-a)
        prefactor_exponents=_fracrows(
            ((0, 1, 1, -1), (0, 0, -1, 0), (0, -1, 0, 0), (0, 0, 0, 0))
        ),
        arguments=(("one_minus_ratio", (0, 3), (1, 2)),),
    )
    return CatalogEntry(
        name="square",
        config=config,
        classical=model,
        prefactor="x1^(a+b-c) x2^(-b) x3^(-a) * 2F1(a, b; c; 1 - x1 x4 / (x2 x3))",
        # chart with f = x1 + x2 w1 + x3 w2 + x4 w1 w2
        charts={1: ((1, 0, 0), (0, 0, 1), (0, 1, 0))},
        pde_sample=PdeSample(
            (-1.7, -0.3, -0.5), (1.0, 1.1, 1.3, 0.715), "pos,pos"
        ),
        # On any line cycle both sides vanish identically (the zero set of
        # the bilinear f never separates a translation-invariant contour),
        # so the shifted variable runs over the unit circle instead, with
        # an integer block exponent to keep the integrand single valued.
        # Shifting w2 keeps the circle on the cheap inner axis; samples
        # keep the w2 zero inside radius 0.5 so the shifted contour stays
        # admissible.
        binomial_sample=BinomialSample(
            variable=2,
            shift=0.4,
            beta=(-2.0, None, -0.1),
            xs=(
                (0.3, 0.2j, 1.0, 1.0),
                (0.4, 0.1 + 0.2j, 1.0, 0.8),
                (0.2, -0.3j, 1.2, 1.0),
            ),
            cycle="pos,circle",
        ),
        group_grid=GroupGrid(
            (-1.7, -0.3, -0.5),
            lambda count: [
                (1.0, 1.1, 1.3, (1 - arg) * 1.1 * 1.3)
                for arg in _spread(0.08, 0.44, count)
            ],
        ),
    )


def _fc_matrix(m: int) -> IntMatrix:
    n = 2 * m + 2
    rows = [[1] * n, [1] * (m + 1) + [0] * (m + 1)]
    for i in range(m):
        row = [0] * n
        row[1 + i] = 1
        row[m + 2 + i] = -1
        rows.append(row)
    return lattice.freeze(rows)


def _fc_entry(m: int) -> CatalogEntry:
    if m < 1:
        raise UnknownName("lauricella_fc needs m >= 1")
    name = f"lauricella_fc({m})"
    config = validate_configuration(_fc_matrix(m), name=name)
    k = m + 2  # parameters a, b, c1..cm
    names = ("a", "b") + tuple(f"c{i+1}" for i in range(m))
    # kappa = (-a, c1 - 1, ..., cm - 1, -b, 0, ..., 0) as affine rows over
    # (1, a, b, c1..cm); beta = A.kappa.
    kappa = [[0] * (k + 1) for _ in range(2 * m + 2)]
    kappa[0][1] = -1  # -a
    for i in range(m):
        kappa[1 + i][0] = -1
        kappa[1 + i][3 + i] = 1  # c_{i+1} - 1
    kappa[m + 1][2] = -1  # -b
    beta_rows = lattice.mat_mul(config.matrix, lattice.freeze(kappa))
    pref = [[0] * (k + 1) for _ in range(2 * m + 2)]
    pref[0][1] = -1  # x1^(-a)
    for i in range(m):
        pref[1 + i][0] = -1
        pref[1 + i][3 + i] = 1  # x_{1+i}^(c_i - 1)
    pref[m + 1][2] = -1  # x_{m+2}^(-b)
    args = tuple(
        ("ratio", (1 + i, m + 2 + i), (0, m + 1)) for i in range(m)
    )
    model = ClassicalModel(
        series="fc",
        param_names=names,
        beta_matrix=_fracrows(beta_rows),
        prefactor_exponents=_fracrows(pref),
        arguments=args,
    )
    grid = None
    if m in _FC_GROUP_GRIDS:
        params, xs = _FC_GROUP_GRIDS[m]
        beta = tuple(float(v) for v in model.beta_from_params(params))
        grid = GroupGrid(beta, xs)
    return CatalogEntry(
        name=name,
        config=config,
        classical=model,
        prefactor="prod x_{1+i}^(c_i-1) x1^(-a) x_{m+2}^(-b) * FC(a, b; c; ratios)",
        group_grid=grid,
    )


# m -> (parameters, x points) of the default group grids of lauricella_fc(m)
_FC_GROUP_GRIDS = {
    1: (
        {"a": 0.3, "b": 0.5, "c1": 1.7},
        lambda count: [(1.0, 1.0, 1.0, y) for y in _spread(0.1, 0.45, count)],
    ),
    2: (
        {"a": 0.31, "b": 0.74, "c1": 1.2, "c2": 0.85},
        lambda count: [
            (1.0,) * 4 + (0.04 + 0.015 * k, 0.08 + 0.02 * k)
            for k in range(count)
        ],
    ),
    3: (
        {"a": 0.31, "b": 0.74, "c1": 1.2, "c2": 0.85, "c3": 1.4},
        lambda count: [
            (1.0,) * 5 + (0.03 + 0.01 * k, 0.05 + 0.008 * k, 0.04 + 0.012 * k)
            for k in range(count)
        ],
    ),
}


def _f4_entry() -> CatalogEntry:
    base = _fc_entry(2)
    # everything but the names is lauricella_fc(2)'s; its group grid holds
    # because c, cp take the values of c1, c2
    return replace(
        base,
        name="appell_f4",
        config=replace(base.config, name="appell_f4"),
        classical=replace(
            base.classical, series="f4", param_names=("a", "b", "c", "cp")
        ),
        prefactor=(
            "x2^(c-1) x3^(cp-1) x1^(-a) x4^(-b) * "
            "F4(a, b; c, cp; x2 x5/(x1 x4), x3 x6/(x1 x4))"
        ),
    )


def _pfq_entry(p: int) -> CatalogEntry:
    if p < 1:
        raise UnknownName("pfq needs p >= 1")
    d = 2 * p - 1
    v = [1] * p + [-1] * (p - 1)
    rows = [[1 if i == j else 0 for j in range(d)] + [v[i]] for i in range(d)]
    config = validate_configuration(rows, name=f"pfq({p})")
    return CatalogEntry(
        name=f"pfq({p})",
        config=config,
        classical=None,
        prefactor="homogenization of pFq with p upper, p-1 lower parameters",
    )


# name -> (builder, members): a family's builder takes the m of "name(m)"
# and the catalog lists its members; a plain entry has members None
_REGISTRY = {
    "appell_f4": (_f4_entry, None),
    "gauss": (_gauss_entry, None),
    "lauricella_fc": (_fc_entry, (1, 2, 3)),
    "pfq": (_pfq_entry, (1, 2, 3)),
    "quadric": (_quadric_entry, None),
    "square": (_square_entry, None),
}

CATALOG_NAMES = tuple(
    sorted(
        base if m is None else f"{base}({m})"
        for base, (_, members) in _REGISTRY.items()
        for m in members or (None,)
    )
)

_CATALOG_PATTERN = re.compile(r"^([a-z0-9_]+)(?:\((\d+)\))?$")


@functools.cache
def catalog(name: str) -> CatalogEntry:
    """Look up a named configuration, e.g. 'gauss' or 'lauricella_fc(3)'."""
    m = _CATALOG_PATTERN.match(name.strip())
    if m is None:
        raise UnknownName(f"cannot parse catalog name {name!r}")
    base, arg = m.group(1), m.group(2)
    builder, members = _REGISTRY.get(base, (None, None))
    if builder is None or (members is None) != (arg is None):
        raise UnknownName(f"unknown catalog name {name!r}")
    return builder() if arg is None else builder(int(arg))


def entry_of(config: PointConfiguration) -> Optional[CatalogEntry]:
    """The catalog entry whose matrix is config.matrix, or None.

    The entry named like config wins, since appell_f4 and
    lauricella_fc(2) share a matrix; otherwise the first listed one.
    """
    try:
        named = catalog(config.name) if config.name else None
    except UnknownName:
        named = None
    if named is not None and named.config.matrix == config.matrix:
        return named
    return next(
        (ent for ent in map(catalog, CATALOG_NAMES)
         if ent.config.matrix == config.matrix),
        None,
    )


def chart_of(config: PointConfiguration, m: int = 1) -> StandardForm:
    """Standard form with m blocks, in the catalog's chart where it has one."""
    ent = entry_of(config)
    return ent.standard_form(m) if ent else to_standard_form(config, m)


# ==========================================================================
# cone combinatorics
# ==========================================================================


def facet_normals(config: PointConfiguration) -> tuple[tuple[int, ...], ...]:
    """Primitive inward normals of the facets of the cone R+.A.

    Brute force over (d-1)-subsets of columns: each subset spanning a
    hyperplane contributes its primitive normal if all columns lie weakly
    on one side and the touching columns span the hyperplane.
    """
    d, n = config.d, config.n
    cols = config.columns
    if d == 1:
        sign = 1 if cols[0][0] > 0 else -1
        return ((sign,),)
    found: set[tuple[int, ...]] = set()
    for subset in itertools.combinations(range(n), d - 1):
        sub = tuple(cols[j] for j in subset)
        if lattice.rank(sub) != d - 1:
            continue
        normal = _hyperplane_normal(sub)
        if normal is None:
            continue
        pairings = [sum(normal[i] * c[i] for i in range(d)) for c in cols]
        if all(p >= 0 for p in pairings):
            pass
        elif all(p <= 0 for p in pairings):
            normal = tuple(-v for v in normal)
            pairings = [-p for p in pairings]
        else:
            continue
        touching = tuple(cols[j] for j, p in enumerate(pairings) if p == 0)
        if lattice.rank(touching) == d - 1:
            found.add(normal)
    if not found:
        raise DegenerateCone("no supporting hyperplanes found")
    return tuple(sorted(found))


def _hyperplane_normal(sub) -> Optional[tuple[int, ...]]:
    """Primitive integer normal of the span of d-1 independent vectors."""
    kern = lattice.kernel_basis_int(sub)
    if len(kern) != 1:
        return None
    return lattice.primitive(kern[0])


def is_nonresonant(config: PointConfiguration, beta, tol: float = _INT_TOL) -> bool:
    """True when no facet pairing <nu, beta> is an integer (within tol)."""
    from .errors import DimensionMismatch

    if len(beta) != config.d:
        raise DimensionMismatch("parameter vector length != d")
    for nu in facet_normals(config):
        val = sum(complex(nu[i]) * complex(beta[i]) for i in range(config.d))
        if abs(val.imag) < tol and abs(val.real - round(val.real)) < tol:
            return False
    return True


def saturation_gaps(config: PointConfiguration, degree_bound: int) -> tuple:
    """Lattice points of the cone, degree <= bound, missing from N.A."""
    d = config.d
    cols = config.columns
    normals = facet_normals(config)
    gaps = []
    for g in range(degree_bound + 1):
        for z in _cone_points_of_degree(config, normals, g):
            if not _semigroup_member(cols, z, g):
                gaps.append(z)
    return tuple(gaps)


def is_saturated_up_to(config: PointConfiguration, degree_bound: int) -> bool:
    """No gaps between cone and semigroup up to the given xi-degree."""
    return not saturation_gaps(config, degree_bound)


def _cone_points_of_degree(config, normals, g):
    d = config.d
    cols = config.columns
    if g == 0:
        yield (0,) * d
        return
    lo = [min(g * c[i] for c in cols) for i in range(d)]
    hi = [max(g * c[i] for c in cols) for i in range(d)]
    for point in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(d))):
        if sum(config.xi[i] * point[i] for i in range(d)) != g:
            continue
        if all(sum(nu[i] * point[i] for i in range(d)) >= 0 for nu in normals):
            yield point


def _semigroup_member(cols, target, degree) -> bool:
    """Is target a nonnegative integer combination of the columns?

    The xi-grading bounds every multiplicity by the degree, so a depth
    first search over columns terminates quickly at desk scales.
    """
    n = len(cols)
    d = len(target)

    def recurse(j, remaining, deg):
        if deg == 0:
            return all(v == 0 for v in remaining)
        if j == n:
            return False
        # max multiplicity of column j is bounded by remaining degree
        for k in range(deg, -1, -1):
            nxt = tuple(remaining[i] - k * cols[j][i] for i in range(d))
            if recurse(j + 1, nxt, deg - k):
                return True
        return False

    return recurse(0, target, degree)
