"""Concrete transformation objects built from symmetries and shifts.

Two families are supported: monomial (torus) maps coming from polytope
symmetries, acting by (beta, x) -> (T.beta, x permuted), and elementary
shift automorphisms w_i -> w_i + t of a dehomogenized chart, acting on
coefficients by an n x n pullback matrix.  At negative integer exponents
the shift collapses to a finite binomial-sum identity between integrals.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from . import lattice
from .configs import StandardForm
from .errors import (
    ConfigMismatch,
    DimensionMismatch,
    LeavesConfiguration,
    NotNegativeInteger,
)
from .symmetry import PolytopeSymmetry, inverse as symmetry_inverse


# ==========================================================================
# linear transformations from polytope symmetries
# ==========================================================================


@dataclass(frozen=True)
class LinearTransformation:
    """Parameter/coefficient action of a symmetry, with Jacobian factor.

    scale is |det T|; the orientation sign of the substituted cycle
    cancels the sign of the determinant, so unimodular maps carry 1.
    """

    symmetry: PolytopeSymmetry
    scale: int

    @property
    def config(self):
        return self.symmetry.config

    def to_json(self) -> dict:
        return {
            "kind": "linear",
            "T": [list(r) for r in self.symmetry.t_matrix],
            "perm": [p + 1 for p in self.symmetry.perm],
            "scale": self.scale,
        }


def induced_transformation(sym: PolytopeSymmetry) -> LinearTransformation:
    return LinearTransformation(symmetry=sym, scale=abs(sym.det_sign))


def inverse_transformation(tr: LinearTransformation) -> LinearTransformation:
    return induced_transformation(symmetry_inverse(tr.symmetry))


def apply(tr: LinearTransformation, beta: Sequence, x: Sequence):
    """(beta, x) -> (T.beta, x rearranged so slot perm[j] holds x_j).

    The coefficient action is the push-forward along the column
    permutation: the monomial that previously carried x_j carries it
    still after relabeling columns by perm.  Chained application agrees
    with applying the composite symmetry.
    """
    sym = tr.symmetry
    d, n = sym.config.d, sym.config.n
    if len(beta) != d:
        raise DimensionMismatch(f"beta has length {len(beta)}, expected {d}")
    if len(x) != n:
        raise DimensionMismatch(f"x has length {len(x)}, expected {n}")
    t = sym.t_matrix
    beta_new = tuple(
        sum(t[i][k] * beta[k] for k in range(d)) for i in range(d)
    )
    x_new = [None] * n
    for j in range(n):
        x_new[sym.perm[j]] = x[j]
    return beta_new, tuple(x_new)


def monomial_torus_map(config, sym: PolytopeSymmetry) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors t_i (the rows of T) of the torus-level map."""
    if config.matrix != sym.config.matrix:
        raise ConfigMismatch("symmetry belongs to a different configuration")
    return tuple(tuple(row) for row in sym.t_matrix)


# ==========================================================================
# elementary shift automorphisms
# ==========================================================================


@dataclass(frozen=True)
class ElementaryAutomorphism:
    """Shift w_i -> w_i + t in a one-block chart; pullback x -> x.M."""

    standard_form: StandardForm
    variable_index: int  # 1-based index into the r dehomogenized variables
    shift: complex
    coefficient_map: tuple  # n x n rows; entry [j][l] feeds x_j into slot l

    def pullback(self, x: Sequence) -> tuple:
        n = len(self.coefficient_map)
        if len(x) != n:
            raise DimensionMismatch(f"x has length {len(x)}, expected {n}")
        m = self.coefficient_map
        return tuple(
            sum(x[j] * m[j][l] for j in range(n) if m[j][l] != 0)
            for l in range(n)
        )

    def to_json(self) -> dict:
        return {
            "kind": "elementary",
            "variable_index": self.variable_index,
            "shift": _c2json(self.shift),
            "M": [[_c2json(v) for v in row] for row in self.coefficient_map],
        }


def _c2json(v):
    z = complex(v)
    return [z.real, z.imag]


def elementary_pullback(sf: StandardForm, i: int, t) -> ElementaryAutomorphism:
    """Expand every monomial under w_i -> w_i + t by the binomial theorem.

    Valid only in one-block charts; the produced exponents must all be
    columns of the chart, otherwise the shift leaves the coordinate ring.
    """
    if sf.m != 1:
        raise ConfigMismatch("shift automorphisms need a one-block chart")
    r = sf.r
    if not 1 <= i <= r:
        raise DimensionMismatch(f"variable index {i} outside 1..{r}")
    exps = sf.exponents
    n = sf.base.n
    cols = tuple(tuple(exps[k][j] for k in range(r)) for j in range(n))
    col_index = {c: j for j, c in enumerate(cols)}
    rows = []
    for j in range(n):
        a = cols[j][i - 1]
        if a < 0:
            raise LeavesConfiguration(
                f"monomial {j + 1} has negative exponent {a} in variable {i}"
            )
        row = [0] * n
        for s in range(a + 1):
            target = cols[j][: i - 1] + (s,) + cols[j][i:]
            l = col_index.get(target)
            if l is None:
                if t == 0 and s != a:
                    continue
                raise LeavesConfiguration(
                    f"shift of monomial {j + 1} produces exponent {target} "
                    "outside the configuration"
                )
            row[l] = row[l] + comb(a, s) * t ** (a - s)
        rows.append(tuple(row))
    return ElementaryAutomorphism(
        standard_form=sf,
        variable_index=i,
        shift=t,
        coefficient_map=tuple(rows),
    )


# ==========================================================================
# binomial-sum identities at negative integer exponents
# ==========================================================================


@dataclass(frozen=True)
class BinomialTerm:
    """One summand: binomial * t^t_power * F(beta; x.M)."""

    binomial: int
    t_power: int
    beta: tuple

    def coefficient(self, t) -> complex:
        return self.binomial * t**self.t_power


@dataclass(frozen=True)
class BinomialIdentity:
    """F at a negative-integer slot as a finite sum of shifted integrals.

    lhs_beta has the dehomogenized exponent of the shifted variable equal
    to -N; each term evaluates F at the pulled-back coefficients x.M(t)
    with the slot moved to -K, K = 0..N.  Both sides are integrals against
    plain Lebesgue measure on the dehomogenized chart.
    """

    automorphism: ElementaryAutomorphism
    lhs_beta: tuple
    slot: int  # 0-based position in the transformed parameter vector
    order: int  # N
    terms: tuple[BinomialTerm, ...]

    @property
    def standard_form(self) -> StandardForm:
        return self.automorphism.standard_form

    def to_json(self) -> dict:
        return {
            "kind": "binomial",
            "N": self.order,
            "variable_index": self.automorphism.variable_index,
            "shift": _c2json(self.automorphism.shift),
            "lhs_beta": [_c2json(b) for b in self.lhs_beta],
            "M": [
                [_c2json(v) for v in row]
                for row in self.automorphism.coefficient_map
            ],
            "terms": [
                {
                    "coeff": _c2json(term.coefficient(self.automorphism.shift)),
                    "binomial": term.binomial,
                    "t_power": term.t_power,
                    "beta_shift": [_c2json(b) for b in term.beta],
                }
                for term in self.terms
            ],
        }


def _is_negative_integer(value, order: int) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == -order
    z = complex(value)
    return abs(z.imag) < 1e-12 and abs(z.real + order) < 1e-12


def binomial_expansion_identity(
    sf: StandardForm, ea: ElementaryAutomorphism, beta: Sequence, N: int
) -> BinomialIdentity:
    """Derive the finite-sum identity for a shift at slot value -N.

    Under w_i -> w_i + t with plain Lebesgue measure dw_i, the only
    non-polynomial piece of the integrand is the pure power of the shifted
    variable; with exponent -N (N a positive integer) it becomes
    (w_i + t)^N, whose expansion re-indexes each power w_i^K as an
    integral with slot parameter -K.  Term K therefore carries the exact
    coefficient binom(N, K) t^{N-K}, for K = 0..N.
    """
    if ea.standard_form is not sf and ea.standard_form.transformed != sf.transformed:
        raise ConfigMismatch("automorphism was built on a different chart")
    if not isinstance(N, int) or N < 1:
        raise NotNegativeInteger(f"N must be a positive integer, got {N!r}")
    beta_t = sf.transform_parameters(beta)
    slot = sf.m + ea.variable_index - 1
    if not _is_negative_integer(beta_t[slot], N):
        raise NotNegativeInteger(
            f"transformed slot {slot + 1} is {beta_t[slot]!r}, expected {-N}"
        )
    u_inv = lattice.invert_unimodular(sf.u_matrix)
    d = sf.base.d
    terms = []
    for K in range(N + 1):
        shifted = list(beta_t)
        shifted[slot] = -K
        back = tuple(
            sum(u_inv[i][k] * shifted[k] for k in range(d)) for i in range(d)
        )
        terms.append(
            BinomialTerm(binomial=comb(N, K), t_power=N - K, beta=back)
        )
    return BinomialIdentity(
        automorphism=ea,
        lhs_beta=tuple(beta),
        slot=slot,
        order=N,
        terms=tuple(terms),
    )
