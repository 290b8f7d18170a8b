"""Symmetries of a point configuration.

A symmetry is a pair (T, pi) with T a unimodular d x d integer matrix and
pi a permutation of the columns satisfying T.a_j = a_{pi(j)} for every j.
These form a finite group: T is determined by the images of any column
basis, so the search space is bounded by ordered d-tuples of columns.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional

from . import lattice
from .configs import PointConfiguration
from .errors import ConfigMismatch, DimensionMismatch, TooLarge
from .lattice import IntMatrix

_MAX_COLUMNS = 14


def permutation_matrix(perm) -> IntMatrix:
    """n x n matrix P with column j of A.P equal to a_{perm[j]}."""
    return tuple(tuple(int(i == p) for p in perm) for i in range(len(perm)))


def permutation_from_matrix(p) -> tuple[int, ...]:
    n = len(p)
    perm = []
    for j in range(n):
        ones = [i for i in range(n) if p[i][j] == 1]
        if len(ones) != 1 or any(p[i][j] not in (0, 1) for i in range(n)):
            raise DimensionMismatch("not a permutation matrix")
        perm.append(ones[0])
    if sorted(perm) != list(range(n)):
        raise DimensionMismatch("not a permutation matrix")
    return tuple(perm)


@dataclass(frozen=True)
class PolytopeSymmetry:
    """T.a_j = a_{perm[j]} with T unimodular; perm is 0-based."""

    config: PointConfiguration
    t_matrix: IntMatrix
    perm: tuple[int, ...]
    det_sign: int

    @property
    def is_identity(self) -> bool:
        return all(p == j for j, p in enumerate(self.perm))

    def _key(self):
        return (self.perm, self.t_matrix)

    def to_json(self) -> dict:
        return {
            "T": [list(row) for row in self.t_matrix],
            "perm": [p + 1 for p in self.perm],
            "det": self.det_sign,
        }


def identity_symmetry(config: PointConfiguration) -> PolytopeSymmetry:
    d, n = config.d, config.n
    return PolytopeSymmetry(config, lattice.identity(d), tuple(range(n)), 1)


def solve_T_for_permutation(
    config: PointConfiguration, perm
) -> Optional[PolytopeSymmetry]:
    """Find the unique T with T.a_j = a_{perm[j]}, or None.

    T is pinned by the images of the lexicographically first column basis;
    the remaining columns then either confirm or refute the candidate.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(config.n)):
        raise ConfigMismatch("perm is not a permutation of 0..n-1")
    basis = lattice.pivot_columns(config.matrix)
    den, terms = _transport_terms(config, basis)
    acc = [sum(v) for v in zip(*(terms[l][perm[j]] for l, j in enumerate(basis)))]
    t = _transport(config.d, den, acc)
    if t is None or not verify_symmetry(config, t, perm):
        return None
    return PolytopeSymmetry(
        config=config, t_matrix=t, perm=perm, det_sign=int(lattice.det(t))
    )


def _columns(config: PointConfiguration, index) -> IntMatrix:
    """The d x d matrix whose columns are a_j for j in index."""
    cols = config.columns
    return tuple(zip(*(cols[j] for j in index)))


def _transport_terms(config: PointConfiguration, basis):
    """``(det B, terms)`` for B = (a_b for b in basis) and its images.

    T with T.a_{basis[l]} = a_{images[l]} is B_img.adj(B)/det(B), so
    det(B).T.[A | I] sums a_{images[l]} times row l of adj(B).[A | I] over l.
    ``terms[l][k]`` is that product for a_k, flattened by columns: column j of
    det(B).T.A, then det(B).T in the last d.d slots.
    """
    d = config.d
    den, adj = lattice.adjugate(_columns(config, basis))
    coords = lattice.mat_mul(adj, [row + tuple(int(i == r) for i in range(d))
                                   for r, row in enumerate(config.matrix)])
    terms = [[tuple(x * y for y in row for x in c) for c in config.columns]
             for row in coords]
    return den, terms


def _transport(d, den, acc) -> Optional[IntMatrix]:
    """T from the summed terms, or None if it is not an integer matrix."""
    flat = acc[-d * d:]
    if den != 1:
        if any(v % den for v in flat):
            return None
        flat = [v // den for v in flat]
    return tuple(zip(*(flat[c * d:(c + 1) * d] for c in range(d))))


def _gram_matrix(config: PointConfiguration) -> IntMatrix:
    """Q = A^T.(A.A^T)^{-1}.A, scaled to integers by det(A.A^T) > 0.

    A column permutation pi comes from a linear symmetry exactly when it
    preserves Q (Bremner, Dutour Sikiric, Pasechnik, Rehn and Schuermann,
    LMS J. Comput. Math. 17, 2014).
    """
    a, at = config.matrix, config.columns
    _, adj = lattice.adjugate(lattice.mat_mul(a, at))
    return lattice.mat_mul(lattice.mat_mul(at, adj), a)


def find_symmetries(config: PointConfiguration) -> "SymmetryGroup":
    """Enumerate the full symmetry group by basis-image backtracking.

    A column is a candidate image of the next basis column only if its Gram
    entries against the images so far equal the basis's.  A full match makes
    the images independent; the leaf keeps T if it is integral, maps every
    column to a column and has |det T| = 1.
    """
    if config.n > _MAX_COLUMNS:
        raise TooLarge(f"n = {config.n} exceeds the search bound {_MAX_COLUMNS}")
    n, d = config.n, config.d
    cols = config.columns
    if len(set(cols)) != n:
        raise ConfigMismatch("repeated columns; permutation action is ambiguous")
    basis = lattice.pivot_columns(config.matrix)
    den, terms = _transport_terms(config, basis)
    # den.T.a_j equals den.a_k exactly when T.a_j = a_k
    index = {tuple(den * x for x in c): k for k, c in enumerate(cols)}
    q = _gram_matrix(config)
    candidates = [[k for k in range(n) if q[k][k] == q[b][b]] for b in basis]
    minors: dict[tuple, Fraction] = {}
    found: list[PolytopeSymmetry] = []

    def leaf(images, acc):
        t = _transport(d, den, acc)
        perm = tuple(index.get(acc[j * d:(j + 1) * d]) for j in range(n))
        if t is None or None in perm or len(set(perm)) != n:
            return
        key = tuple(sorted(images))  # det T = +-det(B_key)/det(B)
        if key not in minors:
            minors[key] = lattice.det(_columns(config, key)) / den
        det = minors[key] * (-1) ** sum(x > y for i, x in enumerate(images)
                                        for y in images[i + 1:])
        if abs(det) == 1:
            found.append(PolytopeSymmetry(config, t, perm, int(det)))

    def backtrack(images: list[int], acc):
        level = len(images)
        if level == d:
            leaf(images, acc)
            return
        b = basis[level]
        for k in candidates[level]:
            if k not in images and all(q[i][k] == q[basis[l]][b]
                                       for l, i in enumerate(images)):
                backtrack(images + [k], tuple(map(add, acc, terms[level][k])))

    backtrack([], (0,) * len(terms[0][0]))
    return SymmetryGroup.from_elements(config, found)


def compose(first: PolytopeSymmetry, second: PolytopeSymmetry) -> PolytopeSymmetry:
    """Symmetry acting as first after second: T = T1.T2, perm = p1 o p2."""
    if first.config.matrix != second.config.matrix:
        raise ConfigMismatch("symmetries of different configurations")
    return PolytopeSymmetry(
        config=first.config,
        t_matrix=lattice.mat_mul(first.t_matrix, second.t_matrix),
        perm=tuple(map(first.perm.__getitem__, second.perm)),
        det_sign=first.det_sign * second.det_sign,
    )


def inverse(sym: PolytopeSymmetry) -> PolytopeSymmetry:
    t_inv = lattice.invert_unimodular(sym.t_matrix)
    perm_inv = tuple(sorted(range(len(sym.perm)), key=sym.perm.__getitem__))
    return PolytopeSymmetry(sym.config, t_inv, perm_inv, sym.det_sign)


def verify_symmetry(config: PointConfiguration, t, p) -> bool:
    """Exact check that T.A = A.P and |det T| = 1.

    p may be an n x n permutation matrix or a 0-based permutation tuple.
    """
    t = lattice.freeze(t)
    if len(t) != config.d or len(t[0]) != config.d:
        raise DimensionMismatch("T must be d x d")
    if p and isinstance(p[0], (tuple, list)):
        perm = permutation_from_matrix(p)
    else:
        perm = tuple(p)
    if len(perm) != config.n:
        raise DimensionMismatch("P must be n x n")
    cols = config.columns
    for j in range(config.n):
        if lattice.mat_vec(t, cols[j]) != cols[perm[j]]:
            return False
    return abs(lattice.det(t)) == 1


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite group of configuration symmetries, elements in sorted order."""

    config: PointConfiguration
    elements: tuple[PolytopeSymmetry, ...]
    generators: tuple[PolytopeSymmetry, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, sym: PolytopeSymmetry) -> bool:
        return any(e._key() == sym._key() for e in self.elements)

    @staticmethod
    def from_elements(config, elements) -> "SymmetryGroup":
        unique = {e._key(): e for e in elements}
        ident = identity_symmetry(config)
        unique.setdefault(ident._key(), ident)
        ordered = tuple(unique[k] for k in sorted(unique))
        gens = _greedy_generators(config, ordered)
        return SymmetryGroup(config=config, elements=ordered, generators=gens)

    def to_json(self) -> dict:
        return {
            "name": self.config.name,
            "order": self.order,
            "elements": [e.to_json() for e in self.elements],
            "generators": [g.to_json() for g in self.generators],
        }


def _greedy_generators(config, ordered) -> tuple:
    """Each element in order that the earlier choices do not generate.

    A has full rank, so perm determines T and the generated subgroup grows
    on the permutations alone.  Each new generator extends the subgroup H
    by whole cosets H.x, one per new representative x (Dimino's algorithm).
    """
    gens: list[PolytopeSymmetry] = []
    group = [identity_symmetry(config).perm]
    generated = set(group)
    for e in ordered:
        if e.perm in generated:
            continue
        gens.append(e)
        sub, reps = list(group), [group[0]]
        for r in reps:
            for g in gens:
                x = tuple(map(r.__getitem__, g.perm))
                if x not in generated:
                    coset = [tuple(map(h.__getitem__, x)) for h in sub]
                    group += coset
                    generated.update(coset)
                    reps.append(x)
        if len(group) == len(ordered):
            break
    return tuple(gens)
