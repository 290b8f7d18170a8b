"""Symmetries of a point configuration.

A symmetry is a pair (T, pi) with T a unimodular d x d integer matrix and
pi a permutation of the columns satisfying T.a_j = a_{pi(j)} for every j.
These form a finite group: T is determined by the images of any column
basis, so the search space is bounded by ordered d-tuples of columns.
"""

from dataclasses import dataclass
from typing import Optional

from . import lattice
from .configs import PointConfiguration, facet_normals
from .errors import ConfigMismatch, DimensionMismatch, TooLarge
from .lattice import IntMatrix

_MAX_COLUMNS = 14


def permutation_matrix(perm) -> IntMatrix:
    """n x n matrix P with column j of A.P equal to a_{perm[j]}."""
    n = len(perm)
    return tuple(
        tuple(1 if i == perm[j] else 0 for j in range(n)) for i in range(n)
    )


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
    return PolytopeSymmetry(
        config=config,
        t_matrix=lattice.identity(config.d),
        perm=tuple(range(config.n)),
        det_sign=1,
    )


def solve_T_for_permutation(
    config: PointConfiguration, perm
) -> Optional[PolytopeSymmetry]:
    """Find the unique T with T.a_j = a_{perm[j]}, or None.

    T is pinned by the images of the lexicographically first column basis;
    the remaining columns then either confirm or refute the candidate.
    """
    perm = tuple(perm)
    n, d = config.n, config.d
    if sorted(perm) != list(range(n)):
        raise ConfigMismatch("perm is not a permutation of 0..n-1")
    cols = config.columns
    basis = lattice.pivot_columns(config.matrix)
    b = lattice.transpose(tuple(cols[j] for j in basis))  # d x d, columns a_j
    b_img = lattice.transpose(tuple(cols[perm[j]] for j in basis))
    t = _solve_transport(b, b_img, d)
    if t is None:
        return None
    for j in range(n):
        if lattice.mat_vec(t, cols[j]) != cols[perm[j]]:
            return None
    det = lattice.det(t)
    if abs(det) != 1:
        return None
    return PolytopeSymmetry(
        config=config, t_matrix=t, perm=perm, det_sign=1 if det > 0 else -1
    )


def _solve_transport(b, b_img, d) -> Optional[IntMatrix]:
    """Integer T with T.b = b_img, given b invertible; None otherwise."""
    rows = []
    bt = lattice.transpose(b)
    for i in range(d):
        # row i of T solves bt . row^T = row i of b_img
        sol = lattice.solve_unique(bt, b_img[i])
        if sol is None or any(f.denominator != 1 for f in sol):
            return None
        rows.append(tuple(int(f) for f in sol))
    return tuple(rows)


def _column_invariants(config: PointConfiguration) -> tuple[tuple, ...]:
    """Per-column fingerprint preserved by every symmetry.

    The facet normals are permuted by any unimodular column symmetry, so
    the sorted multiset of facet pairings of a column is invariant.
    """
    normals = facet_normals(config)
    cols = config.columns
    out = []
    for c in cols:
        pairings = sorted(sum(nu[i] * c[i] for i in range(config.d)) for nu in normals)
        out.append(tuple(pairings))
    return tuple(out)


def find_symmetries(config: PointConfiguration) -> "SymmetryGroup":
    """Enumerate the full symmetry group by basis-image backtracking."""
    if config.n > _MAX_COLUMNS:
        raise TooLarge(f"n = {config.n} exceeds the search bound {_MAX_COLUMNS}")
    n, d = config.n, config.d
    cols = config.columns
    if len(set(cols)) != n:
        raise ConfigMismatch("repeated columns; permutation action is ambiguous")
    basis = lattice.pivot_columns(config.matrix)
    invariants = _column_invariants(config)
    candidates = [
        tuple(k for k in range(n) if invariants[k] == invariants[j]) for j in basis
    ]
    found: list[PolytopeSymmetry] = []

    def backtrack(level: int, images: list[int]):
        if level == d:
            sym = _complete_from_basis_images(config, cols, basis, images)
            if sym is not None:
                found.append(sym)
            return
        for k in candidates[level]:
            if k in images:
                continue
            trial = tuple(cols[i] for i in images + [k])
            if lattice.rank(trial) != level + 1:
                continue
            backtrack(level + 1, images + [k])

    backtrack(0, [])
    return SymmetryGroup.from_elements(config, found)


def _complete_from_basis_images(config, cols, basis, images) -> Optional[PolytopeSymmetry]:
    d, n = config.d, config.n
    b = lattice.transpose(tuple(cols[j] for j in basis))
    b_img = lattice.transpose(tuple(cols[k] for k in images))
    t = _solve_transport(b, b_img, d)
    if t is None:
        return None
    perm = []
    col_index = {cols[j]: j for j in range(n)}
    for j in range(n):
        image = lattice.mat_vec(t, cols[j])
        k = col_index.get(image)
        if k is None:
            return None
        perm.append(k)
    if sorted(perm) != list(range(n)):
        return None
    det = lattice.det(t)
    if abs(det) != 1:
        return None
    return PolytopeSymmetry(
        config=config, t_matrix=t, perm=tuple(perm), det_sign=1 if det > 0 else -1
    )


def compose(first: PolytopeSymmetry, second: PolytopeSymmetry) -> PolytopeSymmetry:
    """Symmetry acting as first after second: T = T1.T2, perm = p1 o p2."""
    if first.config.matrix != second.config.matrix:
        raise ConfigMismatch("symmetries of different configurations")
    t = lattice.mat_mul(first.t_matrix, second.t_matrix)
    perm = tuple(first.perm[second.perm[j]] for j in range(len(first.perm)))
    return PolytopeSymmetry(
        config=first.config,
        t_matrix=t,
        perm=perm,
        det_sign=first.det_sign * second.det_sign,
    )


def inverse(sym: PolytopeSymmetry) -> PolytopeSymmetry:
    t_inv = lattice.invert_unimodular(sym.t_matrix)
    perm_inv = [0] * len(sym.perm)
    for j, p in enumerate(sym.perm):
        perm_inv[p] = j
    return PolytopeSymmetry(
        config=sym.config,
        t_matrix=t_inv,
        perm=tuple(perm_inv),
        det_sign=sym.det_sign,
    )


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


def recheck(sym: PolytopeSymmetry) -> bool:
    return verify_symmetry(sym.config, sym.t_matrix, sym.perm)


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


def _closure(config, gens) -> set:
    ident = identity_symmetry(config)
    seen = {ident._key(): ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                prod = compose(g, h)
                if prod._key() not in seen:
                    seen[prod._key()] = prod
                    fresh.append(prod)
        frontier = fresh
    return set(seen)


def _greedy_generators(config, ordered) -> tuple:
    gens: list[PolytopeSymmetry] = []
    generated = {identity_symmetry(config)._key()}
    for e in ordered:
        if e._key() not in generated:
            gens.append(e)
            generated = _closure(config, gens)
            if len(generated) == len(ordered):
                break
    return tuple(gens)
