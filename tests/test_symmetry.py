"""Symmetry enumeration against a brute-force permutation sweep, the
printed generator matrices, and the exact group laws."""

import math
from itertools import permutations

import numpy as np
import pytest

from gkz import (
    ConfigMismatch,
    GkzError,
    NoSuchBlockStructure,
    TooLarge,
    catalog,
    compose,
    find_symmetries,
    identity_symmetry,
    inverse,
    lattice,
    to_standard_form,
    validate_configuration,
    verify_symmetry,
)
from gkz.configs import CATALOG_NAMES, _partition_from_candidates, standard_form
from gkz.symmetry import permutation_matrix, solve_T_for_permutation

T1 = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
T2 = ((1, 0, 0), (1, -1, 0), (0, 0, 1))
F4_T = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, 2, -1, -1))
F4_PERM = (2, 1, 0, 5, 4, 3)


def brute_force_group(config):
    """Oracle: push every permutation of columns through the exact solver."""
    found = []
    for perm in permutations(range(config.n)):
        sym = solve_T_for_permutation(config, perm)
        if sym is not None:
            found.append(sym)
    return found


def test_square_group_order(square_entry):
    group = find_symmetries(square_entry.config)
    assert group.order == 8


def test_square_contains_printed_generators(square_entry):
    group = find_symmetries(square_entry.config)
    mats = {sym.t_matrix for sym in group}
    assert T1 in mats and T2 in mats
    perms = {sym.perm for sym in group}
    assert (0, 2, 1, 3) in perms and (2, 3, 0, 1) in perms


def test_square_solve_matches_printed(square_entry):
    s1 = solve_T_for_permutation(square_entry.config, (0, 2, 1, 3))
    assert s1 is not None and s1.t_matrix == T1
    s2 = solve_T_for_permutation(square_entry.config, (2, 3, 0, 1))
    assert s2 is not None and s2.t_matrix == T2


def test_quadric_reversal(quadric_entry):
    sym = solve_T_for_permutation(quadric_entry.config, (2, 1, 0))
    assert sym is not None
    assert sym.t_matrix == ((1, 0), (2, -1))


def test_solve_rejects_non_symmetry(quadric_entry):
    assert solve_T_for_permutation(quadric_entry.config, (1, 0, 2)) is None


def test_brute_force_equivalence_small():
    for name in ("quadric", "square", "gauss"):
        config = catalog(name).config
        group = find_symmetries(config)
        oracle = brute_force_group(config)
        assert {s.perm for s in group} == {s.perm for s in oracle}


def fc_family_subgroup(config, m):
    """Closure of the vertex-permutation and simplex-swap generators.

    Columns sit in blocks (a_0 | a_1..a_m | b_0 | b_1..b_m); the first
    family permutes indices within both identity blocks in lockstep, the
    second transposes a_k with b_k.
    """
    n = 2 * m + 2
    gens = []
    for i in range(1, m):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        perm[m + 1 + i], perm[m + 2 + i] = perm[m + 2 + i], perm[m + 1 + i]
        gens.append(tuple(perm))
    for k in range(1, m + 1):
        perm = list(range(n))
        perm[k], perm[m + 1 + k] = perm[m + 1 + k], perm[k]
        gens.append(tuple(perm))
    seed = [solve_T_for_permutation(config, p) for p in gens]
    assert all(s is not None for s in seed)
    elements = {(s.t_matrix, s.perm): s for s in seed}
    frontier = list(elements.values())
    while frontier:
        nxt = []
        for s in frontier:
            for g in seed:
                c = compose(s, g)
                key = (c.t_matrix, c.perm)
                if key not in elements:
                    elements[key] = c
                    nxt.append(c)
        frontier = nxt
    return list(elements.values())


def test_fc_family_subgroup_orders():
    for m in (2, 3):
        config = catalog(f"lauricella_fc({m})").config
        sub = fc_family_subgroup(config, m)
        assert len(sub) == 2**m * math.factorial(m)


def test_fc_full_groups_contain_families():
    # the complete enumeration is strictly larger than the two commuting
    # families: the parameter-flip symmetry with bottom row
    # (-1, 2, -1, -1) lies outside both
    g2 = find_symmetries(catalog("lauricella_fc(2)").config)
    assert g2.order == 48
    config3 = catalog("lauricella_fc(3)").config
    g3 = find_symmetries(config3)
    assert g3.order == 384
    keys2 = {(s.t_matrix, s.perm) for s in g2}
    for s in fc_family_subgroup(catalog("lauricella_fc(2)").config, 2):
        assert (s.t_matrix, s.perm) in keys2
    keys3 = {(s.t_matrix, s.perm) for s in g3}
    for s in fc_family_subgroup(config3, 3):
        assert (s.t_matrix, s.perm) in keys3


def test_identity_config_group():
    config = validate_configuration(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    group = find_symmetries(config)
    assert group.order == 6
    for sym in group:
        t = np.array(sym.t_matrix)
        assert sorted(map(tuple, t)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_too_large_guard():
    mat = [[1] * 16] + [[1 if i == j else 0 for j in range(16)] for i in range(15)]
    config = validate_configuration(tuple(tuple(r) for r in mat))
    with pytest.raises(TooLarge):
        find_symmetries(config)


def test_group_axioms_exact(square_entry):
    group = find_symmetries(square_entry.config)
    elements = list(group)
    keys = {(s.t_matrix, s.perm) for s in elements}
    ident = identity_symmetry(square_entry.config)
    assert (ident.t_matrix, ident.perm) in keys
    for s in elements:
        inv = inverse(s)
        assert (inv.t_matrix, inv.perm) in keys
        assert compose(s, inv).is_identity
        for t in elements:
            c = compose(s, t)
            assert (c.t_matrix, c.perm) in keys


def test_det_sign_homomorphism(square_entry):
    group = find_symmetries(square_entry.config)
    for s in group:
        assert s.det_sign == round(np.linalg.det(np.array(s.t_matrix, dtype=float)))
        for t in group:
            assert compose(s, t).det_sign == s.det_sign * t.det_sign


def test_xi_fixed_by_every_symmetry():
    for name in ("quadric", "square", "lauricella_fc(2)"):
        config = catalog(name).config
        xi = np.array(config.xi)
        for sym in find_symmetries(config):
            assert (xi @ np.array(sym.t_matrix) == xi).all()


def test_ta_equals_ap_exact(square_entry):
    a = np.array(square_entry.config.matrix)
    for sym in find_symmetries(square_entry.config):
        p = np.array(permutation_matrix(sym.perm))
        assert (np.array(sym.t_matrix) @ a == a @ p).all()


def test_composition_orientation(square_entry):
    """Pin the side convention: applying compose(s1, s2) must equal
    applying s2 first, then s1, on the (beta, x) action."""
    config = square_entry.config
    s1 = solve_T_for_permutation(config, (0, 2, 1, 3))
    s2 = solve_T_for_permutation(config, (2, 3, 0, 1))
    c = compose(s1, s2)
    beta = np.array([5, 7, 11])
    one_then_other = np.array(s1.t_matrix) @ (np.array(s2.t_matrix) @ beta)
    assert (np.array(c.t_matrix) @ beta == one_then_other).all()
    x = list(range(1, 5))
    def act(perm, vec):
        return tuple(vec[perm[j]] for j in range(len(vec)))
    assert act(c.perm, x) == act(s2.perm, act(s1.perm, x))


def test_compose_config_mismatch(square_entry, quadric_entry):
    s = identity_symmetry(square_entry.config)
    t = identity_symmetry(quadric_entry.config)
    with pytest.raises(ConfigMismatch):
        compose(s, t)


def test_involutions(square_entry):
    s2 = solve_T_for_permutation(square_entry.config, (2, 3, 0, 1))
    assert compose(s2, s2).is_identity
    assert inverse(s2).t_matrix == s2.t_matrix


def test_order_four_element(square_entry):
    s1 = solve_T_for_permutation(square_entry.config, (0, 2, 1, 3))
    s2 = solve_T_for_permutation(square_entry.config, (2, 3, 0, 1))
    c = compose(s1, s2)
    power, order = c, 1
    while not power.is_identity:
        power = compose(power, c)
        order += 1
        assert order <= 8
    assert order == 4


def test_verify_symmetry_f4_pair():
    config = catalog("appell_f4").config
    p = permutation_matrix(F4_PERM)
    assert verify_symmetry(config, F4_T, p)


def test_verify_symmetry_rejects(quadric_entry):
    ident = ((1, 0), (0, 1))
    p_swap = permutation_matrix((1, 0, 2))
    assert not verify_symmetry(quadric_entry.config, ident, p_swap)
    p_id = permutation_matrix((0, 1, 2))
    assert verify_symmetry(quadric_entry.config, ident, p_id)


def test_f4_symmetry_is_involution():
    config = catalog("appell_f4").config
    sym = solve_T_for_permutation(config, F4_PERM)
    assert sym is not None and sym.t_matrix == F4_T
    assert compose(sym, sym).is_identity


def test_group_json_shape(square_entry):
    group = find_symmetries(square_entry.config)
    doc = group.to_json()
    assert doc["order"] == 8 and len(doc["elements"]) == 8
    for el in doc["elements"]:
        assert set(el) >= {"T", "perm", "det"}
        assert sorted(el["perm"]) == [1, 2, 3, 4]


def test_fc4_group_order():
    config = catalog("lauricella_fc(4)").config
    group = find_symmetries(config)
    assert group.order == 3840
    assert all(verify_symmetry(config, s.t_matrix, s.perm) for s in group)


@pytest.mark.parametrize("name", ["appell_f4", "pfq(2)"])
def test_search_matches_brute_force(name):
    config = catalog(name).config
    group = find_symmetries(config)
    assert {s.perm for s in group} == {s.perm for s in brute_force_group(config)}


def closure(perms):
    """Every product of the given permutations, by breadth-first search."""
    seen = {tuple(range(len(perms[0])))}
    frontier = list(seen)
    while frontier:
        products = {tuple(g[j] for j in h) for g in frontier for h in perms}
        frontier = [p for p in products if p not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("name", ["square", "appell_f4", "pfq(3)", "lauricella_fc(3)"])
def test_generators_are_the_greedy_choice(name):
    # each sorted element outside the closure of the earlier choices
    group = find_symmetries(catalog(name).config)
    chosen, generated = [], {tuple(range(group.config.n))}
    for e in group.elements:
        if e.perm not in generated:
            chosen.append(e.perm)
            generated = closure(chosen)
    assert [g.perm for g in group.generators] == chosen


def random_unimodular(rng, d):
    """Product of seeded elementary row operations: adds, swaps, negations."""
    u = np.eye(d, dtype=object)
    for _ in range(3 * d):
        i, j = rng.choice(d, size=2, replace=False) if d > 1 else (0, 0)
        kind = rng.integers(3)
        if kind == 0 and d > 1:
            u[i] += int(rng.integers(-2, 3)) * u[j]
        elif kind == 1:
            u[[i, j]] = u[[j, i]]
        else:
            u[i] = -u[i]
    return u


def re_embedded(rng, matrix):
    """U.A with its columns shuffled, for a seeded unimodular U."""
    a = np.array(matrix, dtype=object)
    u = random_unimodular(rng, a.shape[0])
    moved = u.dot(a)[:, rng.permutation(a.shape[1])]
    return tuple(tuple(int(v) for v in row) for row in moved)


def reference_two_block_form(config):
    """to_standard_form(config, 2) with one solve_unique per column subset."""
    n, d = config.n, config.d
    if d < 2:
        raise NoSuchBlockStructure("m = 2 outside 1..d")
    cols = config.columns
    idx = lattice.pivot_columns(config.matrix)
    sub = tuple(cols[j] for j in idx)
    candidates = {}
    for bits in range(1, 2**n - 1):
        subset = frozenset(j for j in range(n) if bits >> j & 1)
        sol = lattice.solve_unique(sub, tuple(int(j in subset) for j in idx))
        if any(f.denominator != 1 for f in sol):
            continue
        row = tuple(int(f) for f in sol)
        if all(sum(r * c for r, c in zip(row, cols[j])) == int(j in subset)
               for j in range(n)):
            candidates[subset] = row
    partition = _partition_from_candidates(candidates, n, 2)
    if partition is None:
        raise NoSuchBlockStructure("no partition")
    u = lattice.unimodular_completion([candidates[frozenset(b)] for b in partition], d)
    if u is None:
        raise NoSuchBlockStructure("no completion")
    return standard_form(config, u, 2)


def outcome(fn, *args):
    try:
        return fn(*args)
    except GkzError as exc:
        return type(exc)


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if catalog(n).config.n <= 8])
def test_re_embedding_keeps_order_and_two_block_form(name):
    rng = np.random.default_rng(2014)
    config = catalog(name).config
    order = outcome(lambda c: find_symmetries(c).order, config)
    for _ in range(3):
        moved = validate_configuration(re_embedded(rng, config.matrix), name=name)
        assert outcome(lambda c: find_symmetries(c).order, moved) == order
        want = outcome(reference_two_block_form, moved)
        assert outcome(to_standard_form, moved, 2) == want
