"""Radical, socle, center, and commutator spans on frozen family instances."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import make_table
from kuls import center, commutator_space, parse_presentation, radical, socle
from kuls import build_table, complete
from kuls.errors import DimensionMismatch, NotNilpotent
from kuls.linalg import contains, contains_subspace, intersect, subspace_sum
from kuls.rewriting import AlgebraTable
from kuls.structure import left_mult_matrix, multiply, power, right_mult_matrix
from oracles import all_pairs_commutator_space


@pytest.mark.parametrize("name,params,dims", [
    # (dim, dim Z, dim K, dim soc) over GF(2)
    ("Omega", {"n": 2}, (10, 4, 6, 2)),
    ("A", {"p": 1, "q": 2}, (10, 4, 6, 2)),
    ("D", {"m": 2}, (10, 4, 6, 2)),
    ("Dprime", {"m": 2}, (10, 4, 6, 2)),
    ("Gamma", {"n": 1}, (11, 5, 6, 3)),
    ("Lambda", {"m": 2}, (11, 5, 6, 2)),
    ("Tpqr", {"p": 2, "q": 2, "r": 2}, (14, 5, 9, 4)),
    ("Tpq", {"p": 1, "q": 1}, (8, 3, 5, 2)),
    ("Tstar", {"r": 2}, (18, 6, 12, 5)),
    ("N", {"n": 2, "m": 1}, (6, 3, 3, 2)),
])
def test_frozen_subspace_dimensions(name, params, dims):
    at = make_table(name, **params)
    s = socle(at)
    assert (at.dim, center(at).dim, commutator_space(at).dim, s.right.dim) == dims
    assert s.two_sided_equal


def test_multiply_and_power():
    at = make_table("Omega", n=2)
    a1 = at.normal_form("a1")
    b1 = at.normal_form("b1")
    assert np.array_equal(multiply(at, a1, b1), at.normal_form("a1*b1"))
    assert np.array_equal(multiply(at, b1, a1), np.zeros(at.dim, dtype=np.int64))
    assert np.array_equal(power(at, a1, 2), at.normal_form("a1*a1"))
    assert np.array_equal(power(at, a1, 3), np.zeros(at.dim, dtype=np.int64))
    assert np.array_equal(power(at, a1, 0), at.unit)
    assert np.array_equal(multiply(at, at.unit, b1), b1)
    with pytest.raises(ValueError):
        power(at, a1, -1)
    with pytest.raises(DimensionMismatch):
        multiply(at, a1, np.zeros(3, dtype=np.int64))


def test_mult_matrices_agree_with_multiply():
    at = make_table("D", m=2)
    x = at.normal_form("a1 + b2*a1")
    y = at.normal_form("b1 + a1*a1")
    gf = at.gf
    left = gf.matmul(y.reshape(1, -1), left_mult_matrix(at, x)).ravel()
    right = gf.matmul(y.reshape(1, -1), right_mult_matrix(at, x)).ravel()
    assert np.array_equal(left, multiply(at, x, y))
    assert np.array_equal(right, multiply(at, y, x))


def test_radical_is_span_of_positive_length_words():
    at = make_table("Gamma", n=1)
    rad = radical(at)
    assert rad.dim == at.dim - len(at.quiver.vertices)
    for i, w in enumerate(at.basis):
        v = np.eye(at.dim, dtype=np.int64)[i]
        assert contains(rad, v) == bool(w.arrows)
    assert not contains(rad, at.unit)


def test_radical_rejects_group_like_tables():
    # turn K[a]/(a**2) into the group algebra K[Z/2] by hand: g*g = e
    at = build_table(complete(parse_presentation(
        "algebra c2 over GF(2) {\n  vertices v;\n  arrows { g: v -> v; }\n"
        "  relations { g*g; }\n}\n")))
    bad_table = at.table.copy()
    bad_table[1, 1, 0] = 1  # g*g = e_v instead of 0
    bad = AlgebraTable(at.rs, at.basis, at.index, bad_table,
                       at.trivial_indices, at.unit)
    with pytest.raises(NotNilpotent):
        radical(bad)


def test_center_contains_unit_but_not_idempotent_pieces():
    at = make_table("Omega", n=2)
    z = center(at)
    assert contains(z, at.unit)
    e_c = at.normal_form("e_c")
    a1 = at.normal_form("a1")
    assert not contains(z, e_c)  # e_c*b1 = b1 but b1*e_c = 0
    assert not contains(z, a1)   # a1*b1 is nonzero, b1*a1 is not composable
    assert contains(z, at.normal_form("a1*a1"))
    # central elements commute with everything, checked by brute force
    eye = np.eye(at.dim, dtype=np.int64)
    for v in z.basis:
        for i in range(at.dim):
            assert np.array_equal(multiply(at, v, eye[i]), multiply(at, eye[i], v))


def test_commutator_space_membership():
    at = make_table("Omega", n=2)
    k = commutator_space(at)
    a1 = at.normal_form("a1")
    b1 = at.normal_form("b1")
    lie = at.gf.sub(multiply(at, a1, b1), multiply(at, b1, a1))
    assert contains(k, lie)
    assert contains(k, at.normal_form("a1*b1"))
    assert not contains(k, a1)
    # K(A) never meets the unit line for these algebras
    assert not contains(k, at.unit)


def test_socle_is_a_two_sided_ideal_inside_the_radical():
    at = make_table("Tpqr", p=2, q=2, r=2)
    s = socle(at)
    rad = radical(at)
    assert contains_subspace(rad, s.right)
    eye = np.eye(at.dim, dtype=np.int64)
    for v in s.right.basis:
        for i in range(at.dim):
            assert contains(s.right, multiply(at, v, eye[i]))
            assert contains(s.right, multiply(at, eye[i], v))


def test_one_sided_socles_differ_for_non_symmetric_algebras():
    at = build_table(complete(parse_presentation(
        "algebra a2 over GF(2) {\n  vertices v, w;\n"
        "  arrows { a: v -> w; }\n  relations { }\n}\n")))
    s = socle(at)
    assert not s.two_sided_equal
    # right socle kills e_v (e_v*a = a != 0), left socle kills e_w
    assert contains(s.right, at.normal_form("e_w"))
    assert not contains(s.right, at.normal_form("e_v"))
    assert contains(s.left, at.normal_form("e_v"))
    assert not contains(s.left, at.normal_form("e_w"))
    assert contains(s.right, at.normal_form("a"))
    assert contains(s.left, at.normal_form("a"))


def test_lattice_relations_between_subspaces():
    at = make_table("Lambda", m=2)
    z = center(at)
    k = commutator_space(at)
    s = socle(at)
    assert intersect(z, k).dim < min(z.dim, k.dim)
    assert subspace_sum(z, k).dim == z.dim + k.dim - intersect(z, k).dim
    assert contains_subspace(z, intersect(s.right, z))


CATALOGUE = [
    ("Omega", {"n": 2}),
    ("A", {"p": 1, "q": 2}),
    ("D", {"m": 2}),
    ("Dprime", {"m": 2}),
    ("Gamma", {"n": 1}),
    ("Lambda", {"m": 2}),
    ("Tpqr", {"p": 2, "q": 2, "r": 2}),
    ("Tpq", {"p": 1, "q": 1}),
    ("Tstar", {"r": 2}),
    ("N", {"n": 2, "m": 1}),
]


@pytest.mark.parametrize("gf", [(2, 1), (3, 1), (2, 2), (3, 2)], ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_commutator_space_from_generators_matches_all_pairs(name, params, gf):
    at = make_table(name, gf=gf, **params)
    assert commutator_space(at) == all_pairs_commutator_space(at)


def test_stacked_products_match_row_by_row():
    for field in [(3, 2), (3, 1)]:
        at = make_table("Omega", gf=field, n=2)
        gf, rng = at.gf, np.random.default_rng(7)
        x = rng.integers(0, gf.q, size=(5, at.dim))
        y = rng.integers(0, gf.q, size=(5, at.dim))
        prods = multiply(at, x, y)
        assert np.array_equal(prods, [multiply(at, a, b) for a, b in zip(x, y)])
        for a, b, got in zip(x, y, prods):  # sum of a_i b_j (b_i b_j) straight from the table
            want = np.zeros(at.dim, dtype=np.int64)
            for i, j in np.ndindex(at.dim, at.dim):
                want = gf.add(want, gf.mul(gf.smul(int(a[i]), int(b[j])), at.table[i, j]))
            assert np.array_equal(got, want)
        assert np.array_equal(power(at, x, 9), [power(at, a, 9) for a in x])
        assert np.array_equal(left_mult_matrix(at, x), [left_mult_matrix(at, a) for a in x])
        with pytest.raises(DimensionMismatch):
            multiply(at, x, y[:3])


def test_structure_spaces_are_computed_once_and_read_only():
    at = make_table("Omega", n=2)
    spaces = [center(at), commutator_space(at), socle(at).right, socle(at).left]
    assert center(at) is spaces[0]
    assert commutator_space(at) is spaces[1]
    assert socle(at) is socle(at)
    for space in spaces:
        assert not space.basis.flags.writeable
        with pytest.raises(ValueError):
            space.basis[0, 0] = 1
    assert not at.table.flags.writeable


def test_table_over_a_corrupted_copy_gets_fresh_spaces():
    # as in test_radical_rejects_group_like_tables: K[g]/(g**2) turned into K[Z/2]
    at = build_table(complete(parse_presentation(
        "algebra c2 over GF(2) {\n  vertices v;\n  arrows { g: v -> v; }\n"
        "  relations { g*g; }\n}\n")))
    soc = socle(at)
    bad_table = at.table.copy()
    bad_table[1, 1, 0] = 1
    bad = AlgebraTable(at.rs, at.basis, at.index, bad_table,
                       at.trivial_indices, at.unit)
    assert bad.cache == {} and bad.cache is not at.cache
    assert soc.right.dim == 1 and socle(bad).right.dim == 0  # g is a unit of K[Z/2]
    assert socle(at) is soc
    assert center(bad) is not center(at)
    assert commutator_space(bad) is not commutator_space(at)
