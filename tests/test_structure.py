"""Radical, socle, center, and commutator spans on frozen family instances."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import CATALOGUE, make_table
from kuls import center, commutator_space, parse_presentation, radical, socle
from kuls import GF, FamilySpec, build_table, complete, family, linalg, structure
from kuls.errors import DimensionMismatch, NotNilpotent
from kuls.linalg import contains, contains_subspace
from kuls.sparse import from_entries
from kuls.structure import closed_center, closed_socle_center, lift, multiply, power
from test_closed_split import FIELDS, HAND
from test_form import OFF_WORDS
from test_reynolds import TWISTED
from oracles import (all_pairs_center, all_pairs_commutator_space, all_pairs_socles, dense_table,
                     intersect, left_mult_matrix, reference_radical, right_mult_matrix,
                     subspace_sum, table_from_dense)


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


POWER_FIELDS = [(2, 1), (3, 1), (2, 2)]


@pytest.mark.parametrize("field", POWER_FIELDS, ids=lambda f: f"GF{f[0]}^{f[1]}")
def test_power_matches_repeated_multiply(field):
    at = make_table("Omega", gf=field, n=2)
    x = np.random.default_rng(5).integers(0, at.gf.q, size=(4, at.dim))
    chain = np.broadcast_to(at.unit, x.shape)
    for k in range(10):
        assert np.array_equal(power(at, x, k), chain), k
        assert np.array_equal(power(at, x[0], k), chain[0]), k
        chain = multiply(at, chain, x)


def test_power_returns_a_fresh_array():
    at = make_table("Omega", n=2)
    x = at.normal_form("e_c + a1")
    kept = x.copy()
    for k in (0, 1, 2):
        out = power(at, x, k)
        assert out is not x
        out[:] = 1
        assert np.array_equal(x, kept)


@pytest.mark.parametrize("field", POWER_FIELDS, ids=lambda f: f"GF{f[0]}^{f[1]}")
def test_power_takes_one_product_per_bit_past_the_lowest(field, monkeypatch):
    at = make_table("Omega", gf=field, n=2)
    x = np.random.default_rng(6).integers(0, at.gf.q, size=(3, at.dim))
    calls = []

    def spy(*args):
        calls.append(1)
        return multiply(*args)

    monkeypatch.setattr(structure, "multiply", spy)
    for k in range(1, 20):
        calls.clear()
        power(at, x, k)
        assert len(calls) == k.bit_length() + bin(k).count("1") - 2, k
    p = at.gf.p
    for n in range(4):
        calls.clear()
        power(at, x, p ** n)
        if p == 2:
            assert len(calls) == n  # x**(2**n) is n squarings, with no product by the unit


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
    bad_table = dense_table(at)
    bad_table[1, 1, 0] = 1  # g*g = e_v instead of 0
    bad = table_from_dense(at, bad_table)
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


@pytest.mark.parametrize("gf", [(2, 1), (3, 1), (2, 2), (3, 2)], ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_commutator_space_from_generators_matches_all_pairs(name, params, gf):
    at = make_table(name, gf=gf, **params)
    assert commutator_space(at) == all_pairs_commutator_space(at)


def _closed_spaces_match_all_pairs(at):
    """Z, K and soc cap Z from the peeled closed systems, against the oracles
    over all d**2 basis pairs."""
    z = all_pairs_center(at)
    assert lift(at, closed_center(at)) == z
    assert commutator_space(at) == all_pairs_commutator_space(at)
    assert lift(at, closed_socle_center(at)) == intersect(all_pairs_socles(at)[0], z)


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_center_and_socles_from_generators_match_all_pairs(name, params, gf):
    at = make_table(name, gf=gf, **params)
    s = socle(at)
    assert center(at) == all_pairs_center(at)
    assert (s.right, s.left) == all_pairs_socles(at)
    assert radical(at) == reference_radical(at)  # the proof socle rests on, against the d-wide loop
    _closed_spaces_match_all_pairs(at)


def test_stacked_products_match_row_by_row():
    for field in [(3, 2), (3, 1)]:
        at = make_table("Omega", gf=field, n=2)
        gf, rng = at.gf, np.random.default_rng(7)
        x = rng.integers(0, gf.q, size=(5, at.dim))
        y = rng.integers(0, gf.q, size=(5, at.dim))
        prods, table = multiply(at, x, y), dense_table(at)
        assert np.array_equal(prods, [multiply(at, a, b) for a, b in zip(x, y)])
        for a, b, got in zip(x, y, prods):  # sum of a_i b_j (b_i b_j) straight from the table
            want = np.zeros(at.dim, dtype=np.int64)
            for i, j in np.ndindex(at.dim, at.dim):
                want = gf.add(want, gf.mul(gf.smul(int(a[i]), int(b[j])), table[i, j]))
            assert np.array_equal(got, want)
        assert np.array_equal(power(at, x, 9), [power(at, a, 9) for a in x])
        assert np.array_equal(left_mult_matrix(at, x), [left_mult_matrix(at, a) for a in x])
        with pytest.raises(DimensionMismatch):
            multiply(at, x, y[:3])


def test_structure_spaces_are_computed_once_and_read_only():
    at = make_table("Omega", n=2)
    spaces = [center(at), commutator_space(at), socle(at).right, socle(at).left,
              closed_socle_center(at)]
    assert center(at) is spaces[0]
    assert commutator_space(at) is spaces[1]
    assert socle(at) is socle(at)
    assert closed_socle_center(at) is spaces[4]
    assert lift(at, spaces[4]) == intersect(socle(at).right, center(at))
    for space in spaces:
        assert not space.basis.flags.writeable
        with pytest.raises(ValueError):
            space.basis[0, 0] = 1
    for part in (at.table.rows, at.table.indices, at.table.data):
        assert not part.flags.writeable


def test_table_over_a_corrupted_copy_gets_fresh_spaces():
    # as in test_radical_rejects_group_like_tables: K[g]/(g**2) turned into K[Z/2]
    at = build_table(complete(parse_presentation(
        "algebra c2 over GF(2) {\n  vertices v;\n  arrows { g: v -> v; }\n"
        "  relations { g*g; }\n}\n")))
    soc = socle(at)
    bad_table = dense_table(at)
    bad_table[1, 1, 0] = 1
    bad = table_from_dense(at, bad_table)
    assert bad.cache == {} and bad.cache is not at.cache
    assert soc.right.dim == 1
    with pytest.raises(NotNilpotent):  # J = span(g) is not nilpotent: g is a unit of K[Z/2]
        socle(bad)
    assert socle(at) is soc
    assert center(bad) is not center(at)
    assert commutator_space(bad) is not commutator_space(at)
    assert closed_socle_center(bad) is not closed_socle_center(at)


def test_commutator_space_reduces_only_the_nonzero_generator_rows(monkeypatch):
    """pi(K(A)) comes from the commutator rows (a, x), a one of the 9 arrows,
    on the 18 closed outputs: 10 of them are nonzero (against 17 * 88 dense
    rows of width 88 over all generators), the peel leaves 8 of those on 8
    columns, and only they reach row_space."""
    at = make_table("Omega", n=8)
    assert len(structure.closed_words(at)) == 18 and len(at.arrow_indices) == 9
    a, x, m, c = structure._actions(at)  # [b_x, b_a]: right action minus left action
    pos, c = structure.closed_positions(at)[m], np.where(a < 9, c, at.gf.neg(c))
    e = pos >= 0
    system = from_entries(at.gf, (9 * at.dim, 18), a[e] % 9 * at.dim + x[e], pos[e], c[e])
    nonzero = len(set(system.rows.tolist()))
    assert nonzero == 10
    residual, seen = [], []
    real_row_space, real_reduce_mod = structure.row_space, linalg.reduce_mod

    def row_space_spy(gf, rows, n=None):
        residual.append(rows.shape)
        return real_row_space(gf, rows, n)

    def reduce_mod_spy(s, v):
        seen.append(len(v))
        return real_reduce_mod(s, v)

    monkeypatch.setattr(structure, "row_space", row_space_spy)
    monkeypatch.setattr(linalg, "reduce_mod", reduce_mod_spy)
    k = structure.commutator_space.__wrapped__(at)  # past the per-table cache
    assert residual == [(8, 8)]
    assert 0 < sum(seen) <= residual[0][0] <= nonzero
    assert k == all_pairs_commutator_space(at)


NO_ARROWS = "algebra k over GF(2) { vertices v; arrows { } relations { } }"
ONE_ARROW = "algebra a2 over GF(3) { vertices v, w; arrows { a: v -> w; } relations { } }"


@pytest.mark.parametrize("source", [OFF_WORDS, HAND, *TWISTED, NO_ARROWS, ONE_ARROW],
                         ids=["off_words", "hand", "twisted_s", "twisted_m", "no_arrows",
                              "one_arrow"])
def test_peeled_socles_match_all_pairs(source, monkeypatch):
    """Peeling gives the all-pairs socles off the catalogue too: on OFF_WORDS
    (socle a - b and a*a, not spanned by words) rows are left after peeling
    and go to kernel; with no arrows the socle is A; over a single arrow
    v -> w the two socles differ.  Z, K and soc cap Z match as well."""
    at = build_table(complete(parse_presentation(source)))
    residual = []
    real_kernel = structure.kernel

    def spy(gf, m, n=None):
        residual.append(len(m))
        return real_kernel(gf, m, n)

    monkeypatch.setattr(structure, "kernel", spy)
    s = socle(at)
    assert (s.right, s.left) == all_pairs_socles(at)
    if source == OFF_WORDS:
        assert max(residual) > 0
        assert np.count_nonzero(s.right.basis, axis=1).tolist() == [2, 1]
    if source == NO_ARROWS:
        assert s.right.dim == s.left.dim == at.dim == 1
    if source == ONE_ARROW:
        assert s.right != s.left
    _closed_spaces_match_all_pairs(at)


@pytest.mark.parametrize("space,at,rows", [
    ("closed_center", lambda: make_table("Omega", n=3), 3),
    ("commutator_space", lambda: make_table("Omega", n=3), 3),
    ("closed_center", lambda: make_table("Tstar", r=3), 9),
    ("commutator_space", lambda: make_table("Tstar", r=3), 9),
    ("closed_socle_center", lambda: build_table(complete(parse_presentation(OFF_WORDS))), 4),
], ids=["Z-Omega3", "K-Omega3", "Z-Tstar3", "K-Tstar3", "socZ-off_words"])
def test_closed_spaces_solve_the_rows_left_after_peeling(space, at, rows, monkeypatch):
    """Peeling does not solve Z, K or soc cap Z alone: rows are left for the
    residual kernel or row space on these algebras, and the result still
    matches the all-pairs oracles."""
    at, residual = at(), []
    for name in ("kernel", "row_space"):
        def spy(gf, m, n=None, real=getattr(structure, name)):
            residual.append(len(m))
            return real(gf, m, n)
        monkeypatch.setattr(structure, name, spy)
    getattr(structure, space).__wrapped__(at)  # past the per-table cache
    assert residual == [rows]
    monkeypatch.undo()
    _closed_spaces_match_all_pairs(at)


def test_socle_allocates_nothing_of_d_squared_size():
    """At Omega(40) (d = 1720) both socles come from peeling the arrow
    entries, and the traced peak stays below one d x d int64 array."""
    at = build_table(complete(family(FamilySpec("Omega", {"n": 40}, GF(2))), degree_bound=100))
    tracemalloc.start()
    try:
        s = socle(at)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at.dim == 1720 and s.two_sided_equal
    assert peak < at.dim * at.dim * 8  # 23.7 MB
