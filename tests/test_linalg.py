"""Subspace lattice operations checked against brute force over tiny fields."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from kuls import GF, Subspace, linalg
from kuls.errors import DimensionMismatch
from kuls.linalg import (
    contains,
    contains_subspace,
    kernel,
    reduce_mod,
    row_space,
    rref,
    zero_subspace,
)
from oracles import full_space, intersect, solve, subspace_sum

FIELDS = [GF(2), GF(3), GF(2, 2)]


def random_matrix(gf, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, gf.q, size=shape).astype(np.int64)


@pytest.mark.parametrize("gf", FIELDS, ids=repr)
def test_rref_is_idempotent_and_reduced(gf):
    for seed in range(8):
        m = random_matrix(gf, (4, 6), seed)
        r, pivots = rref(gf, m)
        again, pivots2 = rref(gf, r)
        assert np.array_equal(r, again)
        assert pivots == pivots2
        assert sorted(pivots) == list(pivots)
        for i, c in enumerate(pivots):
            col = r[:, c]
            assert col[i] == 1 and not np.any(np.delete(col, i))


@pytest.mark.parametrize("gf", FIELDS, ids=repr)
def test_rank_nullity(gf):
    for seed in range(8):
        m = random_matrix(gf, (4, 6), seed)
        rank = row_space(gf, m).dim
        null = kernel(gf, m)
        assert rank + null.dim == 6
        if null.dim:
            assert not np.any(gf.matmul(m, null.basis.T))


def test_row_space_and_kernel_hand_rref_at_most_2d_rows(monkeypatch):
    """A (17*d, d) input reaches rref in chunks: never more than 2*d rows at once."""
    gf, d = GF(3), 12
    rng = np.random.default_rng(0)
    m = rng.integers(1, 3, size=(17 * d, d)) * (rng.random((17 * d, d)) < 0.05)
    seen = []
    real_rref = linalg.rref

    def spy(gf, a, *rest):
        seen.append(len(a))
        return real_rref(gf, a, *rest)

    monkeypatch.setattr(linalg, "rref", spy)
    span = row_space(gf, m)
    assert len(seen) > 2 and max(seen) <= 2 * d  # residues arrive in several chunks
    seen.clear()
    null = kernel(gf, m)
    assert len(seen) > 2 and max(seen) <= 2 * d
    assert span.dim + null.dim == d and not np.any(gf.matmul(m, null.basis.T))


def test_row_space_checks_the_width_of_an_empty_input():
    gf = GF(2)
    with pytest.raises(DimensionMismatch):
        row_space(gf, np.zeros((0, 5), dtype=np.int64), 3)
    with pytest.raises(DimensionMismatch):
        row_space(gf, np.ones((1, 5), dtype=np.int64), 3)
    assert row_space(gf, np.zeros((0, 3), dtype=np.int64), 3) == zero_subspace(gf, 3)


def test_subspace_equality_is_independent_of_generators():
    gf = GF(3)
    a = row_space(gf, np.array([[1, 2, 0], [0, 1, 1]]))
    b = row_space(gf, np.array([[1, 0, 1], [0, 2, 2], [1, 1, 2]]))  # same span
    assert a == b
    assert a != row_space(gf, np.array([[1, 0, 0], [0, 1, 0]]))
    assert a != "not a subspace"
    assert "dim=2" in repr(a)


def enumerate_vectors(s: Subspace):
    for coeffs in itertools.product(range(s.gf.q), repeat=s.dim):
        yield s.gf.matmul(np.array([coeffs], dtype=np.int64), s.basis)[0]


def test_intersect_matches_brute_force_over_gf2():
    gf = GF(2)
    for seed in range(10):
        a = row_space(gf, random_matrix(gf, (2, 4), seed))
        b = row_space(gf, random_matrix(gf, (3, 4), seed + 100))
        meet = intersect(a, b)
        both = {tuple(v) for v in enumerate_vectors(a)} & {tuple(v) for v in enumerate_vectors(b)}
        assert {tuple(v) for v in enumerate_vectors(meet)} == both


@pytest.mark.parametrize("gf", FIELDS, ids=repr)
def test_sum_and_intersection_dimension_formula(gf):
    for seed in range(8):
        a = row_space(gf, random_matrix(gf, (2, 5), seed))
        b = row_space(gf, random_matrix(gf, (3, 5), seed + 50))
        total = subspace_sum(a, b)
        meet = intersect(a, b)
        assert total.dim + meet.dim == a.dim + b.dim
        assert contains_subspace(total, a) and contains_subspace(total, b)
        assert contains_subspace(a, meet) and contains_subspace(b, meet)


def test_reduce_mod_and_contains():
    gf = GF(3)
    s = row_space(gf, np.array([[1, 0, 2], [0, 1, 1]]))
    inside = gf.matmul(np.array([[2, 1]], dtype=np.int64), s.basis)[0]
    assert contains(s, inside)
    assert not np.any(reduce_mod(s, inside))
    outside = np.array([0, 0, 1], dtype=np.int64)
    assert not contains(s, outside)
    batch = reduce_mod(s, np.vstack([inside, outside]))
    assert not np.any(batch[0]) and np.any(batch[1])
    with pytest.raises(DimensionMismatch):
        reduce_mod(s, np.array([1, 0]))


def test_zero_and_full_space():
    gf = GF(2)
    z = zero_subspace(gf, 4)
    f = full_space(gf, 4)
    assert z.dim == 0 and f.dim == 4
    assert contains_subspace(f, z)
    assert not contains_subspace(z, f)
    assert row_space(gf, np.zeros((3, 4), dtype=np.int64)) == z
    with pytest.raises(DimensionMismatch):
        intersect(z, zero_subspace(gf, 5))
    with pytest.raises(DimensionMismatch):
        intersect(f, full_space(GF(3), 4))


@pytest.mark.parametrize("gf", FIELDS, ids=repr)
def test_solve_roundtrip(gf):
    # a product of unitriangular matrices is always nonsingular
    lo = np.tril(random_matrix(gf, (4, 4), 3), -1) + np.eye(4, dtype=np.int64)
    hi = np.triu(random_matrix(gf, (4, 4), 4), 1) + np.eye(4, dtype=np.int64)
    a = gf.matmul(lo, hi)
    b = random_matrix(gf, (4,), 5)
    x = solve(gf, a, b)
    assert np.array_equal(gf.matmul(a, x.reshape(-1, 1)).ravel(), b)
    many = random_matrix(gf, (4, 2), 6)
    assert np.array_equal(gf.matmul(a, solve(gf, a, many)), many)
    singular = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(DimensionMismatch):
        solve(gf, singular, b)
