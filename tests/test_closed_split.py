"""Z(A), K(A), T_n and T_n^perp computed on the closed basis words, against
the d-dimensional references of oracles.py."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import CATALOGUE, make_table
from kuls import (build_table, canonical_form, center, commutator_space, complete,
                  consistent_form, kuelshammer_space, orthogonal, parse_presentation,
                  reynolds_ideal, reynolds_sequence)
from kuls.errors import InvariantViolation, KulsError, NotSymmetric
from kuls.sparse import Sparse
from kuls.structure import closed_algebra, closed_words, multiply, power
from oracles import (all_pairs_center, all_pairs_commutator_space, dense_consistent_psi,
                     dense_reference_table, dense_reynolds_report, dense_table,
                     direct_kuelshammer_space)
from test_reynolds import TWISTED

FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]

# loops x and y, parallel arrows a and b, and a vertex w that only the open
# words c, g and g*y touch; not symmetric (its socles differ)
HAND = """algebra h over GF(3) {
  vertices u, v, w;
  arrows { x: u -> u; y: v -> v; a: u -> v; b: u -> v; c: u -> w; g: w -> v; }
  relations { x*x*x; y*y; x*a = a*y; x*b = 2*b*y; c*g = a*y + b*y; x*c; }
}"""


def _form(at):
    """The 0/1 socle form, else the solved one, else None (not symmetric)."""
    try:
        return canonical_form(at)
    except NotSymmetric:
        try:
            return consistent_form(at)
        except NotSymmetric:
            return None


def _assert_matches_references(at):
    assert center(at) == all_pairs_center(at)
    assert commutator_space(at) == all_pairs_commutator_space(at)
    spaces = [kuelshammer_space(at, n) for n in range(5)]
    assert spaces == [direct_kuelshammer_space(at, n) for n in range(5)]
    f = _form(at)
    if f is None:
        return False
    report = reynolds_sequence(at, f)
    assert report == dense_reynolds_report(at, f)
    for n in range(len(report.rows)):
        assert reynolds_ideal(at, f, n) == orthogonal(f, spaces[min(n, 4)])
    return True


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_closed_split_matches_the_dense_references(name, params, gf):
    at = make_table(name, gf=gf, **params)
    assert 0 < len(closed_words(at)) < at.dim
    _assert_matches_references(at)


@pytest.mark.parametrize("source", TWISTED, ids=["s", "m"])
def test_closed_split_takes_pth_roots_off_the_prime_field(source):
    at = build_table(complete(parse_presentation(source)))
    assert len(closed_words(at)) == at.dim  # one vertex: every word is closed
    _assert_matches_references(at)


def test_closed_split_on_a_quiver_with_loops_parallel_arrows_and_open_words():
    at = build_table(complete(parse_presentation(HAND)))
    assert [at.word_name(i) for i in closed_words(at)] == ["e_u", "e_v", "e_w", "x", "y", "x*x"]
    assert not _assert_matches_references(at)
    assert [kuelshammer_space(at, n).dim for n in range(3)] == [7, 10, 10]


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_consistent_form_solves_the_same_psi_on_closed_words(name, params, gf):
    at = make_table(name, gf=gf, **params)
    try:
        want = dense_consistent_psi(at)
    except KulsError as exc:
        with pytest.raises(type(exc)):
            consistent_form(at)
        return
    assert np.array_equal(consistent_form(at).psi, want)


def test_consistent_form_rejects_an_open_socle_word():
    # every product of two arrows is 0, so the socle is spanned by the words
    # a, b and x; the open a and b lie in K(A), so psi cannot be 1 on them
    at = build_table(complete(parse_presentation(
        "algebra o over GF(2) { vertices v, w; arrows { a: v -> w; b: w -> v; x: v -> v; }"
        " relations { a*b; b*a; x*x; x*a; b*x; } }")))
    assert [at.word_name(i) for i in closed_words(at)] == ["e_v", "e_w", "x"]
    for solve in (dense_consistent_psi, consistent_form):
        with pytest.raises(NotSymmetric):
            solve(at)


def _assert_cut_multiplies_like_the_table(at, seed):
    """Products and p-th powers in closed_algebra(at) against the d-wide ones
    of random elements of C, read back on the closed coordinates."""
    closed, cut, gf = closed_words(at), closed_algebra(at), at.gf
    assert cut.dim == len(closed) and np.array_equal(cut.unit, at.unit[closed])
    rng = np.random.default_rng(seed)
    x, y = (rng.integers(0, gf.q, size=(8, cut.dim)) for _ in range(2))
    lx, ly = (np.zeros((8, at.dim), dtype=np.int64) for _ in range(2))
    lx[:, closed], ly[:, closed] = x, y
    wide = multiply(at, lx, ly)
    assert not wide[:, np.setdiff1d(np.arange(at.dim), closed)].any()  # C is a subalgebra
    assert np.array_equal(multiply(cut, x, y), wide[:, closed])
    for k in (gf.p, gf.p ** 2 + 1):
        assert np.array_equal(power(cut, x, k), power(at, lx, k)[:, closed])


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_cut_table_multiplies_like_the_table_on_closed_elements(name, params, gf):
    _assert_cut_multiplies_like_the_table(make_table(name, gf=gf, **params), seed=7)


@pytest.mark.parametrize("source", TWISTED + [HAND], ids=["s", "m", "hand"])
def test_cut_table_multiplies_like_the_table_on_hand_made_algebras(source):
    _assert_cut_multiplies_like_the_table(build_table(complete(parse_presentation(source))),
                                          seed=11)


def test_cut_rejects_a_closed_product_landing_on_an_open_word():
    at = build_table(complete(parse_presentation(HAND)))
    f = at.folded
    j, k = np.divmod(f.rows, at.folded_rows.size)
    e = int(np.flatnonzero((at.folded_rows[k] == 3) & (j == 3))[0])  # the entry of x times x
    assert at.word_name(int(f.indices[e])) == "x*x" and at.word_name(7) == "c"  # c is open
    indices = f.indices.copy()
    indices[e] = 7
    bad = dataclasses.replace(at, folded=Sparse(f.shape, f.rows, indices, f.data))
    with pytest.raises(InvariantViolation, match="not closed"):
        closed_algebra(bad)


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_generator_block_left_rows_cut_and_full_fold_match_the_reference(name, params, gf):
    """R, L, C and the full table folded on first use against the products
    rewritten one pair at a time: ref[i, j, m] is the b_m coefficient of
    b_i * b_j."""
    at = make_table(name, gf=gf, **params)
    d, g, ref = at.dim, at.generators, dense_reference_table(at.rs)
    for got, want in ((at.right, ref[:, :g].transpose(1, 0, 2)),  # row s*d + i: b_i * b_s
                      (at.left, ref[:g].transpose(1, 0, 2))):  # row j*g + s: b_s * b_j
        dense = np.zeros(got.shape, dtype=np.int64)
        dense[got.rows, got.indices] = got.data
        assert np.array_equal(dense, want.reshape(got.shape))
    closed = closed_words(at)
    assert np.array_equal(dense_table(closed_algebra(at)), ref[np.ix_(closed, closed, closed)])
    assert np.array_equal(dense_table(at), ref)
