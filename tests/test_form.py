"""Symmetrizing forms: construction, validation, orthogonal complements."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import CATALOGUE, make_table
from kuls import (
    build_table,
    canonical_form,
    center,
    commutator_space,
    complete,
    consistent_form,
    custom_form,
    orthogonal,
    parse_presentation,
    socle,
)
from kuls import form, linalg
from kuls.errors import BadParameters, Degenerate, DimensionMismatch, NotSymmetric
from kuls.form import SymmetrizingForm, _build, _socle_word_indices
from kuls.linalg import reduce_mod, row_space, zero_subspace
from kuls.structure import multiply
from oracles import dense_gram, full_space
from test_cli import _spy


def test_canonical_form_on_omega2():
    at = make_table("Omega", n=2)
    f = canonical_form(at)
    assert f.psi.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 1]  # a1*a1 and b2*a1*b1
    gram = dense_gram(f)
    assert np.array_equal(gram, gram.T)
    assert gram[0, at.index[at.quiver.word("a1", "a1")]] == 1  # (e_c, a1*a1)


def test_form_is_associative_and_vanishes_on_commutators():
    at = make_table("Omega", n=2)
    f = canonical_form(at)
    gf = at.gf
    rng = np.random.default_rng(3)
    for _ in range(12):
        x, y, z = rng.integers(0, gf.q, size=(3, at.dim)).astype(np.int64)
        assert f.pair(x, y) == f.pair(y, x)
        assert f.pair(multiply(at, x, y), z) == f.pair(x, multiply(at, y, z))
        lie = gf.sub(multiply(at, x, y), multiply(at, y, x))
        assert f.pair(at.unit, lie) == 0  # psi kills commutators
    k = commutator_space(at)
    psi_on_k = gf.matmul(k.basis, f.psi.reshape(-1, 1))
    assert not np.any(psi_on_k)


def test_orthogonal_complements():
    at = make_table("Omega", n=2)
    f = canonical_form(at)
    z = center(at)
    k = commutator_space(at)
    assert orthogonal(f, k) == z  # K(A)^perp = Z(A) for symmetric algebras
    assert orthogonal(f, z) == k
    assert z.dim + k.dim == at.dim
    for s in (z, k, socle(at).right):
        assert orthogonal(f, orthogonal(f, s)) == s
        assert orthogonal(f, s).dim == at.dim - s.dim
    assert orthogonal(f, zero_subspace(at.gf, at.dim)) == full_space(at.gf, at.dim)
    assert orthogonal(f, full_space(at.gf, at.dim)).dim == 0
    with pytest.raises(DimensionMismatch):
        orthogonal(f, zero_subspace(at.gf, 3))


def test_socle_pairs_nondegenerately_with_the_top():
    at = make_table("A", p=1, q=2)
    f = canonical_form(at)
    s = socle(at).right
    # soc^perp has codimension dim soc, and soc pairs to zero with the radical square
    assert orthogonal(f, s).dim == at.dim - s.dim


def test_not_symmetric_witness_over_gf3():
    at = make_table("Omega", gf=(3, 1), n=1)
    with pytest.raises(NotSymmetric) as err:
        canonical_form(at)
    assert "(a1, b1) = 1 but (b1, a1) = 2" in str(err.value)
    i, j = err.value.witness
    assert {at.word_name(i), at.word_name(j)} == {"a1", "b1"}
    with pytest.raises(NotSymmetric) as err2:
        consistent_form(at)  # infeasible: no symmetrizing form exists at all
    assert "no symmetrizing form" in str(err2.value)


def test_consistent_form_rescues_twisted_loop_algebra():
    at = make_table("D", m=2)
    with pytest.raises(NotSymmetric):
        canonical_form(at)  # a commutator ties a1*a1 to the socle word b2*b1
    f = consistent_form(at)
    support = {at.word_name(i) for i, c in enumerate(f.psi) if c}
    assert support == {"a1*a1", "b2*b1", "a1*a1*a1"}
    k = commutator_space(at)
    assert not np.any(at.gf.matmul(k.basis, f.psi.reshape(-1, 1)))
    assert orthogonal(f, k) == center(at)


def test_consistent_form_matches_canonical_when_both_exist():
    at = make_table("Omega", n=2)
    assert consistent_form(at).psi.tolist() == canonical_form(at).psi.tolist()


def test_custom_form_paths():
    at = make_table("D", m=2)
    f = custom_form(at, {"a1*a1": 1, "b2*b1": 1, "a1*a1*a1": 1})
    assert f.psi.tolist() == consistent_form(at).psi.tolist()
    by_word = custom_form(at, {at.quiver.word("a1", "a1"): 1,
                               at.quiver.word("b2", "b1"): 1,
                               at.quiver.word("a1", "a1", "a1"): 1})
    assert by_word.psi.tolist() == f.psi.tolist()
    with pytest.raises(BadParameters):
        custom_form(at, {"zz": 1})
    with pytest.raises(BadParameters):
        custom_form(at, {at.quiver.word("b1", "b2"): 1})  # reduces to a1*a1, not a basis word
    with pytest.raises(BadParameters):
        custom_form(at, {"a1*a1": 2})  # 2 = 0 over GF(2)
    with pytest.raises(NotSymmetric):
        custom_form(at, {"a1*a1*a1": 1})  # canonical psi, known asymmetric here
    gf4 = make_table("Omega", gf=(2, 2), n=2)
    with pytest.raises(BadParameters):
        custom_form(gf4, {"a1*a1": 7, "b2*a1*b1": 1})  # 7 is not an encoded element


# every product of two arrows is a*a, so a - b lies in the socle beside a*a
OFF_WORDS = ("algebra ab over GF(3) { vertices v; arrows { a: v -> v; b: v -> v; }"
             " relations { a*b = a*a; b*a = a*a; b*b = a*a; a*a*a; } }")


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 3), (3, 2)], ids=["2", "3", "2^3", "3^2"])
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_socle_words_are_the_identity_rows_inside_the_socle(name, params, field):
    """The socle words read off the RREF are the e_k that reduce to 0 mod the socle."""
    at = make_table(name, gf=field, **params)
    s = socle(at)
    inside = np.flatnonzero(~reduce_mod(s.right, np.eye(at.dim, dtype=np.int64)).any(axis=1))
    if not s.two_sided_equal:
        with pytest.raises(NotSymmetric):
            _socle_word_indices(at)
    elif inside.size < s.right.dim:
        with pytest.raises(Degenerate):
            _socle_word_indices(at)
    else:
        assert _socle_word_indices(at) == inside.tolist()


def test_socle_off_the_basis_words_is_degenerate():
    at = build_table(complete(parse_presentation(OFF_WORDS)))
    s = socle(at)
    assert s.two_sided_equal
    assert np.count_nonzero(s.right.basis, axis=1).tolist() == [2, 1]  # a - b, then a*a
    for make in (canonical_form, consistent_form):
        with pytest.raises(Degenerate, match="not spanned by basis words"):
            make(at)


SQUARE_ZERO = ("algebra sz over GF(2) {\n  vertices v;\n"
               "  arrows { a: v -> v; b: v -> v; }\n"
               "  relations { a*a; a*b; b*a; b*b; }\n}\n")
DUAL = ("algebra k2 over GF(2) {\n  vertices v;\n  arrows { a: v -> v; }\n"
        "  relations { a*a; }\n}\n")


def test_degenerate_forms_are_rejected():
    square_zero = build_table(complete(parse_presentation(SQUARE_ZERO)))
    with pytest.raises(Degenerate) as err:
        canonical_form(square_zero)  # gram rows of a and b coincide
    assert err.value.kernel_vector is not None
    dual = build_table(complete(parse_presentation(DUAL)))
    with pytest.raises(Degenerate):
        custom_form(dual, {"e_v": 1})  # psi supported off the socle
    f = canonical_form(dual)  # psi(a) = 1 works: gram [[0,1],[1,0]]
    assert dense_gram(f).tolist() == [[0, 1], [1, 0]]


def _check_build_against_dense_gram(at, psi) -> tuple[bool, bool]:
    """_build's verdicts, witness, message and null vector against the dense
    Gram matrix of psi; returns (symmetric, nondegenerate) of the Gram."""
    gf, gram = at.gf, dense_gram(SymmetrizingForm(at, psi))
    symmetric, nondegenerate = np.array_equal(gram, gram.T), row_space(gf, gram).dim == at.dim
    null = form._null_vector(at, psi)  # checked apart from symmetry: all four cases occur
    assert (null is None) == nondegenerate
    if null is not None:
        assert null.any() and not gf.matmul(null.reshape(1, -1), gram).any()
    if not symmetric:
        i, j = (int(k) for k in np.argwhere(gram != gram.T)[0])
        with pytest.raises(NotSymmetric) as err:
            _build(at, psi)
        assert err.value.witness == (i, j)
        assert str(err.value) == (
            f"({at.word_name(i)}, {at.word_name(j)}) = {gram[i, j]} but "
            f"({at.word_name(j)}, {at.word_name(i)}) = {gram[j, i]}; "
            "the algebra is not symmetric for this psi")
    elif not nondegenerate:
        with pytest.raises(Degenerate) as err:
            _build(at, psi)
        assert not gf.matmul(gram, err.value.kernel_vector.reshape(-1, 1)).any()
    else:
        assert _build(at, psi).psi is psi
    return symmetric, nondegenerate


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)],
                         ids=["2", "3", "4", "8", "9"])
def test_build_matches_the_dense_gram(field):
    """The generator slab and the socle criterion give the dense Gram's verdicts:
    psi the socle words, random on all words, and random on the socle pivots."""
    seen = set()
    for k, (name, params) in enumerate(CATALOGUE):
        at = make_table(name, gf=field, **params)
        gf, s, rng = at.gf, socle(at).right, np.random.default_rng(k)
        on_socle = np.zeros((4, at.dim), dtype=np.int64)
        on_socle[0, np.array(s.pivots)[np.count_nonzero(s.basis, axis=1) == 1]] = 1
        on_socle[1:, list(s.pivots)] = rng.integers(0, gf.q, size=(3, s.dim))
        for psi in [*on_socle, *rng.integers(0, gf.q, size=(3, at.dim))]:
            seen.add(_check_build_against_dense_gram(at, psi))
    assert len(seen) >= 3
    if field == (2, 1):
        assert len(seen) == 4


# not self-injective: e_w and a both end at w, and the left and right socles differ
PATH_A2 = "algebra a2 over GF(3) { vertices v, w; arrows { a: v -> w; } relations { } }"
# self-injective but not symmetric: the socle words a and b are open
NAKAYAMA = ("algebra n2 over GF(2) { vertices v, w; arrows { a: v -> w; b: w -> v; }"
            " relations { a*b; b*a; } }")


def test_build_matches_the_dense_gram_on_small_algebras():
    for text in (SQUARE_ZERO, DUAL, OFF_WORDS, PATH_A2, NAKAYAMA):
        at = build_table(complete(parse_presentation(text)))
        rng = np.random.default_rng(at.dim)
        psis = rng.integers(0, at.gf.q, size=(8, at.dim))
        for psi in [np.eye(at.dim, dtype=np.int64)[-1], *psis]:
            _check_build_against_dense_gram(at, psi)


def test_forms_make_no_d_wide_elimination(monkeypatch):
    """With the socle cached, building either form of Omega(20) (d = 460)
    hands no row_space, kernel or rref a matrix with d columns."""
    at = make_table("Omega", n=20)
    socle(at)
    widths = []
    for fn in (linalg.row_space, linalg.kernel):
        _spy(monkeypatch, fn, lambda args: widths.append(
            args[2] if len(args) > 2 and args[2] is not None else np.atleast_2d(args[1]).shape[1]))
    _spy(monkeypatch, linalg.rref, lambda args: widths.append(np.atleast_2d(args[1]).shape[1]))
    assert canonical_form(at).psi.tolist() == consistent_form(at).psi.tolist()
    assert widths and max(widths) < at.dim
