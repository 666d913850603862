"""The basis walk against the depth-first enumeration it replaced, and the
opposite algebra as a metamorphic check of every left/right pair."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOGUE, make_table
from kuls import (GF, NotSymmetric, build_table, canonical_form, center, commutator_space,
                  complete, consistent_form, kuelshammer_space, reynolds_sequence, socle)
from kuls.errors import DegreeBoundExceeded, InfiniteDimensional
from kuls.presentation import PathWord, Presentation, Quiver, Relation
from kuls.rewriting import enumerate_basis
from oracles import reference_basis

FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]
INSTANCES = [(name, params, gf) for name, params in CATALOGUE for gf in FIELDS]
IDS = [f"{name}-GF{p ** e}" for name, _, (p, e) in INSTANCES]


def _assert_walks_equal(got, want):
    assert got.words == want.words
    for name in ("heads", "lasts", "sources", "targets", "lengths"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("name,params,gf", INSTANCES, ids=IDS)
def test_walk_matches_the_sorted_depth_first_enumeration(name, params, gf):
    """Words, prefixes, last arrows, sources, targets and lengths, and the
    table stores the walk's."""
    at = make_table(name, gf=gf, **params)
    walk = enumerate_basis(at.rs)
    _assert_walks_equal(walk, reference_basis(at.rs))
    assert at.basis == tuple(walk.words)
    for got, want in zip((*at.factors, at.sources, at.targets, at.lengths), walk[1:]):
        assert np.array_equal(got, want)


@st.composite
def bound_quivers(draw):
    """1-3 vertices and 1-4 arrows between any two of them (loops and
    parallel arrows included), declared in drawn order, not by source;
    monomial relations of length 2, one to three binomial relations of two
    parallel paths of length 2 or 3 if there are such paths, and, when
    drawn, every path of length 3."""
    n = draw(st.integers(1, 3))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=4))
    gf = GF(draw(st.sampled_from([2, 3])))
    quiver = Quiver([f"v{i}" for i in range(n)],
                    [(f"a{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(ends)])
    paths = {k: [PathWord(quiver.a_source[w[0]], w) for w in itertools.product(
        range(len(ends)), repeat=k) if quiver.composable(w)] for k in (2, 3)}
    relations = [((1, w),) for w in (draw(st.lists(st.sampled_from(paths[2]), max_size=3))
                                     if paths[2] else ())]
    parallel = [(u, w) for u, w in itertools.combinations(paths[2] + paths[3], 2)
                if (u.source, quiver.path_target(u)) == (w.source, quiver.path_target(w))]
    if parallel:
        for u, w in draw(st.lists(st.sampled_from(parallel), min_size=1, max_size=3)):
            relations.append(((1, u), (draw(st.integers(1, gf.p - 1)), w)))
    if draw(st.booleans()):
        relations += [((1, w),) for w in paths[3]]
    return Presentation("drawn", gf, quiver, tuple(Relation(terms) for terms in relations))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(bound_quivers())
def test_walk_matches_the_sorted_depth_first_enumeration_on_drawn_quivers(pres):
    try:
        rs = complete(pres, degree_bound=8)
    except DegreeBoundExceeded:
        return
    try:
        want = reference_basis(rs)
    except InfiniteDimensional:
        with pytest.raises(InfiniteDimensional):
            enumerate_basis(rs)
        return
    _assert_walks_equal(enumerate_basis(rs), want)


def opposite(pres: Presentation) -> Presentation:
    """A^op: every arrow and every relation word reversed."""
    q = pres.quiver
    quiver = Quiver(q.vertices, [(a.name, a.target, a.source) for a in q.arrows])
    relations = tuple(Relation(tuple((c, PathWord(q.path_target(w), w.arrows[::-1]))
                                     for c, w in rel.terms), rel.line, rel.col)
                      for rel in pres.relations)
    return Presentation(f"{pres.name}_op", pres.gf, quiver, relations)


def _invariants(at):
    """d, dim Z, dim K, dim T_1 .. dim T_3, and the rows kuls invariants
    prints, or None when neither of its forms is symmetrizing."""
    rows = None
    for make in (canonical_form, consistent_form):
        try:
            rows = reynolds_sequence(at, make(at)).rows
            break
        except NotSymmetric:
            pass
    return (at.dim, center(at).dim, commutator_space(at).dim,
            [kuelshammer_space(at, n).dim for n in range(1, 4)], rows)


@pytest.mark.parametrize("name,params,gf", INSTANCES, ids=IDS)
def test_the_opposite_algebra_has_the_same_rows_and_swapped_socles(name, params, gf):
    """A^op has A's vector space, commutators and p-th powers, so T_n(A^op)
    = T_n(A): d, dim Z, dim K, dim T_n and the rows (when a form is found,
    which holds for both or neither) are equal, and A^op's right socle is
    A's left socle."""
    at = make_table(name, gf=gf, **params)
    op = build_table(complete(opposite(at.presentation)))
    assert _invariants(op) == _invariants(at)
    assert (socle(op).right.dim, socle(op).left.dim) == (socle(at).left.dim, socle(at).right.dim)
