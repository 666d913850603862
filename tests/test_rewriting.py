"""Completion, basis enumeration, structure constants, and their failure modes."""
from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import make_table
from kuls import (GF, FamilySpec, build_table, complete, family, normal_form, parse_element,
                  parse_presentation, rewriting)
from kuls.errors import ConsistencyFailure, DegreeBoundExceeded, InfiniteDimensional
from kuls.presentation import PathWord, word_str
from kuls.rewriting import _audit, enumerate_basis
from oracles import (dense_reference_table, dense_table, is_associative, path_quotient_dim,
                     table_from_dense)


def truncated_polynomials(p, k):
    return parse_presentation(
        f"algebra trunc over GF({p}) {{\n  vertices v;\n  arrows {{ a: v -> v; }}\n"
        f"  relations {{ {'*'.join('a' * k)}; }}\n}}\n")


def test_truncated_polynomial_algebra():
    at = build_table(complete(truncated_polynomials(2, 5)))
    assert at.dim == 5
    assert [at.word_name(i) for i in range(5)] == ["e_v", "a", "a*a", "a*a*a", "a*a*a*a"]
    # a**i * a**j is a**(i+j), zero once the exponent reaches 5
    for i in range(5):
        for j in range(5):
            expected = np.zeros(5, dtype=np.int64)
            if i + j < 5:
                expected[i + j] = 1
            assert np.array_equal(dense_table(at)[i, j, :], expected)


def test_normal_form_reduces_elements():
    at = build_table(complete(truncated_polynomials(3, 4)))
    v = normal_form(at, "a*a + 2*a*a*a*a*a")  # the degree-5 term dies
    assert np.array_equal(v, [0, 0, 1, 0])
    assert np.array_equal(at.normal_form("2*a + a"), np.zeros(4, dtype=np.int64))
    assert np.array_equal(at.normal_form("e_v"), at.unit)
    as_dict = parse_element("a*a*a*a + a", at.presentation)
    assert np.array_equal(normal_form(at, as_dict), [0, 1, 0, 0])


OMEGA2_BASIS = ["e_c", "e_w1", "a1", "b1", "b2",
                "a1*a1", "a1*b1", "b1*b2", "b2*a1", "b2*a1*b1"]


def test_omega2_completion_is_frozen():
    at = make_table("Omega", n=2)
    rs = at.rs
    assert [at.word_name(i) for i in range(at.dim)] == OMEGA2_BASIS
    rules = {word_str(rs.quiver, r.lead):
             [(c, word_str(rs.quiver, w)) for c, w in r.tail] for r in rs.rules}
    assert rules == {
        "b2*b1": [],
        "a1*a1*a1": [],
        "a1*a1*b1": [],
        "a1*b1*b2": [(1, "a1*a1")],
        "b1*b2*a1": [(1, "a1*a1")],
        "b2*a1*a1": [],
    }
    # the two length-3 leads rewrite onto the loop: alpha**2 is a basis word
    assert np.array_equal(at.normal_form("a1*b1*b2"), at.normal_form("a1*a1"))
    assert np.array_equal(at.normal_form("b2*b1"), np.zeros(at.dim, dtype=np.int64))
    assert rs.is_normal(rs.quiver.word("b1", "b2"))
    assert not rs.is_normal(rs.quiver.word("b2", "b1"))


def test_basis_is_deglex_ordered_and_factor_closed():
    at = make_table("D", m=2)
    assert [at.word_name(i) for i in range(at.dim)] == [
        "e_c", "e_w1", "a1", "b1", "b2",
        "a1*a1", "a1*b1", "b2*a1", "b2*b1", "a1*a1*a1"]
    lengths = at.lengths()
    assert list(lengths) == sorted(lengths)
    words = set(at.basis)
    for w in at.basis:
        if w.arrows:
            assert type(w)(w.source, w.arrows[:-1]) in words  # prefixes stay inside


def test_reduce_is_idempotent():
    at = make_table("Omega", n=2)
    rs = at.rs
    poly = parse_element("a1*b1*b2 + b2*b1 + a1", at.presentation)
    reduced = rs.reduce(poly)
    assert rs.reduce(reduced) == reduced
    assert {word_str(rs.quiver, w) for w in reduced} == {"a1*a1", "a1"}


def test_rule_map_is_built_once_per_system(monkeypatch):
    rs = complete(family(FamilySpec("Omega", {"n": 3}, GF(2))))
    rules = rs.rule_map  # built by complete's confluence check
    assert list(rules) == [r.lead for r in rs.rules]
    maps, reduce = [], rewriting._reduce

    def recording(gf, poly, rule_map):
        maps.append(rule_map)
        return reduce(gf, poly, rule_map)

    monkeypatch.setattr(rewriting, "_reduce", recording)
    rs.reduce(parse_element("a1*a1*a1", rs.presentation))
    build_table(rs)  # rewrites products and, in its audit, the relations
    assert len(maps) > 1 and all(m is rules for m in maps)


def test_completion_builds_its_rule_map_once_per_inserted_rule(monkeypatch):
    """complete rebuilds the map its reductions read only when it inserts a
    rule (after dropping the rules whose leads that rule's lead divides), not
    once per reduction; the completed system is the same."""
    pres = family(FamilySpec("Omega", {"n": 8}, GF(2)))
    plain = complete(pres)
    counts = {"_rule_map": 0, "_make_rule": 0, "_reduce": 0}
    for name in counts:
        def counted(*args, real=getattr(rewriting, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(rewriting, name, counted)
    assert complete(pres).rules == plain.rules
    assert counts["_rule_map"] == counts["_make_rule"] >= len(plain.rules) > 0
    assert counts["_reduce"] > 2 * counts["_rule_map"]


def test_arrow_indices_are_read_once_per_table():
    at = build_table(complete(family(FamilySpec("Omega", {"n": 3}, GF(2)))))
    assert at.arrow_indices is at.arrow_indices
    assert at.arrow_indices == [i for i, w in enumerate(at.basis) if len(w.arrows) == 1]


def test_infinite_dimensional_quotients_are_detected():
    free_loop = parse_presentation(
        "algebra free over GF(2) {\n  vertices v;\n  arrows { a: v -> v; }\n"
        "  relations { }\n}\n")
    with pytest.raises(InfiniteDimensional) as err:
        enumerate_basis(complete(free_loop))
    assert "cycle through vertex 'v'" in str(err.value)
    two_loops = parse_presentation(
        "algebra fr2 over GF(2) {\n  vertices v;\n  arrows { a: v -> v; b: v -> v; }\n"
        "  relations { a*a; b*b; }\n}\n")
    with pytest.raises(InfiniteDimensional):
        build_table(complete(two_loops))  # a*b*a*b*... never terminates


@pytest.mark.parametrize("arrows,on_cycle", [("a: v -> w; b: w -> v;", {"v", "w"}),
                                             ("a: v -> w; c: w -> w;", {"w"})],
                         ids=["two-cycle", "loop-reached-from-v"])
def test_infinite_dimensional_names_a_vertex_on_the_cycle(arrows, on_cycle):
    pres = parse_presentation(
        f"algebra cyc over GF(2) {{ vertices v, w; arrows {{ {arrows} }} relations {{ }} }}")
    with pytest.raises(InfiniteDimensional) as err:
        enumerate_basis(complete(pres))
    named = re.search(r"cycle through vertex '(\w+)'", str(err.value)).group(1)
    assert named in on_cycle


def test_degree_bound_guards_completion():
    pres = make_table("Omega", n=2).presentation
    with pytest.raises(DegreeBoundExceeded) as err:
        complete(pres, degree_bound=2)
    assert "below the longest relation term" in str(err.value)
    deep = make_table("D", m=3).presentation
    with pytest.raises(DegreeBoundExceeded):
        complete(deep, degree_bound=5)  # needs monomial rules of degree 6
    assert build_table(complete(deep, degree_bound=50)).dim == 18


def test_audit_catches_corrupted_structure_constants():
    at = make_table("Omega", n=2)
    bad_table = dense_table(at)
    i = at.index[at.quiver.word("a1")]
    j = at.index[at.quiver.word("b1")]
    bad_table[i, j, :] = 0
    bad_table[i, j, j] = 1  # claim a1*b1 = b1, breaking (b2*a1)*b1 = b2*(a1*b1)
    bad = table_from_dense(at, bad_table)
    with pytest.raises(ConsistencyFailure):
        _audit(bad)


@pytest.mark.parametrize("name,gf,params", [
    ("Omega", 2, {"n": 2}),
    ("D", 2, {"m": 2}),
    ("Lambda", 2, {"m": 2}),
    ("Tpq", 2, {"p": 1, "q": 1}),
    ("N", 3, {"n": 2, "m": 1}),
    ("Omega", (2, 2), {"n": 2}),
    ("N", (3, 2), {"n": 2, "m": 1}),
])
def test_audit_catches_every_non_associative_corruption(name, gf, params):
    """The generator and fold checks reject every table the all-triples oracle rejects."""
    at = make_table(name, gf=gf, **params)
    d, q = at.dim, at.gf.q
    rng = np.random.default_rng(20050)
    entries = [tuple(int(c) for c in rng.integers(0, d, size=3)) for _ in range(160)]
    z = max(range(d), key=lambda k: len(at.basis[k].arrows))
    word = at.basis[z]
    head = at.index[PathWord(word.source, word.arrows[:-1])]
    last = at.index[PathWord(at.quiver.a_source[word.arrows[-1]], word.arrows[-1:])]
    entries.append((head, last, int(rng.integers(0, d))))  # a fold entry table[z', s]
    rejected = 0
    for i, j, m in entries:
        bad_table = dense_table(at)
        bad_table[i, j, m] = (bad_table[i, j, m] + int(rng.integers(1, q))) % q
        bad = table_from_dense(at, bad_table)
        if not is_associative(bad) or (i, j) == (head, last):
            with pytest.raises(ConsistencyFailure):
                _audit(bad)
            rejected += 1
    assert rejected > len(entries) // 2


def _first_failing_generator(at, dense) -> int | None:
    """The first trivial path or arrow s, in basis order, with
    (b_i b_j) s != b_i (b_j s) for some i, j, one generator at a time."""
    d = at.dim
    by_left = dense.reshape(d * d, d)  # row i*d + j: b_i b_j
    by_right = dense.transpose(1, 0, 2).reshape(d, d * d)  # [l, i*d + m]: (b_i b_l)_m
    for s in list(at.trivial_indices) + at.arrow_indices:
        r_s = dense[:, s, :]  # row l: b_l s
        lhs = at.gf.matmul(by_left, r_s).reshape(d, d, d)  # [i, j]: (b_i b_j) s
        rhs = at.gf.matmul(r_s, by_right).reshape(d, d, d).transpose(1, 0, 2)  # b_i (b_j s)
        if not np.array_equal(lhs, rhs):
            return s
    return None


@pytest.mark.parametrize("name,gf,params", [
    ("Omega", 2, {"n": 2}),
    ("Omega", (2, 2), {"n": 2}),
    ("N", (3, 2), {"n": 2, "m": 2}),
], ids=["Omega2-GF2", "Omega2-GF4", "N22-GF9"])
def test_audit_names_the_generator_associativity_fails_against(name, gf, params):
    """A corrupted product of two non-trivial words that is no fold entry
    passes the unit and fold checks; the batched check then names the same
    generator as a comparison of (b_i b_j) s with b_i (b_j s) for one s at
    a time.  Over GF(4) and GF(9) every other draw scales a stored constant
    by a field element other than 0 and 1, which changes values only."""
    at = make_table(name, gf=gf, **params)
    gf, d, q = at.gf, at.dim, at.gf.q
    folds = {(at.index[PathWord(w.source, w.arrows[:-1])],
              at.index[PathWord(at.quiver.a_source[w.arrows[-1]], w.arrows[-1:])])
             for w in at.basis if w.arrows}
    stored = [(i, j, m) for i, j, m in zip(*(x.tolist() for x in at.entries()[:3]))
              if i not in at.trivial_indices and j not in at.trivial_indices
              and (i, j) not in folds]
    rng = np.random.default_rng(7)
    named, scaled = set(), 0
    for draw in range(80):
        scale = q > 2 and draw % 2
        i, j, m = (stored[rng.integers(len(stored))] if scale
                   else (int(x) for x in rng.integers(0, d, size=3)))
        if i in at.trivial_indices or j in at.trivial_indices or (i, j) in folds:
            continue
        bad_table = dense_table(at)
        bad_table[i, j, m] = (gf.smul(int(bad_table[i, j, m]), int(rng.integers(2, q))) if scale
                              else (bad_table[i, j, m] + int(rng.integers(1, q))) % q)
        s = _first_failing_generator(at, bad_table)
        if s is None:
            continue
        with pytest.raises(ConsistencyFailure,
                           match=f"^associativity fails against {re.escape(at.word_name(s))}$"):
            _audit(table_from_dense(at, bad_table))
        named.add(s)
        scaled += scale
    assert len(named) >= 2  # more than one generator is named
    assert scaled >= 5 or q == 2


def test_table_and_audit_make_one_product_per_word_length(monkeypatch):
    """build_table makes one sparse product per word length >= 2 and _audit
    two, however many basis words and generators there are."""
    calls, at_audit = [], []
    product, audit = rewriting.product, rewriting._audit

    def counted_product(*args):
        calls.append(args)
        return product(*args)

    def counted_audit(at):
        at_audit.append(len(calls))
        audit(at)
        at_audit.append(len(calls))

    monkeypatch.setattr(rewriting, "product", counted_product)
    monkeypatch.setattr(rewriting, "_audit", counted_audit)
    at = build_table(complete(family(FamilySpec("Omega", {"n": 8}, GF(2)))))
    longest = max(len(w.arrows) for w in at.basis)
    assert at.dim == 88
    assert at_audit[0] <= longest - 1 < at.dim
    assert at_audit[1] - at_audit[0] == 2


@pytest.mark.parametrize("body,dim", [("arrows { } relations { }", 1),
                                      ("arrows { a: v -> v; } relations { a*a; }", 2)],
                         ids=["field", "dual-numbers"])
def test_tables_without_words_of_length_two(body, dim):
    """Only the generator blocks: no product per word length is needed."""
    at = build_table(complete(parse_presentation(f"algebra s over GF(2) {{ vertices v; {body} }}")))
    assert at.dim == dim
    assert np.array_equal(dense_table(at), dense_reference_table(at.rs))


def test_omega20_table_builds_and_audits():
    at = build_table(complete(family(FamilySpec("Omega", {"n": 20}, GF(2)))))
    assert (at.dim, at.table.data.size) == (460, 5311)
    _audit(at)


def test_coords_rejects_non_basis_words():
    at = make_table("Omega", n=2)
    with pytest.raises(ConsistencyFailure):
        at.coords({at.quiver.word("b2", "b1"): 1})


@pytest.mark.parametrize("name,params,expected", [
    ("Omega", {"n": 2}, 10),
    ("A", {"p": 1, "q": 2}, 10),
    ("D", {"m": 3}, 18),
    ("N", {"n": 2, "m": 2}, 10),
    ("Lambda", {"m": 2}, 11),
])
def test_dimensions_match_path_oracle(name, params, expected):
    at = make_table(name, **params)
    assert at.dim == expected
    maxlen = int(at.lengths().max())
    assert path_quotient_dim(at.presentation, maxlen + 5) == expected


def test_gf4_pipeline():
    at = make_table("Omega", gf=(2, 2), n=2)
    assert at.gf == GF(2, 2)
    assert at.dim == 10
    # a1*b1*b2 reduces onto a1*a1, so the two terms cancel in characteristic 2
    v = at.normal_form("(t)*a1*b1*b2 + (t)*a1*a1")
    assert not np.any(v)
    t = at.gf.from_coeffs((0, 1))
    w = at.normal_form("(t)*a1*b1*b2 + (t + 1)*a1*a1")
    assert w[at.index[at.quiver.word("a1", "a1")]] == 1  # t + (t + 1)
