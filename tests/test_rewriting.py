"""Completion, basis enumeration, structure constants, and their failure modes."""
from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOGUE, make_table
from kuls import (GF, FamilySpec, build_table, complete, family, normal_form, parse_element,
                  parse_presentation, rewriting)
from kuls.errors import ConsistencyFailure, DegreeBoundExceeded, InfiniteDimensional
from kuls.presentation import PathWord, word_str
from kuls.rewriting import _audit, enumerate_basis
from kuls.sparse import from_entries
from oracles import (dense_reference_table, dense_table, path_quotient_dim, reference_audit,
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
    normal, lead = rs.quiver.word("b1", "b2"), rs.quiver.word("b2", "b1")
    assert rs.reduce({normal: 1}) == {normal: 1} and rs.reduce({lead: 1}) == {}


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
    rules = rs.rule_map  # built on first read
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


AUDITED = [
    ("Omega", 2, {"n": 2}),
    ("D", 2, {"m": 2}),
    ("Lambda", 2, {"m": 2}),
    ("Tpq", 2, {"p": 1, "q": 1}),
    ("N", 3, {"n": 2, "m": 1}),
    ("Omega", (2, 2), {"n": 2}),
    ("N", (3, 2), {"n": 2, "m": 1}),
]


def _audit_rejects(bad, reference) -> bool:
    """Whether _audit raises ConsistencyFailure on bad.  It must iff bad's
    folded table differs from reference, the table rewritten from the rules
    (dense_reference_table), and whenever the d-wide reference_audit does."""
    verdicts = []
    for audit in (_audit, reference_audit):
        try:
            audit(bad)
            verdicts.append(False)
        except ConsistencyFailure:
            verdicts.append(True)
    differs = not np.array_equal(dense_table(bad), reference)
    assert verdicts[0] == differs, f"_audit raises: {verdicts[0]}, the table differs: {differs}"
    assert verdicts[0] or not verdicts[1], "the d-wide reference raises and _audit does not"
    return verdicts[0]


@pytest.mark.parametrize("name,gf,params", AUDITED)
def test_audit_catches_every_non_associative_corruption(name, gf, params):
    """One corrupted entry (i, s, m) of the generator block R: _audit raises
    iff the full table folded from it is not the one rewritten from the
    rules, and whenever the d-wide reference does, so every corruption, the
    associative ones and the fold entries among them, is caught."""
    at = make_table(name, gf=gf, **params)
    d, g, q = at.dim, at.generators, at.gf.q
    reference = dense_reference_table(at.rs)
    rng = np.random.default_rng(20050)
    entries = [(int(rng.integers(0, d)), int(rng.integers(0, g)), int(rng.integers(0, d)))
               for _ in range(160)]
    z = max(range(d), key=lambda k: len(at.basis[k].arrows))
    word = at.basis[z]
    head = at.index[PathWord(word.source, word.arrows[:-1])]
    last = at.index[PathWord(at.quiver.a_source[word.arrows[-1]], word.arrows[-1:])]
    entries.append((head, last, int(rng.integers(0, d))))  # a fold entry of R_s
    rejected = 0
    for i, s, m in entries:
        bad_table = dense_table(at)
        bad_table[i, s, m] = (bad_table[i, s, m] + int(rng.integers(1, q))) % q
        rejected += _audit_rejects(table_from_dense(at, bad_table), reference)
    assert _audit_rejects(table_from_dense(at, dense_table(at)), reference) is False
    assert rejected == len(entries)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(AUDITED), st.data())
def test_audit_agrees_with_the_d_wide_reference_on_a_corrupted_generator_block(algebra, data):
    name, gf, params = algebra
    at = make_table(name, gf=gf, **params)
    d, g, q = at.dim, at.generators, at.gf.q
    i, s, m = (data.draw(st.integers(0, n - 1)) for n in (d, g, d))
    bad_table = dense_table(at)
    bad_table[i, s, m] = (bad_table[i, s, m] + data.draw(st.integers(1, q - 1))) % q
    assert _audit_rejects(table_from_dense(at, bad_table), dense_reference_table(at.rs))


@pytest.mark.parametrize("name,gf,params", AUDITED)
def test_audit_rejects_every_corrupted_entry_of_the_left_multiplications(name, gf, params):
    """L is pinned by R: the audit proves L_s the left multiplication by s
    of the fold product, so a changed, added or dropped entry of L fails."""
    at = make_table(name, gf=gf, **params)
    d, g, q, f, p = at.dim, at.generators, at.gf.q, at.folded, at.folded_rows.size
    rng = np.random.default_rng(30)
    for _ in range(40):  # add a nonzero value at (b_s * b_j)_m, row j*p + s of the folded rows
        j, s, m = int(rng.integers(0, d)), int(rng.integers(0, g)), int(rng.integers(0, d))
        folded = from_entries(at.gf, f.shape, np.append(f.rows, j * p + s),
                              np.append(f.indices, m), np.append(f.data, rng.integers(1, q)))
        with pytest.raises(ConsistencyFailure):
            _audit(dataclasses.replace(at, folded=folded))


def _first_failing_pair(at, dense) -> tuple[int, int, int] | None:
    """The first generators (s, t), in basis order, with (b_s x) t !=
    b_s (x t) for some basis word x, one pair at a time, and the first
    such x."""
    g = at.generators
    for s in range(g):
        for t in range(g):
            lhs = at.gf.matmul(dense[s], dense[:, t, :])  # row x: (b_s b_x) b_t
            rhs = at.gf.matmul(dense[:, t, :], dense[s])  # row x: b_s (b_x b_t)
            bad = np.flatnonzero((lhs != rhs).any(axis=1))
            if bad.size:
                return s, t, int(bad[0])
    return None


@pytest.mark.parametrize("name,gf,params,scaled_named", [
    ("Omega", 2, {"n": 2}, 0),
    ("Omega", (2, 2), {"n": 2}, 0),
    ("N", (3, 2), {"n": 2, "m": 2}, 0),
    ("D", (2, 2), {"m": 2}, 5),
    ("Dprime", (3, 2), {"m": 2}, 5),
], ids=["Omega2-GF2", "Omega2-GF4", "N22-GF9", "D2-GF4", "Dprime2-GF9"])
def test_audit_names_the_generator_associativity_fails_against(name, gf, params, scaled_named):
    """A corrupted entry b_i * s of R, b_i non-trivial and s an arrow, that is
    no fold entry: the commuting check fails iff a comparison of (b_s x) t
    with b_s (x t), one pair (s, t) at a time, finds a difference, and names
    the pair and the word x it finds first.  Over GF(4) and GF(9) every other
    draw scales a stored rewritten constant by a field element other than 0
    and 1, which changes values only; on Omega and N each such change is
    another associative algebra (a relation rescaled), which the rule check
    rejects, naming the lead b_i * s; on D and D' some are not associative."""
    at = make_table(name, gf=gf, **params)
    gf, d, g, q = at.gf, at.dim, at.generators, at.gf.q
    folds = {(at.index[PathWord(w.source, w.arrows[:-1])],
              at.index[PathWord(at.quiver.a_source[w.arrows[-1]], w.arrows[-1:])])
             for w in at.basis if w.arrows}
    s_of, i_of = np.divmod(at.right.rows, d)  # row s*d + i of R: b_i * b_s
    stored = [(i, s, m)
              for i, s, m in zip(i_of.tolist(), s_of.tolist(), at.right.indices.tolist()) if i not in at.trivial_indices and s not in at.trivial_indices and (i, s) not in folds]
    rng = np.random.default_rng(7)
    named, scaled = set(), 0
    for draw in range(80):
        scale = q > 2 and draw % 2 and bool(stored)
        i, s, m = (stored[rng.integers(len(stored))] if scale
                   else (int(rng.integers(0, d)), int(rng.integers(0, g)), int(rng.integers(0, d))))
        if i in at.trivial_indices or s in at.trivial_indices or (i, s) in folds:
            continue
        bad_table = dense_table(at)
        bad_table[i, s, m] = (gf.smul(int(bad_table[i, s, m]), int(rng.integers(2, q))) if scale
                              else (bad_table[i, s, m] + int(rng.integers(1, q))) % q)
        bad = table_from_dense(at, bad_table)
        pair = _first_failing_pair(at, dense_table(bad))
        if pair is None:  # associative, so another algebra: the rule check names its lead
            with pytest.raises(ConsistencyFailure, match=re.escape(
                    f"{bad.word_name(i)}*{bad.word_name(s)} is not its product in kQ/I")):
                _audit(bad)
            continue
        first, second, x = (bad.word_name(k) for k in pair)
        with pytest.raises(ConsistencyFailure, match=re.escape(
                f"associativity fails: ({first}*{x})*{second} != {first}*({x}*{second})")):
            _audit(bad)
        named.add(pair[:2])
        scaled += scale
    assert len(named) >= 2  # more than one pair is named
    assert scaled >= scaled_named


REWRITTEN = [("Omega", 2, {"n": 2})] + [
    (name, gf, params) for name, params in CATALOGUE
    if name in {"Omega", "A", "Gamma", "Lambda", "Tpqr", "Tpq", "Tstar"} for gf in ((2, 2), (3, 2))]


@pytest.mark.parametrize("name,gf,params", REWRITTEN, ids=[
    f"{n}-GF{gf if gf == 2 else gf[0] ** gf[1]}" for n, gf, _ in REWRITTEN])
def test_audit_names_the_lead_of_an_associative_rewritten_corruption(name, gf, params):
    """Each stored entry of R at a rewritten product b_i * a (a an arrow,
    b_i * a no basis word) scaled by 2, over GF(4) and GF(9), and over GF(2)
    the first one plus 1: each such table is associative, so only the rule
    check sees it, and it names the rule's lead b_i * a."""
    at = make_table(name, gf=gf, **params)
    s_of, i_of = np.divmod(at.right.rows, at.dim)  # row s*d + i of R: b_i * b_s
    products = [(i, s, m, PathWord(at.basis[i].source, at.basis[i].arrows + at.basis[s].arrows))
                for i, s, m in zip(i_of.tolist(), s_of.tolist(), at.right.indices.tolist())]
    rewritten = [entry for entry in products if entry[3] not in at.index]
    assert rewritten
    for i, s, m, lead in rewritten[:1] if at.gf.q == 2 else rewritten:
        assert lead in at.rs.rule_map
        bad_table = dense_table(at)
        bad_table[i, s, m] = (bad_table[i, s, m] + 1) % 2 if at.gf.q == 2 else at.gf.smul(
            int(bad_table[i, s, m]), 2)
        bad = table_from_dense(at, bad_table)
        assert _first_failing_pair(at, dense_table(bad)) is None  # associative
        with pytest.raises(ConsistencyFailure, match=re.escape(
                f"{word_str(at.quiver, lead)} is not its product in kQ/I")):
            _audit(bad)


MUTATED = [("Omega", {"n": 2}), ("Omega", {"n": 3}), ("A", {"p": 1, "q": 2}),
           ("A", {"p": 2, "q": 2}), ("D", {"m": 2}), ("D", {"m": 3}), ("Dprime", {"m": 2}),
           ("Dprime", {"m": 3}), ("N", {"n": 2, "m": 1}), ("N", {"n": 2, "m": 2}),
           ("N", {"n": 2, "m": 3})]


def test_build_table_rejects_a_completion_that_drops_an_s_polynomial(monkeypatch):
    """complete with its k-th S-polynomial dropped, k = 0, 1, 2, on eleven
    family instances over GF(2), each small enough for the path oracle:
    complete runs no confluence pass, and build_table raises iff the
    mutant's normal words are not as many as the oracle's dim kQ/I (the
    audit proves the table kQ/I, so a wrong count fails it); some mutant
    raises."""
    s_poly, raised = rewriting._s_poly, 0
    for name, params in MUTATED:
        pres, dims = family(FamilySpec(name, params, GF(2))), {}  # longest word -> oracle dim
        for k in range(3):
            calls = []

            def dropping(*args):
                calls.append(args)
                return {} if len(calls) == k + 1 else s_poly(*args)

            monkeypatch.setattr(rewriting, "_s_poly", dropping)
            rs = complete(pres)
            try:
                basis = enumerate_basis(rs)
            except InfiniteDimensional:
                basis = None
            if basis is not None:
                longest = max(len(w) for w in basis)
                if longest not in dims:
                    dims[longest] = path_quotient_dim(pres, longest + 5)
            if basis is not None and len(basis) == dims[longest]:
                build_table(rs)
                continue
            with pytest.raises((ConsistencyFailure, InfiniteDimensional)):
                build_table(rs)
            raised += 1
    assert raised > 0


@pytest.mark.parametrize("dropped,closure", [("b2*a1", "prefix"), ("a1*b1", "suffix")])
def test_build_table_rejects_a_basis_that_is_not_factor_closed(dropped, closure, monkeypatch):
    """Omega(2)'s basis without b2*a1, the prefix of b2*a1*b1, or without
    a1*b1, its suffix: the one closure check before the fold rejects it."""
    rs = complete(family(FamilySpec("Omega", {"n": 2}, GF(2))))
    basis = [w for w in enumerate_basis(rs) if word_str(rs.quiver, w) != dropped]
    assert len(basis) == 9
    monkeypatch.setattr(rewriting, "enumerate_basis", lambda _: basis)
    with pytest.raises(ConsistencyFailure, match=f"^basis is not {closure} closed$"):
        build_table(rs)


def test_table_and_audit_make_one_product_per_word_length(monkeypatch):
    """build_table makes one sparse product per word length >= 2, folding the
    generators and the closed words once, and _audit two, however many
    basis words and generators there are; the full table is folded only
    when read, by one more product per length."""
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
    assert at.dim == 88 and longest > 2
    assert at_audit == [longest - 1, longest + 1] and len(calls) == longest + 1
    assert at.table is at.table and len(calls) == 2 * longest


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
