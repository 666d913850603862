"""DSL parsing, validation diagnostics, emission roundtrips, element expressions."""
from __future__ import annotations

import pytest

from kuls import GF, emit, parse_element, parse_presentation, validate
from kuls.errors import (
    DslSyntaxError,
    NonAdmissibleRelation,
    NonComposablePath,
    NonParallelRelation,
    UnknownName,
)
from kuls.presentation import word_str

LOOP_CYCLE = """
algebra sample over GF(2) {
  vertices c, w1;
  arrows {
    a1: c -> c;
    b1: c -> w1;
    b2: w1 -> c;
  }
  relations {
    a1*a1 = b1*b2;
    a1*b1*b2*a1;
    b2*a1*a1*b1 = 0;
  }
}
"""


def test_parse_basic_presentation():
    pres = parse_presentation(LOOP_CYCLE)
    assert pres.name == "sample"
    assert pres.gf == GF(2)
    q = pres.quiver
    assert q.vertices == ("c", "w1")
    assert [a.name for a in q.arrows] == ["a1", "b1", "b2"]
    assert q.a_source == (0, 0, 1)
    assert q.a_target == (0, 1, 0)
    assert len(pres.relations) == 3
    lhs = pres.relations[0].terms
    assert {word_str(q, w) for _, w in lhs} == {"a1*a1", "b1*b2"}
    assert all(c == 1 for c, _ in lhs)  # -1 = 1 over GF(2)
    assert validate(pres) == []


def test_comments_and_whitespace_are_ignored():
    pres = parse_presentation(
        "algebra x over GF(3) {  // header comment\n"
        "  vertices v;\n"
        "  arrows { a: v -> v; } // loop\n"
        "  relations { a*a*a; }\n"
        "}\n")
    assert pres.name == "x"
    assert len(pres.relations) == 1


def test_emit_parse_roundtrip():
    pres = parse_presentation(LOOP_CYCLE)
    again = parse_presentation(emit(pres))
    assert again.name == pres.name
    assert again.gf == pres.gf
    assert again.quiver == pres.quiver
    assert [r.terms for r in again.relations] == [r.terms for r in pres.relations]


@pytest.mark.parametrize("relation", ["a1*b1*b2*a1 + a1*b1*b2*a1", "0", "0 = 0"])
def test_a_relation_that_is_zero_parses_and_emits_as_zero(relation):
    pres = parse_presentation(LOOP_CYCLE.replace("a1*b1*b2*a1", relation, 1))
    assert pres.relations[1].terms == ()
    assert [d.code for d in validate(pres)] == ["zero-relation"]
    assert "    0;\n" in emit(pres)
    assert parse_presentation(emit(pres)) == pres


def test_extension_field_headers():
    src = LOOP_CYCLE.replace("GF(2)", "GF(2^2)")
    pres = parse_presentation(src)
    assert pres.gf == GF(2, 2)
    assert parse_presentation(LOOP_CYCLE.replace("GF(2)", "GF(3^2, t^2 + 1)")).gf == GF(3, 2)
    explicit = parse_presentation(LOOP_CYCLE.replace("GF(2)", "GF(3^2, t^2 + t + 2)"))
    assert explicit.gf == GF(3, 2, modulus=(2, 1, 1))
    assert explicit.gf != GF(3, 2)  # non-default modulus survives emission
    assert "GF(3^2, t^2 + t + 2)" in emit(explicit)
    comma = parse_presentation(LOOP_CYCLE.replace("GF(2)", "GF(2, 2)"))
    assert comma.gf == GF(2, 2)


def test_scaled_relation_coefficients():
    pres = parse_presentation(
        "algebra y over GF(5) {\n"
        "  vertices v;\n"
        "  arrows { a: v -> v; b: v -> v; }\n"
        "  relations { 2*a*a - b*b; a*a*a; b*a = 3*a*b; }\n"
        "}\n")
    terms = pres.relations[0].terms
    assert dict((word_str(pres.quiver, w), c) for c, w in terms) == {"a*a": 2, "b*b": 4}
    mixed = pres.relations[2].terms
    assert dict((word_str(pres.quiver, w), c) for c, w in mixed) == {"b*a": 1, "a*b": 2}


def test_parse_element_expressions():
    pres = parse_presentation(LOOP_CYCLE)
    q = pres.quiver
    el = parse_element("e_c + a1*b1 + b1", pres)
    assert {word_str(q, w): c for w, c in el.items()} == {"e_c": 1, "a1*b1": 1, "b1": 1}
    assert parse_element("a1 + a1", pres) == {}  # cancels over GF(2)
    assert parse_element("0", pres) == {}
    assert parse_element("e_w1*b2", pres) == {q.word("b2"): 1}
    with pytest.raises(NonComposablePath):
        parse_element("e_w1*a1", pres)
    with pytest.raises(DslSyntaxError):
        parse_element("a1 +", pres)
    with pytest.raises(DslSyntaxError):
        parse_element("a1 b1", pres)


def test_parse_element_extension_coefficients():
    pres = parse_presentation(LOOP_CYCLE.replace("GF(2)", "GF(2^2)"))
    el = parse_element("(t)*a1 + (t+1)*b1", pres)
    gf = pres.gf
    t = gf.from_coeffs((0, 1))
    assert el[pres.quiver.word("a1")] == t
    assert el[pres.quiver.word("b1")] == gf.sadd(t, 1)


def located(err):
    return err.value.line, err.value.col


def test_syntax_errors_carry_positions():
    with pytest.raises(DslSyntaxError) as err:
        parse_presentation("algebra $ over GF(2) { }")
    assert located(err) == (1, 9)
    with pytest.raises(DslSyntaxError) as err:
        parse_presentation("algebra x over GF(2) {\n  vertices v\n  arrows { }\n")
    assert located(err) == (3, 3)  # missing semicolon noticed at 'arrows'
    with pytest.raises(DslSyntaxError):
        parse_presentation("")


def test_unknown_names_are_rejected():
    with pytest.raises(UnknownName) as err:
        parse_presentation(
            "algebra x over GF(2) {\n  vertices v;\n"
            "  arrows { a: v -> w; }\n  relations { }\n}\n")
    assert located(err) == (3, 20)
    with pytest.raises(UnknownName) as err:
        parse_presentation(
            "algebra x over GF(2) {\n  vertices v;\n"
            "  arrows { a: v -> v; }\n  relations { a*zz; }\n}\n")
    assert located(err) == (4, 17)
    with pytest.raises(UnknownName):
        # trivial paths are not allowed inside relations
        parse_presentation(
            "algebra x over GF(2) {\n  vertices v;\n"
            "  arrows { a: v -> v; }\n  relations { e_v*a = a*a; }\n}\n")


def test_non_composable_path():
    with pytest.raises(NonComposablePath) as err:
        parse_presentation(LOOP_CYCLE.replace("b2*a1*a1*b1 = 0", "b2*b2 = 0"))
    assert err.value.line == 12


def test_non_parallel_relation():
    with pytest.raises(NonParallelRelation):
        parse_presentation(LOOP_CYCLE.replace("a1*a1 = b1*b2", "a1*a1 = a1*b1"))


def test_non_admissible_relation():
    with pytest.raises(NonAdmissibleRelation):
        parse_presentation(LOOP_CYCLE.replace("a1*a1 = b1*b2", "a1 = a1*a1"))


def test_disconnected_quiver_diagnostic():
    src = ("algebra x over GF(2) {\n  vertices v, w;\n"
           "  arrows { a: v -> v; b: w -> w; }\n  relations { a*a; b*b; }\n}\n")
    with pytest.raises(DslSyntaxError) as err:
        parse_presentation(src)
    assert "disconnected" in str(err.value)
    pres = parse_presentation(src, allow_disconnected=True)
    assert [d.code for d in validate(pres, allow_disconnected=True)] == []
    assert [d.code for d in validate(pres)] == ["disconnected"]


def test_zero_relation_is_reported_not_fatal():
    pres = parse_presentation(LOOP_CYCLE.replace("a1*b1*b2*a1", "a1*b1*b2*a1 = a1*b1*b2*a1"))
    diags = validate(pres)
    assert [d.code for d in diags] == ["zero-relation"]
    assert pres.relations[1].terms == ()
