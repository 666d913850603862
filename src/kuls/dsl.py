"""Parser for the algebra presentation DSL.

    algebra NAME over GF(p) {          // or GF(p^e) / GF(p^e, t^2+t+1)
      vertices v, w;
      arrows { a: v -> w; b: w -> v; }
      relations { a*b*a; 2*a*b = b*a; }
    }

A relation with no "=" asserts the expression vanishes.  Coefficients
are integers, or parenthesized polynomials in t over an extension
field.  Trivial paths e_v are valid in element expressions only.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import (DslSyntaxError, NonAdmissibleRelation, NonComposablePath,
                     NonParallelRelation, UnknownName)
from .gf import GF
from .presentation import (
    PathWord,
    Presentation,
    Quiver,
    Relation,
    normalize_terms,
    raise_first_error,
    validate,
)

__all__ = ["parse_presentation", "parse_element", "tokenize"]

_SYMBOLS = ("->", "{", "}", "(", ")", ";", ",", ":", "*", "+", "-", "=", "^")


class Token(NamedTuple):
    kind: str  # NAME | INT | SYM | EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("SYM", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}", line, col, expected="token")
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.text == text

    def expect(self, kind: str, text: str | None = None, expected: str = "") -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = expected or (text if text is not None else kind)
            raise DslSyntaxError(f"expected {want}, found {t.text or 'end of input'!r}",
                                 t.line, t.col, expected=want)
        return self.advance()

    def keyword(self, word: str):
        self.expect("NAME", word, expected=f"keyword {word!r}")

    def integer(self, expected: str) -> int:
        t = self.expect("INT", expected=expected)
        try:
            return int(t.text)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise DslSyntaxError(f"{expected} has {len(t.text)} digits, too many to read",
                                 t.line, t.col, expected=expected) from None

    # -- field --

    def parse_field(self) -> GF:
        self.expect("NAME", "GF", expected="GF")
        self.expect("SYM", "(")
        p = self.integer("prime")
        e, modulus = 1, None
        if self.at_sym("^"):
            self.advance()
            e = self.integer("extension degree")
            if self.at_sym(","):
                self.advance()
                modulus = self._parse_tpoly(stop=")")
        elif self.at_sym(","):
            self.advance()
            e = self.integer("extension degree")
        self.expect("SYM", ")")
        return GF(p, e, tuple(modulus) if modulus else None)

    def _parse_tpoly(self, stop: str) -> list[int]:
        """Integer coefficient list of a polynomial in t, lowest degree first."""
        coeffs: dict[int, int] = {}
        sign = 1
        while True:
            t = self.peek()
            if t.kind == "SYM" and t.text == "-":
                self.advance()
                sign = -sign
                continue
            c, deg = 1, 0
            if t.kind == "INT":
                c = self.integer("coefficient")
                if self.at_sym("*"):
                    self.advance()
                    t = self.peek()
            t = self.peek()
            if t.kind == "NAME" and t.text == "t":
                self.advance()
                deg = 1
                if self.at_sym("^"):
                    self.advance()
                    deg = self.integer("exponent")
            coeffs[deg] = coeffs.get(deg, 0) + sign * c
            sign = 1
            if self.at_sym("+"):
                self.advance()
            elif self.at_sym("-"):
                self.advance()
                sign = -1
            elif self.at_sym(stop):
                break
            else:
                t = self.peek()
                raise DslSyntaxError(f"unexpected {t.text!r} in polynomial",
                                     t.line, t.col, expected="+, - or " + stop)
        top = max(coeffs) if coeffs else 0
        return [coeffs.get(i, 0) for i in range(top + 1)]

    # -- expressions --

    def parse_coeff(self, gf: GF) -> int:
        t = self.peek()
        if t.kind == "INT":
            return gf.from_int(self.integer("coefficient"))
        if self.at_sym("("):
            self.advance()
            coeffs = self._parse_tpoly(stop=")")
            self.expect("SYM", ")")
            return gf.from_coeffs(coeffs)
        raise DslSyntaxError(f"expected coefficient, found {t.text!r}",
                             t.line, t.col, expected="coefficient")

    def parse_path(self, quiver: Quiver, allow_trivial: bool) -> tuple[PathWord, Token]:
        first = self.expect("NAME", expected="path")
        names = [first]
        while self.at_sym("*") and self.toks[self.i + 1].kind == "NAME":
            self.advance()
            names.append(self.advance())
        arrows: list[int] = []
        source = None  # start vertex of the whole path
        cursor = None  # end vertex so far
        for tok in names:
            if tok.text in quiver.a_index:
                idx = quiver.a_index[tok.text]
                if cursor is not None and cursor != quiver.a_source[idx]:
                    raise NonComposablePath(
                        f"arrow {tok.text!r} does not compose with the path before it",
                        tok.line, tok.col)
                if source is None:
                    source = quiver.a_source[idx]
                cursor = quiver.a_target[idx]
                arrows.append(idx)
            elif allow_trivial and tok.text.startswith("e_") and tok.text[2:] in quiver.v_index:
                v = quiver.v_index[tok.text[2:]]
                if cursor is not None and cursor != v:
                    raise NonComposablePath(
                        f"trivial path {tok.text!r} does not compose", tok.line, tok.col)
                if source is None:
                    source = v
                cursor = v
            else:
                raise UnknownName(f"unknown arrow {tok.text!r}", tok.line, tok.col)
        return PathWord(source, tuple(arrows)), first

    def parse_expr(self, gf: GF, quiver: Quiver, allow_trivial: bool):
        """Returns a list of (coeff, PathWord, first-token) triples."""
        terms = []
        sign = 1
        while True:
            t = self.peek()
            coeff = gf.from_int(1)
            if t.kind == "INT" or self.at_sym("("):
                coeff = self.parse_coeff(gf)
                if coeff == 0 and not self.at_sym("*"):
                    # a bare 0 is the zero element, not a scalar multiplier
                    if self.at_sym("+") or self.at_sym("-"):
                        raise DslSyntaxError("a zero term cannot start a sum",
                                             t.line, t.col)
                    return terms
                self.expect("SYM", "*", expected="'*' after coefficient")
            word, tok = self.parse_path(quiver, allow_trivial)
            if sign < 0:
                coeff = int(gf.neg(coeff))
            terms.append((coeff, word, tok))
            if self.at_sym("+"):
                self.advance()
                sign = 1
            elif self.at_sym("-"):
                self.advance()
                sign = -1
            else:
                return terms


def parse_presentation(text: str, allow_disconnected: bool = False) -> Presentation:
    """Parse DSL source into a validated Presentation."""
    ps = _Parser(tokenize(text))
    ps.keyword("algebra")
    name = ps.expect("NAME", expected="algebra name").text
    ps.keyword("over")
    gf = ps.parse_field()
    ps.expect("SYM", "{")

    ps.keyword("vertices")
    vertices = [ps.expect("NAME", expected="vertex name").text]
    while ps.at_sym(","):
        ps.advance()
        vertices.append(ps.expect("NAME", expected="vertex name").text)
    ps.expect("SYM", ";")

    ps.keyword("arrows")
    ps.expect("SYM", "{")
    arrows = []
    while not ps.at_sym("}"):
        aname = ps.expect("NAME", expected="arrow name")
        ps.expect("SYM", ":")
        src = ps.expect("NAME", expected="source vertex")
        ps.expect("SYM", "->")
        tgt = ps.expect("NAME", expected="target vertex")
        ps.expect("SYM", ";")
        for tok, what in ((src, "vertex"), (tgt, "vertex")):
            if tok.text not in vertices:
                raise UnknownName(f"unknown {what} {tok.text!r}", tok.line, tok.col)
        arrows.append((aname.text, src.text, tgt.text))
    ps.expect("SYM", "}")
    quiver = Quiver(vertices, arrows)

    ps.keyword("relations")
    ps.expect("SYM", "{")
    relations = []
    while not ps.at_sym("}"):
        first = ps.peek()  # a relation that is 0 has no term to take its position from
        lhs = ps.parse_expr(gf, quiver, allow_trivial=False)
        terms = list(lhs)
        if ps.at_sym("="):
            ps.advance()
            rhs = ps.parse_expr(gf, quiver, allow_trivial=False)
            terms += [(int(gf.neg(c)), w, tok) for c, w, tok in rhs]
        ps.expect("SYM", ";")
        endpoints = None
        for coeff, word, tok in terms:
            if len(word) < 2:
                raise NonAdmissibleRelation(
                    "relation terms must be paths of length >= 2", tok.line, tok.col)
            ends = (word.source, quiver.path_target(word))
            if endpoints is None:
                endpoints = ends
            elif ends != endpoints:
                raise NonParallelRelation(
                    "relation terms do not share source and target", tok.line, tok.col)
        relations.append(Relation(normalize_terms(gf, [(c, w) for c, w, _ in terms]),
                                  first.line, first.col))
    ps.expect("SYM", "}")
    ps.expect("SYM", "}")
    ps.expect("EOF", expected="end of input")

    pres = Presentation(name, gf, quiver, tuple(relations))
    raise_first_error(validate(pres, allow_disconnected=allow_disconnected))
    return pres


def parse_element(text: str, pres: Presentation) -> dict[PathWord, int]:
    """Parse an element expression (trivial paths allowed) into {word: coeff}."""
    ps = _Parser(tokenize(text))
    terms = ps.parse_expr(pres.gf, pres.quiver, allow_trivial=True)
    ps.expect("EOF", expected="end of expression")
    return {w: c for c, w in normalize_terms(pres.gf, [(c, w) for c, w, _ in terms])}
