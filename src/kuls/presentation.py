"""Bound quiver presentations: quivers, path words, relations, validation.

Paths compose left to right: in the word a*b the arrow a is applied
first, so target(a) must equal source(b).  Vertex and arrow indices are
declaration order, which also fixes the monomial order downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    DslSyntaxError,
    NonAdmissibleRelation,
    NonComposablePath,
    NonParallelRelation,
    UnknownName,
)
from .gf import GF, default_modulus

__all__ = [
    "Arrow",
    "Quiver",
    "PathWord",
    "Relation",
    "Presentation",
    "Diagnostic",
    "validate",
    "field_str",
    "render",
    "emit",
]


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class PathWord(NamedTuple):
    """A path in a quiver: a start vertex index and a tuple of arrow indices."""

    source: int
    arrows: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)


class Quiver:
    """A finite quiver with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows: tuple[Arrow, ...] = tuple(Arrow(*a) for a in arrows)
        self.v_index = {v: i for i, v in enumerate(self.vertices)}
        self.a_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.a_source = tuple(self.v_index.get(a.source, -1) for a in self.arrows)
        self.a_target = tuple(self.v_index.get(a.target, -1) for a in self.arrows)

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def path_target(self, word: PathWord) -> int:
        return self.a_target[word.arrows[-1]] if word.arrows else word.source

    def composable(self, arrows: tuple[int, ...]) -> bool:
        return all(self.a_target[arrows[i]] == self.a_source[arrows[i + 1]]
                   for i in range(len(arrows) - 1))

    def word(self, *arrow_names: str) -> PathWord:
        """Convenience constructor for a nonempty path from arrow names."""
        idx = tuple(self.a_index[n] for n in arrow_names)
        return PathWord(self.a_source[idx[0]], idx)

    def is_connected(self) -> bool:
        if len(self.vertices) <= 1:
            return True
        adj = {i: set() for i in range(len(self.vertices))}
        for s, t in zip(self.a_source, self.a_target):
            adj[s].add(t)
            adj[t].add(s)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class Relation:
    """A sum of coefficient-weighted parallel path words, asserted to vanish."""

    terms: tuple[tuple[int, PathWord], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Presentation:
    name: str
    gf: GF
    quiver: Quiver
    relations: tuple[Relation, ...]


class Diagnostic(NamedTuple):
    code: str
    message: str
    line: int = 0
    col: int = 0


def normalize_terms(gf: GF, terms) -> tuple[tuple[int, PathWord], ...]:
    """Merge duplicate words and drop zero coefficients; order is first-seen."""
    acc: dict[PathWord, int] = {}
    for coeff, word in terms:
        acc[word] = int(gf.add(acc.get(word, 0), coeff))
    return tuple((c, w) for w, c in acc.items() if c != 0)


def validate(pres: Presentation, allow_disconnected: bool = False) -> list[Diagnostic]:
    """Structural checks; an empty list means the presentation is well-formed."""
    out: list[Diagnostic] = []
    q = pres.quiver

    seen: dict[str, str] = {}
    for v in q.vertices:
        if v in seen:
            out.append(Diagnostic("duplicate-name", f"vertex {v!r} declared twice"))
        seen[v] = "vertex"
    for a in q.arrows:
        if a.name in seen:
            out.append(Diagnostic("duplicate-name",
                                  f"arrow {a.name!r} collides with a {seen[a.name]} name"))
        seen[a.name] = "arrow"
        for end in (a.source, a.target):
            if end not in q.v_index:
                out.append(Diagnostic("unknown-name",
                                      f"arrow {a.name!r} references unknown vertex {end!r}"))

    for rel in pres.relations:
        endpoints = None
        for coeff, word in rel.terms:
            if coeff % pres.gf.q != coeff or coeff == 0:
                out.append(Diagnostic("bad-coefficient",
                                      f"coefficient {coeff} is not a nonzero field element",
                                      rel.line, rel.col))
            if any(a < 0 or a >= len(q.arrows) for a in word.arrows):
                out.append(Diagnostic("unknown-name", "arrow index out of range",
                                      rel.line, rel.col))
                continue
            if not q.composable(word.arrows):
                out.append(Diagnostic("non-composable",
                                      "consecutive arrows do not compose", rel.line, rel.col))
                continue
            if len(word) < 2:
                out.append(Diagnostic("non-admissible",
                                      "relation terms must have length >= 2",
                                      rel.line, rel.col))
            ends = (word.source, q.path_target(word))
            if endpoints is None:
                endpoints = ends
            elif ends != endpoints:
                out.append(Diagnostic("non-parallel",
                                      "relation terms do not share source and target",
                                      rel.line, rel.col))
        if not rel.terms:
            out.append(Diagnostic("zero-relation",
                                  "relation cancels to zero", rel.line, rel.col))

    if not allow_disconnected and not q.is_connected():
        out.append(Diagnostic("disconnected", "quiver is not connected"))
    return out


def raise_first_error(diags: list[Diagnostic]) -> None:
    for d in diags:
        if d.code == "zero-relation":
            continue
        cls = {
            "unknown-name": UnknownName,
            "non-composable": NonComposablePath,
            "non-parallel": NonParallelRelation,
            "non-admissible": NonAdmissibleRelation,
        }.get(d.code)
        if cls is not None:
            raise cls(d.message, d.line, d.col)
        raise DslSyntaxError(f"[{d.code}] {d.message}", d.line, d.col)


# -- DSL emission --

def _coeff_str(gf: GF, c: int) -> str:
    if gf.e == 1:
        return str(c)
    digits = [(c // gf.p**i) % gf.p for i in range(gf.e)]
    parts = []
    for i in reversed(range(gf.e)):
        d = digits[i]
        if not d:
            continue
        if i == 0:
            parts.append(str(d))
        else:
            head = "" if d == 1 else f"{d}*"
            parts.append(f"{head}t" if i == 1 else f"{head}t^{i}")
    return "(" + (" + ".join(parts) if parts else "0") + ")"


def field_str(gf: GF) -> str:
    """The field as the DSL writes it: GF(p), GF(p^e) or GF(p^e, modulus)."""
    if gf.e == 1:
        return f"GF({gf.p})"
    if gf.modulus == default_modulus(gf.p, gf.e):
        return f"GF({gf.p}^{gf.e})"
    parts = []
    for i in reversed(range(gf.e + 1)):
        c = gf.modulus[i]
        if not c:
            continue
        head = "" if c == 1 or i == 0 else f"{c}*"
        parts.append(str(c) if i == 0 else (f"{head}t" if i == 1 else f"{head}t^{i}"))
    return f"GF({gf.p}^{gf.e}, {' + '.join(parts)})"


def word_str(q: Quiver, word: PathWord) -> str:
    if word.is_trivial:
        return f"e_{q.vertices[word.source]}"
    return "*".join(q.arrows[a].name for a in word.arrows)


def render(name: str, gf: GF, vertices, arrow_lines, relation_lines) -> str:
    """DSL source from its parts: each arrow and relation line is given whole,
    with its closing ';'."""
    lines = [f"algebra {name} over {field_str(gf)} {{",
             f"  vertices {', '.join(vertices)};", "  arrows {"]
    lines += [f"    {a}" for a in arrow_lines] + ["  }", "  relations {"]
    lines += [f"    {r}" for r in relation_lines] + ["  }", "}"]
    return "\n".join(lines) + "\n"


def emit(pres: Presentation) -> str:
    """Render a presentation as DSL source; parsing it back yields the same data."""
    q, gf = pres.quiver, pres.gf
    relations = [(" + ".join(word_str(q, w) if c == 1 else f"{_coeff_str(gf, c)}*{word_str(q, w)}"
                             for c, w in rel.terms) or "0") + ";" for rel in pres.relations]
    return render(pres.name, gf, q.vertices,
                  [f"{a.name}: {a.source} -> {a.target};" for a in q.arrows], relations)
