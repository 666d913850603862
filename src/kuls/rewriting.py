"""Rewriting-system completion for bound quiver algebras, and the
multiplication table of the quotient.

Words are compared in deglex order: first by length, then left to right
by arrow declaration index.  Relations are oriented largest word ->
rest, and completion resolves overlap ambiguities until every
S-polynomial reduces to zero (the diamond lemma).  The quotient is
finite dimensional iff the walk graph of lead-avoiding words is
acyclic; its paths then spell the monomial basis.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyFailure, DegreeBoundExceeded, InfiniteDimensional
from .presentation import PathWord, Presentation, Quiver, word_str

__all__ = [
    "Rule",
    "RewriteSystem",
    "complete",
    "enumerate_basis",
    "AlgebraTable",
    "build_table",
    "normal_form",
]

Poly = dict  # PathWord -> nonzero encoded scalar


def okey(w: PathWord):
    """Deglex sort key; trivial paths order by vertex index."""
    return (len(w.arrows), w.arrows, w.source)


class Rule(NamedTuple):
    lead: PathWord
    tail: tuple[tuple[int, PathWord], ...]  # lead rewrites to sum of smaller words


def _find_factor(word: tuple[int, ...], lead: tuple[int, ...]) -> int:
    n, m = len(word), len(lead)
    if m > n:
        return -1
    first = lead[0]
    for i in range(n - m + 1):
        if word[i] == first and word[i:i + m] == lead:
            return i
    return -1


def _reduce(gf, poly: Poly, rules: dict[PathWord, tuple]) -> Poly:
    """Fully rewrite a {word: coeff} combination to its normal form."""
    work = {w: c for w, c in poly.items() if c}
    if not rules:
        return work
    leads = sorted(rules, key=okey)
    todo = sorted(work, key=okey, reverse=True)
    while todo:
        w = todo.pop()
        c = work.get(w, 0)
        if not c:
            continue
        arr = w.arrows
        for lead in leads:
            la = lead.arrows
            pos = _find_factor(arr, la)
            if pos < 0:
                continue
            del work[w]
            pre, post = arr[:pos], arr[pos + len(la):]
            for tc, tw in rules[lead]:
                nw = PathWord(w.source, pre + tw.arrows + post)
                nc = gf.sadd(work.get(nw, 0), gf.smul(c, tc))
                if nc:
                    work[nw] = nc
                    todo.append(nw)
                else:
                    work.pop(nw, None)
            break
    return work


def _make_rule(gf, poly: Poly) -> Rule:
    lead = max(poly, key=okey)
    scale = gf.sneg(gf.sinv(poly[lead]))
    tail = tuple((gf.smul(scale, c), w) for w, c in sorted(poly.items(), key=lambda i: okey(i[0]))
                 if w != lead)
    return Rule(lead, tail)


def _rule_poly(gf, rule: Rule) -> Poly:
    poly = {rule.lead: 1}
    for c, w in rule.tail:
        poly[w] = gf.sneg(c)
    return poly


def _overlaps(u: tuple[int, ...], v: tuple[int, ...]):
    """Yield (a, b): u = a+s, v = s+b with s a nonempty proper shared piece."""
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k:] == v[:k]:
            yield u[:len(u) - k], v[k:]


def _s_poly(gf, quiver: Quiver, ru: Rule, rv: Rule, a: tuple, b: tuple) -> Poly:
    """ru.tail*b - a*rv.tail for the ambiguity word W = ru.lead + b = a + rv.lead."""
    src = quiver.a_source[a[0]] if a else ru.lead.source
    poly: Poly = {}
    for c, w in ru.tail:
        nw = PathWord(src, w.arrows + b)
        poly[nw] = gf.sadd(poly.get(nw, 0), c)
    for c, w in rv.tail:
        nw = PathWord(src, a + w.arrows)
        poly[nw] = gf.sadd(poly.get(nw, 0), gf.sneg(c))
    return {w: c for w, c in poly.items() if c}


@dataclass(frozen=True)
class RewriteSystem:
    presentation: Presentation
    rules: tuple[Rule, ...]

    @property
    def gf(self):
        return self.presentation.gf

    @property
    def quiver(self) -> Quiver:
        return self.presentation.quiver

    def rule_map(self) -> dict[PathWord, tuple]:
        return {r.lead: r.tail for r in self.rules}

    def reduce(self, poly: Poly) -> Poly:
        return _reduce(self.gf, poly, self.rule_map())

    def is_normal(self, word: PathWord) -> bool:
        return all(_find_factor(word.arrows, r.lead.arrows) < 0 for r in self.rules)


def complete(pres: Presentation, degree_bound: int = 50) -> RewriteSystem:
    """Orient the relations and resolve all overlap ambiguities.

    The returned system is reduced (no lead divides another, tails are
    normal) and certified locally confluent.  DegreeBoundExceeded guards
    runaway completions; raise the bound for deep relation words.
    """
    gf = pres.gf
    quiver = pres.quiver
    max_rel = max((len(w) for rel in pres.relations for _, w in rel.terms), default=0)
    if degree_bound < max_rel:
        raise DegreeBoundExceeded(
            f"degree bound {degree_bound} is below the longest relation term ({max_rel})")

    rules: dict[int, Rule] = {}
    next_id = 0
    pending: list[Poly] = [{w: c for c, w in rel.terms} for rel in pres.relations if rel.terms]
    pairs: list = []  # (ambiguity degree, tiebreak, id_u, id_v, a, b)
    tiebreak = 0

    def active_map() -> dict[PathWord, tuple]:
        return {r.lead: r.tail for r in rules.values()}

    def enqueue(i: int, j: int):
        nonlocal tiebreak
        u, v = rules[i].lead.arrows, rules[j].lead.arrows
        for a, b in _overlaps(u, v):
            deg = len(u) + len(b)  # length of the ambiguity word W = u + b
            if deg > degree_bound:
                raise DegreeBoundExceeded(
                    f"overlap ambiguity of degree {deg} exceeds bound {degree_bound}")
            heapq.heappush(pairs, (deg, tiebreak, i, j, a, b))
            tiebreak += 1

    while pending or pairs:
        if pending:
            pending.sort(key=lambda p: okey(max(p, key=okey)), reverse=True)
            poly = _reduce(gf, pending.pop(), active_map())
            if not poly:
                continue
            rule = _make_rule(gf, poly)
            if len(rule.lead.arrows) > degree_bound:
                raise DegreeBoundExceeded(
                    f"rule of degree {len(rule.lead.arrows)} exceeds bound {degree_bound}")
            for rid in list(rules):
                if _find_factor(rules[rid].lead.arrows, rule.lead.arrows) >= 0:
                    pending.append(_rule_poly(gf, rules.pop(rid)))
            rid = next_id
            next_id += 1
            rules[rid] = rule
            for sid in list(rules):
                enqueue(rid, sid)
                if sid != rid:
                    enqueue(sid, rid)
            continue
        _, _, i, j, a, b = heapq.heappop(pairs)
        if i not in rules or j not in rules:
            continue
        sp = _reduce(gf, _s_poly(gf, quiver, rules[i], rules[j], a, b), active_map())
        if sp:
            pending.append(sp)

    # normalize tails against the final system
    final = active_map()
    out = []
    for rule in rules.values():
        tail_poly = _reduce(gf, {w: c for c, w in rule.tail}, final)
        out.append(Rule(rule.lead, tuple((c, w) for w, c in
                                         sorted(tail_poly.items(), key=lambda i: okey(i[0])))))
    out.sort(key=lambda r: okey(r.lead))
    rs = RewriteSystem(pres, tuple(out))

    _certify(rs)
    return rs


def _certify(rs: RewriteSystem) -> None:
    """Re-check that the reduced system is locally confluent."""
    gf = rs.gf
    rmap = rs.rule_map()
    leads = [r.lead for r in rs.rules]
    for li in leads:
        for lj in leads:
            if _find_factor(li.arrows, lj.arrows) >= 0 and li != lj:
                raise ConsistencyFailure(
                    f"lead {word_str(rs.quiver, li)} divisible by {word_str(rs.quiver, lj)}")
    for ri in rs.rules:
        for rj in rs.rules:
            for a, b in _overlaps(ri.lead.arrows, rj.lead.arrows):
                if _reduce(gf, _s_poly(gf, rs.quiver, ri, rj, a, b), rmap):
                    raise ConsistencyFailure(
                        "unresolved overlap between "
                        f"{word_str(rs.quiver, ri.lead)} and {word_str(rs.quiver, rj.lead)}")


def enumerate_basis(rs: RewriteSystem) -> list[PathWord]:
    """All normal words, or raise InfiniteDimensional.

    Walk states are (vertex, last window arrows) pairs; a step appending
    arrow a is allowed when no lead is a suffix of window+a.  Normal
    words correspond bijectively to walks from trivial states, so the
    quotient is finite dimensional iff the reachable graph is acyclic.
    """
    quiver = rs.quiver
    leads = {r.lead.arrows for r in rs.rules}
    window = max((len(a) for a in leads), default=1) - 1
    by_source: list[list[int]] = [[] for _ in quiver.vertices]
    for a in range(len(quiver.arrows)):
        by_source[quiver.a_source[a]].append(a)

    def step(win: tuple[int, ...], arrow: int):
        cand = win + (arrow,)
        for k in range(2, len(cand) + 1):
            if cand[len(cand) - k:] in leads:
                return None
        return cand if len(cand) <= window else cand[1:]

    starts = [(v, ()) for v in range(len(quiver.vertices))]
    edges: dict[tuple, list[tuple[int, tuple]]] = {}
    queue = deque(starts)
    seen = set(starts)
    while queue:
        state = queue.popleft()
        v, win = state
        outs = []
        for a in by_source[v]:
            nwin = step(win, a)
            if nwin is None:
                continue
            nxt = (quiver.a_target[a], nwin)
            outs.append((a, nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        edges[state] = outs

    # iterative three-color cycle detection
    color: dict[tuple, int] = {}
    for root in starts:
        if color.get(root):
            continue
        stack = [(root, iter(edges[root]))]
        color[root] = 1
        while stack:
            state, it = stack[-1]
            advanced = False
            for _, nxt in it:
                c = color.get(nxt, 0)
                if c == 1:
                    raise InfiniteDimensional(
                        "normal words admit unbounded repetition "
                        f"(cycle through vertex {quiver.vertices[nxt[0]]!r})")
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[state] = 2
                stack.pop()

    words: list[PathWord] = []
    for v, _ in starts:
        stack2 = [((v, ()), ())]
        while stack2:
            state, arrows = stack2.pop()
            words.append(PathWord(v, arrows))
            for a, nxt in edges[state]:
                stack2.append((nxt, arrows + (a,)))
    words.sort(key=okey)
    return words


@dataclass
class AlgebraTable:
    """Structure constants of the quotient algebra on its monomial basis.

    table[i, j, m] is the b_m coefficient of b_i * b_j.  The basis is
    ordered trivial paths first, then deglex.
    """

    rs: RewriteSystem
    basis: tuple[PathWord, ...]
    index: dict[PathWord, int]
    table: np.ndarray
    trivial_indices: tuple[int, ...]
    unit: np.ndarray
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # Z, K, soc

    @property
    def presentation(self) -> Presentation:
        return self.rs.presentation

    @property
    def gf(self):
        return self.rs.gf

    @property
    def quiver(self) -> Quiver:
        return self.rs.quiver

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def arrow_indices(self) -> list[int]:
        """Basis indices of the arrows, in basis order."""
        return [self.index[w] for w in self.basis if len(w.arrows) == 1]

    def word_name(self, i: int) -> str:
        return word_str(self.quiver, self.basis[i])

    def coords(self, poly: Poly) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        for w, c in poly.items():
            i = self.index.get(w)
            if i is None:
                raise ConsistencyFailure(f"{word_str(self.quiver, w)} is not a basis word")
            v[i] = c
        return v

    def normal_form(self, element) -> np.ndarray:
        return normal_form(self, element)

    def lengths(self) -> np.ndarray:
        return np.array([len(w.arrows) for w in self.basis], dtype=np.int64)


def normal_form(table: AlgebraTable, element) -> np.ndarray:
    """Coordinates of an element given as DSL expression text or a {word: coeff} dict."""
    if isinstance(element, str):
        from .dsl import parse_element
        element = parse_element(element, table.presentation)
    return table.coords(table.rs.reduce(element))


def build_table(rs: RewriteSystem) -> AlgebraTable:
    """Enumerate the basis and fill in structure constants, then audit them.

    The audit checks that relations vanish, the unit acts as identity,
    multiplication is associative (see _audit), and the basis is factor
    closed; any failure raises ConsistencyFailure.  The table is read-only.
    """
    gf = rs.gf
    quiver = rs.quiver
    basis = tuple(enumerate_basis(rs))
    index = {w: i for i, w in enumerate(basis)}
    d = len(basis)
    table = np.zeros((d, d, d), dtype=np.int64)
    rmap = rs.rule_map()

    targets = [quiver.path_target(w) for w in basis]
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if targets[i] != v.source:
                continue
            if u.is_trivial:
                table[i, j, j] = 1
                continue
            if v.is_trivial:
                table[i, j, i] = 1
                continue
            prod = _reduce(gf, {PathWord(u.source, u.arrows + v.arrows): 1}, rmap)
            for w, c in prod.items():
                m = index.get(w)
                if m is None:
                    raise ConsistencyFailure(
                        f"product reduced to non-basis word {word_str(quiver, w)}")
                table[i, j, m] = c

    trivial_indices = tuple(index[PathWord(v, ())] for v in range(len(quiver.vertices)))
    unit = np.zeros(d, dtype=np.int64)
    unit[list(trivial_indices)] = 1

    table.flags.writeable = False
    at = AlgebraTable(rs, basis, index, table, trivial_indices, unit)
    _audit(at)
    return at


def _audit(at: AlgebraTable) -> None:
    """Raise ConsistencyFailure unless relations vanish, the basis is prefix
    and suffix closed, the trivial paths sum to a two-sided unit, the fold
    identity z1 * s = z holds for every basis word z = z1 s ending in an
    arrow s, and (b_i b_j) s = b_i (b_j s) for every s a trivial path or arrow.

    The last two give (xy)z = x(yz) on all basis triples, by induction on
    the length of z.  A trivial z is a generator.  For z = z1 s (z1 and s
    basis words by prefix and suffix closure),
    (xy)z = (xy)(z1 s) = ((xy)z1)s = (x(y z1))s = x((y z1)s) = x(y(z1 s)) = x(yz):
    the fold identity gives the first and last steps, the induction
    hypothesis the third, and the generator check (bilinear in x, y) the rest.
    """
    gf, d, table = at.gf, at.dim, at.table

    for rel in at.presentation.relations:
        if at.rs.reduce({w: c for c, w in rel.terms}):
            raise ConsistencyFailure("a defining relation does not reduce to zero")

    eye = np.eye(d, dtype=np.int64)
    for k, w in enumerate(at.basis):
        if w.arrows:
            head = at.index.get(PathWord(w.source, w.arrows[:-1]))
            if head is None:
                raise ConsistencyFailure("basis is not prefix closed")
            tail = PathWord(at.quiver.a_target[w.arrows[0]], w.arrows[1:])
            last = at.index.get(PathWord(at.quiver.a_source[w.arrows[-1]], w.arrows[-1:]))
            if tail not in at.index or last is None:
                raise ConsistencyFailure("basis is not suffix closed")
            if not np.array_equal(table[head, last], eye[k]):
                raise ConsistencyFailure(f"{at.word_name(k)} is not its prefix times its last arrow")

    left = np.zeros((d, d), dtype=np.int64)
    right = np.zeros((d, d), dtype=np.int64)
    for t in at.trivial_indices:
        left = gf.add(left, table[t, :, :])
        right = gf.add(right, table[:, t, :])
    if not (np.array_equal(left, eye) and np.array_equal(right, eye)):
        raise ConsistencyFailure("unit does not act as two-sided identity")

    pairs = table.reshape(d * d, d)                    # [i*d+j, m] = (b_i b_j)_m
    rows = table.transpose(0, 2, 1).reshape(d * d, d)  # [i*d+l, m] = (b_i b_m)_l
    for s in list(at.trivial_indices) + at.arrow_indices:
        lhs = gf.matmul(pairs, table[:, s, :]).reshape(d, d, d)   # (b_i b_j) s
        rhs = gf.matmul(rows, table[:, s, :].T).reshape(d, d, d)  # b_i (b_j s) at [i, l, j]
        if not np.array_equal(lhs, rhs.transpose(0, 2, 1)):
            raise ConsistencyFailure(f"associativity fails against {at.word_name(s)}")
