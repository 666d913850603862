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

import functools
import graphlib
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dsl import parse_element
from .errors import ConsistencyFailure, DegreeBoundExceeded, InfiniteDimensional
from .presentation import PathWord, Presentation, Quiver, word_str
from .sparse import Sparse, from_entries, product

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
    """Fully rewrite a {word: coeff} combination to its normal form; each word
    by the first rule in the map whose lead divides it (maps are in okey order)."""
    work = {w: c for w, c in poly.items() if c}
    todo = sorted(work, key=okey, reverse=True)
    while todo:
        w = todo.pop()
        c = work.get(w, 0)
        if not c:
            continue
        arr = w.arrows
        for lead in rules:
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


def _rule_map(rules) -> dict[PathWord, tuple]:
    """{lead: tail} in okey order of the leads, as _reduce reads it."""
    return {r.lead: r.tail for r in sorted(rules, key=lambda r: okey(r.lead))}


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

    @functools.cached_property
    def rule_map(self) -> dict[PathWord, tuple]:
        return {r.lead: r.tail for r in self.rules}  # complete sorts the rules by okey

    def reduce(self, poly: Poly) -> Poly:
        return _reduce(self.gf, poly, self.rule_map)

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
    active: dict[PathWord, tuple] = {}  # _rule_map(rules.values()), rebuilt as rules change
    next_id = 0
    pending: list[Poly] = [{w: c for c, w in rel.terms} for rel in pres.relations if rel.terms]
    pairs: list = []  # (ambiguity degree, tiebreak, id_u, id_v, a, b)
    tiebreak = 0

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
            poly = _reduce(gf, pending.pop(), active)
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
            active = _rule_map(rules.values())
            for sid in list(rules):
                enqueue(rid, sid)
                if sid != rid:
                    enqueue(sid, rid)
            continue
        _, _, i, j, a, b = heapq.heappop(pairs)
        if i not in rules or j not in rules:
            continue
        sp = _reduce(gf, _s_poly(gf, quiver, rules[i], rules[j], a, b), active)
        if sp:
            pending.append(sp)

    # normalize tails against the final system
    out = []
    for rule in rules.values():
        tail_poly = _reduce(gf, {w: c for c, w in rule.tail}, active)
        out.append(Rule(rule.lead, tuple((c, w) for w, c in
                                         sorted(tail_poly.items(), key=lambda i: okey(i[0])))))
    out.sort(key=lambda r: okey(r.lead))
    rs = RewriteSystem(pres, tuple(out))

    _certify(rs)
    return rs


def _certify(rs: RewriteSystem) -> None:
    """Re-check that the reduced system is locally confluent."""
    gf = rs.gf
    rmap = rs.rule_map
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

    successors = {state: [nxt for _, nxt in outs] for state, outs in edges.items()}
    try:
        graphlib.TopologicalSorter(successors).prepare()
    except graphlib.CycleError as err:  # err.args[1] lists the states of one cycle
        raise InfiniteDimensional(
            "normal words admit unbounded repetition "
            f"(cycle through vertex {quiver.vertices[err.args[1][0][0]]!r})") from None

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

    table is a (d*d, d) Sparse whose row j*d + i holds the coordinates of
    b_i * b_j, so rows j*d .. j*d + d - 1 are R_j, the matrix of right
    multiplication by b_j.  It stores only the nonzero constants, each with
    its row, so its size is the number of constants and no part of it has
    d*d entries.  The basis is ordered trivial paths first, then deglex.
    """

    rs: RewriteSystem
    basis: tuple[PathWord, ...]
    index: dict[PathWord, int]
    table: Sparse
    trivial_indices: tuple[int, ...]
    unit: np.ndarray
    # per table: closed words and positions, arrow actions, C, Z, K, socles, soc cap Z, T_n, b_i**p
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @functools.cached_property
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

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, m, c) over the stored constants: c is the b_m coefficient of b_i * b_j."""
        j, i = np.divmod(self.table.rows, self.dim)
        return i, j, self.table.indices, self.table.data


def normal_form(table: AlgebraTable, element) -> np.ndarray:
    """Coordinates of an element given as DSL expression text or a {word: coeff} dict."""
    if isinstance(element, str):
        element = parse_element(element, table.presentation)
    return table.coords(table.rs.reduce(element))


def build_table(rs: RewriteSystem) -> AlgebraTable:
    """Enumerate the basis and fill in structure constants, then audit them.

    Only the products b_i * s, s a trivial path or an arrow, that are not
    basis words (the normal words) are rewritten.  A longer basis word w*s
    (s its last arrow) gets R_(w*s) = R_w @ R_s, as b_i*(w*s) = (b_i*w)*s:
    normal words are prefix closed and the basis is deglex ordered (Bergman's
    diamond lemma), so one product per length stacks the R_w of the previous
    length, each moved to the column block of its s, over [R_a; R_b; ...].
    The audit (see _audit) checks the relations, the unit, associativity and
    factor closure; any failure raises ConsistencyFailure.  The table is read-only.
    """
    gf, quiver = rs.gf, rs.quiver
    basis = tuple(enumerate_basis(rs))
    index = {w: i for i, w in enumerate(basis)}
    d, t, rmap = len(basis), len(quiver.vertices), rs.rule_map
    lengths = [len(w.arrows) for w in basis]
    starts = np.searchsorted(lengths, np.arange(max(lengths[-1], 1) + 2))  # length L: starts[L] ..

    targets = np.array([quiver.path_target(w) for w in basis], dtype=np.int64)
    entries = []  # (row, column, value) of R_w for the trivial paths and the arrows w
    for k, w in enumerate(basis[:starts[2]]):
        for i in np.flatnonzero(targets == w.source):
            uw = PathWord(basis[i].source, basis[i].arrows + w.arrows)
            for v, c in ({uw: 1} if uw in index else _reduce(gf, {uw: 1}, rmap)).items():
                if v not in index:
                    raise ConsistencyFailure(
                        f"product reduced to non-basis word {word_str(quiver, v)}")
                entries.append((k * d + i, index[v], c))
    blocks = [from_entries(gf, (starts[2] * d, d), *np.array(entries, dtype=np.int64).T)]
    arrows = prev = blocks[0].take(np.arange(t * d, starts[2] * d))  # [R_a; R_b; ...]
    for below, lo, hi in zip(starts[1:], starts[2:], starts[3:]):  # words lo .. hi - 1: one length
        heads = [index.get(PathWord(w.source, w.arrows[:-1])) for w in basis[lo:hi]]
        lasts = [index.get(PathWord(quiver.a_source[w.arrows[-1]], w.arrows[-1:]))
                 for w in basis[lo:hi]]
        if None in heads or None in lasts:
            raise ConsistencyFailure("basis is not factor closed")
        # row k*d + i: b_i * (head of word lo + k), from its R_w read as one row of d*d
        stacked = prev.reshape((prev.shape[0] // d, d * d)).take(np.array(heads) - below)
        stacked = stacked.reshape(((hi - lo) * d, d))
        shift = ((np.array(lasts) - t) * d)[stacked.rows // d]
        prev = product(gf, Sparse((stacked.shape[0], arrows.shape[0]), stacked.rows,
                                  stacked.indices + shift, stacked.data), arrows)
        blocks.append(prev)

    trivial_indices = tuple(index[PathWord(v, ())] for v in range(len(quiver.vertices)))
    unit = np.zeros(d, dtype=np.int64)
    unit[list(trivial_indices)] = 1

    # each block is canonical, so stacked one after another they stay row-major
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    table = Sparse((d * d, d), np.concatenate([b.rows + o for b, o in zip(blocks, offsets)]),
                   np.concatenate([b.indices for b in blocks]),
                   np.concatenate([b.data for b in blocks]))
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

    For the generators s < g, column block s of table @ [R_0 | ... | R_(g-1)]
    is table @ R_s: ((b_i b_j) s)_y at row j*d + i.  Row block s of
    [R_0; ...; R_(g-1)] @ (table read as (d, d*d)) is R_s @ it: (b_i (b_j s))_y
    at row s*d + j, column i*d + y.  Both get the key ((s*d + j)*d + i)*d + y,
    one to one and below g*d**3 < 2**63.  Canonical entries (no zero, no
    repeat) agree for every s iff the sorted keys and values do, and the
    least key of a pair on one side only names the first failing s.
    """
    gf, d, table = at.gf, at.dim, at.table

    for rel in at.presentation.relations:
        if at.rs.reduce({w: c for c, w in rel.terms}):
            raise ConsistencyFailure("a defining relation does not reduce to zero")

    words, folds = [], []  # z and its row z1 * s of the table
    for k, w in enumerate(at.basis):
        if w.arrows:
            head = at.index.get(PathWord(w.source, w.arrows[:-1]))
            if head is None:
                raise ConsistencyFailure("basis is not prefix closed")
            tail = PathWord(at.quiver.a_target[w.arrows[0]], w.arrows[1:])
            last = at.index.get(PathWord(at.quiver.a_source[w.arrows[-1]], w.arrows[-1:]))
            if tail not in at.index or last is None:
                raise ConsistencyFailure("basis is not suffix closed")
            words.append(k)
            folds.append(last * d + head)
    words, folds = np.array(words, dtype=np.int64), np.array(folds, dtype=np.int64)
    first = np.searchsorted(table.rows, folds)
    ok = np.searchsorted(table.rows, folds, side="right") - first == 1
    ok[ok] = (table.indices[first[ok]] == words[ok]) & (table.data[first[ok]] == 1)
    if not ok.all():
        raise ConsistencyFailure(
            f"{at.word_name(int(words[~ok][0]))} is not its prefix times its last arrow")

    i, j, m, c = at.entries()
    eye = from_entries(gf, (d, d), np.arange(d), np.arange(d), np.ones(d, dtype=np.int64))
    trivial = np.isin(np.arange(d), at.trivial_indices)
    left = from_entries(gf, (d, d), j[trivial[i]], m[trivial[i]], c[trivial[i]])
    right = from_entries(gf, (d, d), i[trivial[j]], m[trivial[j]], c[trivial[j]])
    if left != eye or right != eye:
        raise ConsistencyFailure("unit does not act as two-sided identity")

    gen = j < (g := len(at.trivial_indices) + len(at.arrow_indices))
    lhs = product(gf, table, from_entries(gf, (d, g * d), i[gen], j[gen] * d + m[gen], c[gen]))
    rhs = product(gf, table.take(np.arange(g * d)), table.reshape((d, d * d)))
    keys = (lhs.indices // d * d * d + lhs.rows) * d + lhs.indices % d
    order = np.argsort(keys)
    keys, vals, want = keys[order], lhs.data[order], rhs.rows * d * d + rhs.indices
    if not (np.array_equal(keys, want) and np.array_equal(vals, rhs.data)):
        diff = set(zip(keys.tolist(), vals.tolist())) ^ set(zip(want.tolist(), rhs.data.tolist()))
        raise ConsistencyFailure(f"associativity fails against {at.word_name(min(diff)[0] // d**3)}")
