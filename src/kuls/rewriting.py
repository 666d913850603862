"""Rewriting-system completion for bound quiver algebras, and the
multiplication table of the quotient.

Words are compared in deglex order: first by length, then left to right
by arrow declaration index.  Relations are oriented largest word ->
rest, and completion resolves overlap ambiguities until every
S-polynomial reduces to zero.  The quotient is finite dimensional iff the
walk graph of lead-avoiding words is acyclic; its paths then spell the
monomial basis.  No pass re-checks the completion: build_table's audit
proves the table kQ/I on the normal words, which by Bergman's diamond
lemma certifies that the system is confluent.
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
    "fold",
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


def complete(pres: Presentation, degree_bound: int = 50) -> RewriteSystem:
    """Orient the relations and resolve all overlap ambiguities.

    The returned system is reduced (no lead divides another, tails are
    normal).  build_table's audit certifies it confluent (see _audit);
    complete alone does not, so rs.reduce without a table is uncertified.
    DegreeBoundExceeded guards runaway completions; raise the bound for
    deep relation words.  No rule is longer than the bound: a pending
    polynomial is a relation, checked on entry, the S-polynomial of an
    ambiguity, checked at enqueue, or a rule admitted earlier and re-pended,
    and deglex reduction never lengthens a word.
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
    return RewriteSystem(pres, tuple(out))


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
    """Structure constants of the quotient algebra on its monomial basis,
    ordered trivial paths first, then deglex, so the g generators (vertices
    and arrows) are b_0 .. b_(g-1).  right is R, the one stored product: a
    (g*d, d) Sparse whose row s*d + i holds b_i * b_s, so rows s*d .. s*d +
    d - 1 are R_s, the right multiplication by b_s.  folded holds b_x * b_j
    at row j*len(folded_rows) + k, x = folded_rows[k], as fold derives it
    from R: build_table folds the generators and the closed words, giving L
    (left) and C (structure.closed_algebra).  The full table is folded on
    first use.  factors is (heads, lasts), b_z = b_heads[z] * b_lasts[z]:
    the prefix of z times its last arrow (z twice if z is a trivial path),
    or None if folded covers every row.  A Sparse stores only the nonzero
    constants.
    """

    rs: RewriteSystem
    basis: tuple[PathWord, ...]
    index: dict[PathWord, int]
    right: Sparse
    folded_rows: np.ndarray
    folded: Sparse
    trivial_indices: tuple[int, ...]
    unit: np.ndarray
    factors: tuple[np.ndarray, np.ndarray] | None
    # per table: full table, closed words and positions, arrow actions, C, Z, K, socles, soc cap Z,
    # T_n, b_i**p
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

    @property
    def generators(self) -> int:
        """g, the number of basis words of length at most one."""
        return self.right.shape[0] // self.dim

    @functools.cached_property
    def arrow_indices(self) -> list[int]:
        """Basis indices of the arrows, in basis order."""
        return [self.index[w] for w in self.basis if len(w.arrows) == 1]

    @functools.cached_property
    def left(self) -> Sparse:
        """L, a (d*g, d) Sparse whose row j*g + s holds b_s * b_j for the
        generators s: cut from folded, whose first g left rows they are."""
        g, (j, k) = self.generators, np.divmod(self.folded.rows, self.folded_rows.size)
        keep = k < g
        return Sparse((self.dim * g, self.dim), j[keep] * g + k[keep], self.folded.indices[keep],
                      self.folded.data[keep])

    @property
    def table(self) -> Sparse:
        """The full (d*d, d) table, row j*d + i holding b_i * b_j: folded if it
        covers every row, else the fold of all d rows, made on first use."""
        if self.folded_rows.size < self.dim and "table" not in self.cache:
            self.cache["table"] = fold(self.rs, self.basis, self.factors, self.right,
                                       np.arange(self.dim))
        return self.cache.get("table", self.folded)

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
        """(i, j, m, c) over the full table: c is the b_m coefficient of b_i * b_j."""
        table = self.table
        j, i = np.divmod(table.rows, self.dim)
        return i, j, table.indices, table.data


def normal_form(table: AlgebraTable, element) -> np.ndarray:
    """Coordinates of an element given as DSL expression text or a {word: coeff} dict."""
    if isinstance(element, str):
        element = parse_element(element, table.presentation)
    return table.coords(table.rs.reduce(element))


def fold(rs: RewriteSystem, basis, factors, right: Sparse, rows: np.ndarray) -> Sparse:
    """The products of the left rows x in rows (sorted, the generators among
    them) with every basis word: row j*len(rows) + k holds b_(rows[k]) * b_j.
    factors is (heads, lasts), as AlgebraTable.factors.

    For a generator b_j they are rows of R.  A longer basis word w*s (s its
    last arrow) gets b_x*(w*s) = (b_x*w)*s: normal words are prefix closed
    and deglex ordered (Bergman's diamond lemma), so one product per length
    stacks the rows b_x*w of the previous length, each moved to the column
    block of its s, over [R_a; R_b; ...].
    """
    gf, d, p, (heads, lasts) = rs.gf, len(basis), rows.size, factors
    g = right.shape[0] // d
    lengths = [len(w.arrows) for w in basis]
    starts = np.searchsorted(lengths, np.arange(max(lengths[-1], 1) + 2))  # length L: starts[L] ..
    t = starts[1]
    slot = np.full(d, -1, dtype=np.int64)  # k for rows[k], -1 off rows
    slot[rows] = np.arange(p)
    k = slot[right.rows % d]
    keep = k >= 0
    blocks = [Sparse((g * p, d), right.rows[keep] // d * p + k[keep], right.indices[keep],
                     right.data[keep])]
    arrows, prev = right.take_range(t * d, g * d), blocks[0].take_range(t * p, g * p)
    for below, lo, hi in zip(starts[1:], starts[2:], starts[3:]):  # words lo .. hi - 1: one length
        # row k*p + x: b_(rows[x]) * (head of word lo + k), from its rows read as one row of p*d
        stacked = prev.reshape((prev.shape[0] // p, p * d)).take(heads[lo:hi] - below)
        stacked = stacked.reshape(((hi - lo) * p, d))
        shift = ((lasts[lo:hi] - t) * d)[stacked.rows // p]
        prev = product(gf, Sparse((stacked.shape[0], arrows.shape[0]), stacked.rows,
                                  stacked.indices + shift, stacked.data), arrows)
        blocks.append(prev)
    # each block is canonical, so stacked one after another they stay row-major
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    return Sparse((d * p, d), np.concatenate([b.rows + o for b, o in zip(blocks, offsets)]),
                  np.concatenate([b.indices for b in blocks]),
                  np.concatenate([b.data for b in blocks]))


def build_table(rs: RewriteSystem) -> AlgebraTable:
    """Enumerate the basis and check it prefix and suffix closed, so that
    every prefix and last arrow of a basis word is one (by induction on the
    length), and read off its factors (see AlgebraTable); rewrite R from the
    products b_i * s, s a vertex or an arrow, that are not basis words; fold
    the generators and the closed words (see fold), and audit (see _audit).
    Any failure raises ConsistencyFailure.  The table is read-only.
    """
    gf, quiver = rs.gf, rs.quiver
    basis = tuple(enumerate_basis(rs))
    index = {w: i for i, w in enumerate(basis)}
    d, t, rmap = len(basis), len(quiver.vertices), rs.rule_map
    heads, lasts = list(range(t)), list(range(t))
    for w in basis[t:]:
        head = index.get(PathWord(w.source, w.arrows[:-1]))
        if head is None:
            raise ConsistencyFailure("basis is not prefix closed")
        if PathWord(quiver.a_target[w.arrows[0]], w.arrows[1:]) not in index:
            raise ConsistencyFailure("basis is not suffix closed")
        # arrow a is b_(t+a): enumerate_basis keeps every arrow, in deglex order
        heads.append(head)
        lasts.append(t + w.arrows[-1])
    factors = (np.array(heads, dtype=np.int64), np.array(lasts, dtype=np.int64))

    g = int(np.searchsorted([len(w.arrows) for w in basis], 2))
    targets = np.array([quiver.path_target(w) for w in basis], dtype=np.int64)
    entries = []  # (row, column, value) of R
    for k, w in enumerate(basis[:g]):
        for i in np.flatnonzero(targets == w.source):
            uw = PathWord(basis[i].source, basis[i].arrows + w.arrows)
            for v, c in ({uw: 1} if uw in index else _reduce(gf, {uw: 1}, rmap)).items():
                if v not in index:
                    raise ConsistencyFailure(
                        f"product reduced to non-basis word {word_str(quiver, v)}")
                entries.append((k * d + i, index[v], c))
    right = from_entries(gf, (g * d, d), *np.array(entries, dtype=np.int64).T)

    trivial_indices = tuple(index[PathWord(v, ())] for v in range(len(quiver.vertices)))
    unit = np.zeros(d, dtype=np.int64)
    unit[list(trivial_indices)] = 1
    closed = targets == np.array([w.source for w in basis], dtype=np.int64)
    rows = np.flatnonzero(closed | (np.arange(d) < g))
    at = AlgebraTable(rs, basis, index, right, rows, fold(rs, basis, factors, right, rows),
                      trivial_indices, unit, factors)
    _audit(at)
    return at


def _audit(at: AlgebraTable) -> None:
    """Raise ConsistencyFailure unless the relations reduce to zero, R and
    L agree on the products of two generators, L_s R_t = R_t L_s, that is
    (s*x)*t = s*(x*t), for all generators s and t, and R holds the product
    of kQ/I wherever the words give it: z1 * s = z for each basis word z =
    z1 s of length >= 2 (the fold identity); e_u e_v = δ e_u, e_u a = δ a,
    a e_v = δ a and a b = 0 unless b follows a, as in kQ; and the tail of
    each rule at the row of its lead u s, s an arrow (the rule check).

    For a word x = s1 ... sk in the generators let 1.x = 1 R_s1 ... R_sk, 1
    the sum of the e_v.  The products of two generators, shared with L, give
    1 R_s = e_s = 1 L_s.  Moving L_s past each R_t, 1.(s x) = (1.x) L_s, so
    J = {x : 1.x = 0} is a two-sided ideal of the free algebra F on the
    generators.  By the fold identity and induction on the length, 1.z = e_z
    for every basis word z: x -> 1.x maps F/J onto T = GF**d, e_x e_y =
    1.(xy) = e_x R_y is the fold product, with two-sided unit 1 (the empty
    word's image), and e_j L_s = 1.b_j L_s = e_s R_(b_j) = b_s * b_j.  So T
    is associative, L its left multiplication.

    The rules lie in I, as completion only reduces and combines its elements,
    and the relations reduce to zero by them, so they generate I.  Every word
    completion makes has length >= 2, as validate requires of relation terms,
    so the generators are Q's vertices and arrows, and by their products
    p -> 1.p is an algebra map kQ -> T.  Its kernel holds I, as 1.(u s) =
    e_u R_s is the tail of u s, and it maps each normal word z to e_z.  The d
    normal words span kQ/I, so T is kQ/I and they are a basis of it: by
    Bergman's diamond lemma (Adv. Math. 29, 1978) every ambiguity of the
    rules resolves, and the audit certifies the completion.  A composable
    arrow pair is a path of kQ, pinned as a basis word or a lead.

    L @ [R_0 | ... | R_(g-1)] holds ((b_s b_j) b_t)_m at row j*g + s, column
    t*d + m, and R @ [L_0 | ... | L_(g-1)] holds (b_s (b_j b_t))_m at row
    t*d + j, column s*d + m.  Both get the key ((s*g + t)*d + j)*d + m, one
    to one and below g**2 * d**2.  Canonical entries agree iff the sorted
    keys and values do, and the least key on one side only names the first
    failing pair (s, t).
    """
    gf, d, g, t = at.gf, at.dim, at.generators, len(at.trivial_indices)
    right, left = at.right, at.left

    for rel in at.presentation.relations:
        if at.rs.reduce({w: c for c, w in rel.terms}):
            raise ConsistencyFailure("a defining relation does not reduce to zero")

    shared = right.rows % d < g  # b_i * b_s, both generators, at row s*d + i of R, s*g + i of L
    r = right.rows[shared]
    if left.take_range(0, g * g) != Sparse((g * g, d), r // d * g + r % d, right.indices[shared],
                                           right.data[shared]):
        raise ConsistencyFailure("R and L differ on a product of two generators")

    lhs = product(gf, left, from_entries(gf, (d, g * d), right.rows % d,
                                         right.rows // d * d + right.indices, right.data))
    rhs = product(gf, right, left.reshape((d, g * d)))
    lkey = (((lhs.rows % g) * g + lhs.indices // d) * d + lhs.rows // g) * d + lhs.indices % d
    rkey = ((rhs.indices // d * g + rhs.rows // d) * d + rhs.rows % d) * d + rhs.indices % d
    lo, ro = np.argsort(lkey), np.argsort(rkey)
    if not (np.array_equal(lkey[lo], rkey[ro]) and np.array_equal(lhs.data[lo], rhs.data[ro])):
        key = min(set(zip(lkey.tolist(), lhs.data.tolist()))
                  ^ set(zip(rkey.tolist(), rhs.data.tolist())))[0]
        (s, u), j = divmod(key // (d * d), g), key // d % d
        x, s, u = at.word_name(j), at.word_name(s), at.word_name(u)
        raise ConsistencyFailure(f"associativity fails: ({s}*{x})*{u} != {s}*({x}*{u})")

    ruled = []  # (row, column, value) of R; a value 0 pins a row with no entry
    for lead, tail in at.rs.rule_map.items():
        u = at.index.get(PathWord(lead.source, lead.arrows[:-1]))  # the lead is u a, a an arrow
        if u is None or not all(w in at.index for _, w in tail):
            raise ConsistencyFailure(f"the rule for {word_str(at.quiver, lead)} leaves the basis")
        row = (t + lead.arrows[-1]) * d + u  # arrow a is b_(t+a), as no lead is an arrow
        ruled += [(row, at.index[w], c) for c, w in tail] + [(row, 0, 0)]
    ends = np.array([[w.source, at.quiver.path_target(w)] for w in at.basis[:g]], dtype=np.int64)
    s, i = np.divmod(np.arange(g * g), g)  # b_i * b_s, at row s*d + i of R
    meet = ends[i, 1] == ends[s, 0]
    heads, lasts = (f[g:] for f in at.factors)
    cells = np.concatenate([  # the fold identity, the products in kQ, the rules
        np.stack([lasts * d + heads, np.arange(g, d), np.ones(d - g, dtype=np.int64)]),
        np.stack([s * d + i, np.where(i < t, s, i), meet])[:, ~meet | (i < t) | (s < t)],
        np.array(ruled, dtype=np.int64).reshape(-1, 3).T], axis=1)
    rows = np.sort(cells[0])
    rows = rows[np.diff(rows, prepend=-1) > 0]  # np.unique would import numpy.ma
    got, want = right.take(rows), from_entries(gf, (g * d, d), *cells).take(rows)
    if got != want:
        k = min(set(zip(got.rows.tolist(), got.indices.tolist(), got.data.tolist()))
                ^ set(zip(want.rows.tolist(), want.indices.tolist(), want.data.tolist())))[0]
        s, i = divmod(int(rows[k]), d)
        raise ConsistencyFailure(f"{at.word_name(i)}*{at.word_name(s)} is not its product in kQ/I")
