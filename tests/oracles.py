"""Independent cross-checks computed without the rewriting machinery."""
from __future__ import annotations

import dataclasses
import graphlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from kuls.errors import (ConsistencyFailure, DimensionMismatch, InfiniteDimensional,
                         InvariantViolation, NotNilpotent, NotSymmetric)
from kuls.form import SymmetrizingForm, _socle_word_indices, orthogonal
from kuls.linalg import (Subspace, _check_compatible, contains, contains_subspace, kernel,
                         reduce_mod, row_space, rref, zero_subspace)
from kuls.presentation import PathWord, word_str
from kuls.rewriting import AlgebraTable, Walk, _reduce, fold, okey
from kuls.reynolds import ReynoldsReport, ReynoldsRow, reynolds_ideal
from kuls.sparse import contract, from_entries, product
from kuls.structure import center, multiply, power

__all__ = ["reference_basis", "path_quotient_dim", "rank_mod_p", "all_pairs_commutator_space",
           "all_pairs_center", "all_pairs_socles", "is_associative",
           "naive_matmul", "naive_rref", "dense_reference_table", "dense_table",
           "table_from_dense", "reference_audit", "left_mult_matrix", "right_mult_matrix", "solve",
           "XiMap", "xi_map", "direct_kuelshammer_space", "dense_reynolds_report",
           "dense_consistent_psi", "dense_gram", "field_pow", "frob", "field_inv", "field_div",
           "full_space", "subspace_sum", "intersect", "enumerated_kernel", "span_members",
           "two_elimination_kernel"]


def reference_basis(rs) -> Walk:
    """The walk of rewriting.enumerate_basis, made the slow way: every word by
    a depth-first search from each trivial state, all of them sorted in
    deglex order, then each word's prefix, last arrow, source and target
    looked up by its PathWord, and its length counted (InfiniteDimensional
    as there, ConsistencyFailure unless the words are prefix and suffix
    closed)."""
    quiver = rs.quiver
    leads = {r.lead.arrows for r in rs.rules}
    window = max((len(a) for a in leads), default=1) - 1
    by_source = [[] for _ in quiver.vertices]
    for a in range(len(quiver.arrows)):
        by_source[quiver.a_source[a]].append(a)

    def step(win, arrow):
        cand = win + (arrow,)
        for k in range(2, len(cand) + 1):
            if cand[len(cand) - k:] in leads:
                return None
        return cand if len(cand) <= window else cand[1:]

    starts = [(v, ()) for v in range(len(quiver.vertices))]
    edges, queue, seen = {}, deque(starts), set(starts)
    while queue:
        state = queue.popleft()
        edges[state] = []
        for a in by_source[state[0]]:
            nwin = step(state[1], a)
            if nwin is not None:
                nxt = (quiver.a_target[a], nwin)
                edges[state].append((a, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    try:
        graphlib.TopologicalSorter({s: [n for _, n in out] for s, out in edges.items()}).prepare()
    except graphlib.CycleError:
        raise InfiniteDimensional("normal words admit unbounded repetition") from None

    words = []
    for v, _ in starts:
        stack = [((v, ()), ())]
        while stack:
            state, arrows = stack.pop()
            words.append(PathWord(v, arrows))
            stack += [(nxt, arrows + (a,)) for a, nxt in edges[state]]
    words.sort(key=okey)
    index = {w: i for i, w in enumerate(words)}
    heads, lasts = [], []
    for k, w in enumerate(words):
        if not w.arrows:
            heads.append(k)
            lasts.append(k)
            continue
        head = index.get(PathWord(w.source, w.arrows[:-1]))
        last = index.get(PathWord(quiver.a_source[w.arrows[-1]], w.arrows[-1:]))
        if head is None:
            raise ConsistencyFailure("basis is not prefix closed")
        if PathWord(quiver.a_target[w.arrows[0]], w.arrows[1:]) not in index or last is None:
            raise ConsistencyFailure("basis is not suffix closed")
        heads.append(head)
        lasts.append(last)
    per_word = (heads, lasts, [w.source for w in words], [quiver.path_target(w) for w in words],
                [len(w.arrows) for w in words])
    return Walk(words, *(np.array(f, dtype=np.int64) for f in per_word))


def dense_reference_table(rs) -> np.ndarray:
    """table[i, j, m], the b_m coefficient of b_i * b_j, by rewriting every
    composable product of two basis words (d**2 reductions, no fold)."""
    gf, quiver = rs.gf, rs.quiver
    basis = reference_basis(rs).words
    index = {w: i for i, w in enumerate(basis)}
    d = len(basis)
    table = np.zeros((d, d, d), dtype=np.int64)
    rmap = rs.rule_map
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
    return table


def dense_gram(f: SymmetrizingForm) -> np.ndarray:
    """gram[i, j] = psi(b_i * b_j): psi[m] * c summed over the stored
    constants (i, j, m, c).  f need not be validated."""
    at, d = f.table, f.table.dim
    i, j, m, c = at.entries()
    return contract(at.gf, [(f.psi.reshape(1, d), m)], c, i * d + j, d * d).reshape(d, d)


def dense_table(at) -> np.ndarray:
    """at's structure constants as a dense table[i, j, m] = (b_i * b_j)_m."""
    i, j, m, c = at.entries()
    table = np.zeros((at.dim,) * 3, dtype=np.int64)
    table[i, j, m] = c
    return table


def table_from_dense(at, dense) -> AlgebraTable:
    """A table over at's basis whose generator block R holds dense[i, s, m]
    for the generators s < g, with every other product folded from it
    (rewriting.fold), as build_table does; the rest of dense is not read.
    Not audited."""
    d, g = at.dim, at.generators
    block = np.asarray(dense)[:, :g].transpose(1, 0, 2).reshape(g * d, d)  # row s*d + i: b_i * s
    rows, cols = np.nonzero(block)
    right = from_entries(at.gf, (g * d, d), rows, cols, block[rows, cols])
    return dataclasses.replace(at, right=right,
                               folded=fold(at.rs, at.lengths, at.factors, right, at.folded_rows))


def reference_radical(at) -> Subspace:
    """The span of the words of length >= 1, NotNilpotent unless it is
    nilpotent, by the d-wide loop: T_1 spans the arrows and T_(k+1) = T_k *
    arrows the length-(k+1) path images, one contraction per arrow with the
    block R_a, and rad**m is the sum of the T_k for k >= m, so the radical
    is nilpotent iff some T_k (k <= d) vanishes."""
    d, gf = at.dim, at.gf
    eye = np.eye(d, dtype=np.int64)
    rad = row_space(gf, eye[at.lengths >= 1], d)
    arrows = [at.right.take_range(a * d, (a + 1) * d)  # R_a
              for a in range(len(at.trivial_indices), at.generators)]
    t = row_space(gf, eye[at.lengths == 1], d)
    steps = 1
    while t.dim:
        if steps > d:
            raise NotNilpotent("arrow products never die out; the relations are not admissible")
        t = row_space(gf, np.vstack([contract(gf, [(t.basis, r.rows)], r.data, r.indices, d)
                                     for r in arrows]), d)
        steps += 1
    return rad


def reference_audit(at) -> None:
    """The d-wide audit of the full table: ConsistencyFailure unless the
    relations vanish, the basis is prefix and suffix closed, the trivial
    paths sum to a two-sided unit, the fold identity z1 * s = z holds for
    every basis word z = z1 s ending in an arrow s, and (b_i b_j) s =
    b_i (b_j s) for all i, j and every generator s.

    The last two give (xy)z = x(yz) on all basis triples, by induction on
    the length of z: for z = z1 s, (xy)(z1 s) = ((xy)z1)s = (x(y z1))s =
    x((y z1)s) = x(y(z1 s)).  For the generators s < g, column block s of
    table @ [R_0 | ... | R_(g-1)] holds ((b_i b_j) s)_y at row j*d + i, and
    row block s of [R_0; ...; R_(g-1)] @ (table read as (d, d*d)) holds
    (b_i (b_j s))_y at row s*d + j, column i*d + y; both get the key
    ((s*d + j)*d + i)*d + y, below g*d**3.
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

    gen = j < (g := at.generators)
    lhs = product(gf, table, from_entries(gf, (d, g * d), i[gen], j[gen] * d + m[gen], c[gen]))
    rhs = product(gf, table.take(np.arange(g * d)), table.reshape((d, d * d)))
    keys = (lhs.indices // d * d * d + lhs.rows) * d + lhs.indices % d
    order = np.argsort(keys)
    keys, vals, want = keys[order], lhs.data[order], rhs.rows * d * d + rhs.indices
    if not (np.array_equal(keys, want) and np.array_equal(vals, rhs.data)):
        diff = set(zip(keys.tolist(), vals.tolist())) ^ set(zip(want.tolist(), rhs.data.tolist()))
        raise ConsistencyFailure(f"associativity fails against {at.word_name(min(diff)[0] // d**3)}")


def left_mult_matrix(at, x) -> np.ndarray:
    """Matrix of y -> x*y acting on row coordinate vectors: (x*b_j)_l; (r, d, d) for a stack."""
    d = at.dim
    x = np.asarray(x, dtype=np.int64)
    i, j, m, c = at.entries()
    out = contract(at.gf, [(x.reshape(-1, d), i)], c, j * d + m, d * d)
    return out.reshape(x.shape[:-1] + (d, d))


def right_mult_matrix(at, x) -> np.ndarray:
    """Matrix of y -> y*x: rows are (b_i*x)_l."""
    d = at.dim
    x = np.asarray(x, dtype=np.int64)
    i, j, m, c = at.entries()
    out = contract(at.gf, [(x.reshape(-1, d), j)], c, i * d + m, d * d)
    return out.reshape(x.shape[:-1] + (d, d))


def naive_matmul(gf, a, b) -> np.ndarray:
    """gf.matmul's contract from scalar sadd/smul: 1-D operands as rows."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i, j in np.ndindex(out.shape):
        acc = 0
        for k in range(a.shape[1]):
            acc = gf.sadd(acc, gf.smul(int(a[i, k]), int(b[k, j])))
        out[i, j] = acc
    return out


def field_pow(gf, a, n: int) -> np.ndarray:
    """Elementwise a**n for n >= 0 by square-and-multiply through gf.mul."""
    a = np.asarray(a, dtype=np.int64)
    out = np.ones(a.shape, dtype=np.int64)
    while n:
        out = gf.mul(out, a) if n & 1 else out
        a, n = gf.mul(a, a), n >> 1
    return out


def frob(gf, a, n: int = 1) -> np.ndarray:
    """Elementwise Frobenius x -> x**(p**n), with no reduction of n mod e."""
    return field_pow(gf, a, gf.p ** n)


def field_inv(gf, a) -> np.ndarray:
    """Elementwise 1/a = a**(q - 2); zero has no inverse."""
    if np.any(np.asarray(a) == 0):
        raise ZeroDivisionError("inverting zero field element")
    return field_pow(gf, a, gf.q - 2)


def field_div(gf, a, b) -> np.ndarray:
    return gf.mul(a, field_inv(gf, b))


def full_space(gf, n: int) -> Subspace:
    return Subspace(gf, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return row_space(a.gf, np.vstack([a.basis, b.basis]), a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row reduce [[A A], [B 0]]; rows of the form (0 | c) span the intersection."""
    _check_compatible(a, b)
    gf, n = a.gf, a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(gf, n)
    top = np.hstack([a.basis, a.basis])
    bot = np.hstack([b.basis, np.zeros_like(b.basis)])
    r, pivots = rref(gf, np.vstack([top, bot]))
    rows = [r[i, n:] for i, c in enumerate(pivots) if c >= n]
    if not rows:
        return zero_subspace(gf, n)
    return row_space(gf, np.array(rows), n)


def enumerated_kernel(gf, m, n: int) -> np.ndarray:
    """Every x in GF(q)**n with m @ x = 0, found by trying all q**n vectors,
    2**12 at a time (no linalg): the rows of the result are the members, in
    order of their base-q codes, coordinate 0 fastest."""
    m = np.asarray(m, dtype=np.int64).reshape(-1, n)
    found = [np.zeros((0, n), dtype=np.int64)]
    for lo in range(0, gf.q ** n, 2**12):
        codes = np.arange(lo, min(lo + 2**12, gf.q ** n), dtype=np.int64)
        xs = (codes[:, None] // gf.q ** np.arange(n, dtype=np.int64)) % gf.q
        acc = np.zeros((codes.size, m.shape[0]), dtype=np.int64)
        for k in range(n):  # m @ x = sum over k of x_k times column k of m
            acc = gf.add(acc, gf.mul(xs[:, k:k + 1], m[:, k]))
        found.append(xs[~acc.any(axis=1)])
    return np.vstack(found)


def span_members(s: Subspace) -> np.ndarray:
    """Every member of s, as enumerated_kernel orders them: all q**dim
    combinations of the basis rows, sorted by base-q code."""
    gf, n = s.gf, s.ambient_dim
    combos = np.arange(gf.q ** s.dim, dtype=np.int64)
    coeffs = (combos[:, None] // gf.q ** np.arange(s.dim, dtype=np.int64)) % gf.q
    members = np.zeros((combos.size, n), dtype=np.int64)
    for k in range(s.dim):
        members = gf.add(members, gf.mul(coeffs[:, k:k + 1], s.basis[k]))
    return members[np.argsort(members @ gf.q ** np.arange(n, dtype=np.int64))]


def two_elimination_kernel(gf, m, n: int | None = None) -> Subspace:
    """linalg.kernel in its earlier form, kept as a reference: the RREF of
    the row space, one vector per free column, then a second RREF of them."""
    rs = row_space(gf, m, n)
    n = rs.ambient_dim
    free = sorted(set(range(n)) - set(rs.pivots))
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(rs.pivots)] = gf.neg(rs.basis[:, free].T)
    return row_space(gf, basis, n)


def naive_rref(gf, rows) -> tuple[np.ndarray, list[int]]:
    """linalg.rref's contract from scalar sadd/smul/sinv elimination over any GF.

    Same pivot rule (first nonzero entry at or below the current row, columns
    left to right) and the same row swaps, so the whole matrix, zero rows
    included, must match, not only the pivot rows.
    """
    a = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    m = [[int(x) for x in row] for row in a]
    pivots = []
    for col in range(a.shape[1]):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = gf.sinv(m[rank][col])
        m[rank] = [gf.smul(inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = gf.sneg(m[r][col])
                m[r] = [gf.sadd(x, gf.smul(factor, y)) for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return np.array(m, dtype=np.int64).reshape(a.shape), pivots


def all_pairs_commutator_space(at):
    """K(A) as the span of all d**2 commutators [b_i, b_j] of basis words."""
    d, table = at.dim, dense_table(at)
    diffs = at.gf.sub(table, table.transpose(1, 0, 2)).reshape(d * d, d)
    return row_space(at.gf, diffs, d)


def all_pairs_center(at) -> Subspace:
    """Z(A) as the x with x*b_j = b_j*x for every basis word b_j: the kernel
    of the d**2 rows (j, m) whose entry i is (b_i b_j - b_j b_i)_m."""
    d, table = at.dim, dense_table(at)
    diffs = at.gf.sub(table, table.transpose(1, 0, 2))  # [i, j, m]
    return kernel(at.gf, diffs.transpose(1, 2, 0).reshape(d * d, d), d)


def all_pairs_socles(at) -> tuple[Subspace, Subspace]:
    """The right and left socles as {x : x*b_j = 0} and {x : b_j*x = 0} for
    every non-trivial basis word b_j, the kernels of the rows (j, m) whose
    entry i is (b_i b_j)_m, and (b_j b_i)_m."""
    d, table = at.dim, dense_table(at)
    rad = at.lengths >= 1
    right = table.transpose(1, 2, 0)[rad].reshape(-1, d)  # [j, m, i] = (b_i b_j)_m
    left = table.transpose(0, 2, 1)[rad].reshape(-1, d)   # [j, m, i] = (b_j b_i)_m
    return kernel(at.gf, right, d), kernel(at.gf, left, d)


def is_associative(at) -> bool:
    """(b_i b_j) b_k == b_i (b_j b_k) on every basis triple of the table."""
    gf, d, table = at.gf, at.dim, dense_table(at)
    flat_r = table.reshape(d, d * d)  # [m, k*d+l] = table[m,k,l]
    flat_l = table.reshape(d * d, d)  # [j*d+k, m] = table[j,k,m]
    for i in range(d):
        lhs = gf.matmul(table[i], flat_r)  # (b_i b_j) b_k, shape (d, d*d)
        rhs = gf.matmul(flat_l, table[i])  # b_i (b_j b_k), shape (d*d, d)
        if not np.array_equal(lhs.reshape(d, d, d), rhs.reshape(d, d, d)):
            return False
    return True


def pivot_columns(rows, p: int) -> list[int]:
    """Pivot column indices of integer rows over GF(p) by plain elimination."""
    if not len(rows):
        return []
    m = np.array(rows, dtype=np.int64) % p
    pivots = []
    for col in range(m.shape[1]):
        piv = None
        for r in range(len(pivots), len(m)):
            if m[r, col]:
                piv = r
                break
        if piv is None:
            continue
        rank = len(pivots)
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), p - 2, p)) % p
        for r in range(len(m)):
            if r != rank and m[r, col]:
                m[r] = (m[r] - m[r, col] * m[rank]) % p
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def rank_mod_p(rows, p: int) -> int:
    """Rank of integer rows over GF(p) by plain Gaussian elimination."""
    return len(pivot_columns(rows, p))


def _enumerate_paths(quiver, max_len):
    """All paths of length <= max_len as (source index, arrow index tuple)."""
    by_source = {}
    for i in range(len(quiver.arrows)):
        by_source.setdefault(quiver.a_source[i], []).append(i)
    frontier = [(v, ()) for v in range(len(quiver.vertices))]
    paths = list(frontier)
    for _ in range(max_len):
        nxt = []
        for src, word in frontier:
            tail = quiver.a_target[word[-1]] if word else src
            for i in by_source.get(tail, []):
                nxt.append((src, word + (i,)))
        paths.extend(nxt)
        frontier = nxt
    return paths


def path_quotient_dim(pres, max_len: int) -> int:
    """Dimension of the bound quiver algebra by dense elimination on paths.

    Spans the relation ideal inside the window of paths of length <= max_len
    and counts surviving path classes. Classes at the window boundary are
    artifacts when relations rewrite short paths to longer ones (their
    membership certificates overflow the window), so survivors within two of
    the boundary are discarded and the band just below them must be empty.
    The count must also be stable under widening the window.
    """
    dims = [_windowed_dim(pres, max_len + k) for k in (0, 2)]
    if dims[0] != dims[1]:
        raise AssertionError(f"oracle window too small: {dims}")
    return dims[0]


def _survivor_count(lengths, max_len):
    true = [n for n in lengths if n <= max_len - 4]
    band = [n for n in lengths if max_len - 4 < n < max_len - 1]
    if band:
        raise AssertionError(f"oracle window too small: survivors of length {band}")
    return len(true)


def _windowed_dim(pres, max_len):
    p = pres.gf.p
    quiver = pres.quiver
    paths = _enumerate_paths(quiver, max_len)
    index = {path: i for i, path in enumerate(paths)}
    rows = []
    for rel in pres.relations:
        deg = max(len(w.arrows) for _, w in rel.terms)
        src = rel.terms[0][1].source
        tgt = quiver.path_target(rel.terms[0][1])
        for lsrc, lword in paths:
            ltgt = quiver.a_target[lword[-1]] if lword else lsrc
            if ltgt != src:
                continue
            for rsrc, rword in paths:
                if rsrc != tgt or len(lword) + deg + len(rword) > max_len:
                    continue
                row = np.zeros(len(paths), dtype=np.int64)
                for coeff, w in rel.terms:
                    row[index[(lsrc, lword + w.arrows + rword)]] += coeff
                rows.append(row % p)
    pivots = set(pivot_columns(rows, p))
    lengths = [len(word) for j, (_, word) in enumerate(paths) if j not in pivots]
    return _survivor_count(lengths, max_len)


def solve(gf, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unique solution x of a @ x = b for square nonsingular a."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.asarray(b, dtype=np.int64)
    n = a.shape[0]
    aug = np.hstack([a, b.reshape(n, -1)])
    r, pivots = rref(gf, aug)
    if list(pivots[:n]) != list(range(n)) or len(pivots) != n:
        raise DimensionMismatch("matrix is singular")
    x = r[:n, n:]
    return x[:, 0] if b.ndim == 1 else x


@dataclass(frozen=True)
class XiMap:
    """The linear map xi_n on the center, row j being xi_n(z_j)."""

    center: Subspace
    matrix: np.ndarray
    n: int
    image: Subspace

    def apply(self, v: np.ndarray) -> np.ndarray:
        """xi_n of a central element given in algebra coordinates."""
        if not contains(self.center, v):
            raise InvariantViolation("xi_n applied to a non-central element")
        coeffs = np.asarray(v, dtype=np.int64)[list(self.center.pivots)]
        gf = self.center.gf
        return gf.matmul(coeffs.reshape(1, -1), self.matrix)[0]


def xi_map(at: AlgebraTable, f: SymmetrizingForm, n: int) -> XiMap:
    """The map xi_n on Z(A) defined by (xi_n(z), x)**(p**n) = (z, x**(p**n)).

    For central z the right side is p**n-semilinear in x, so xi_n(z) is the
    unique solution of a nonsingular linear system over the whole algebra
    basis.  The image is verified to equal reynolds_ideal(at, f, n).
    """
    gf = at.gf
    d = at.dim
    z = center(at)
    g = dense_gram(f)
    pmat = power(at, np.eye(d, dtype=np.int64), gf.p ** n)  # row i is b_i**(p**n)
    # rhs[j, i] = (z_j, b_i**(p**n)); take p**n-th roots entrywise, then
    # solve w @ G = root-row for each center basis vector.
    rhs = gf.matmul(gf.matmul(z.basis, g), pmat.T)
    roots = gf.frob_inv(rhs, n)
    mat = solve(gf, g.T, roots.T).T
    for row in mat:
        if not contains(z, row):
            raise InvariantViolation("xi_n image is not central")
    lhs = field_pow(gf, gf.matmul(mat, g), gf.p ** n)
    if not np.array_equal(lhs, rhs):
        raise InvariantViolation("xi_n does not satisfy its defining equation")
    image = row_space(gf, mat, d)
    if image != reynolds_ideal(at, f, n):
        raise InvariantViolation("image of xi_n differs from T_n^perp")
    return XiMap(center=z, matrix=mat, n=n, image=image)


def direct_kuelshammer_space(at: AlgebraTable, n: int) -> Subspace:
    """T_n(A) in one step from K(A), on all d coordinates: x -> x**(p**n) is
    additive modulo K(A) and p**n-semilinear, so with r_i = b_i**(p**n)
    reduced mod K(A) solve sum d_i r_i = 0 and take p**n-th roots of the
    kernel coordinates.  K(A) is all_pairs_commutator_space."""
    gf, d = at.gf, at.dim
    k = all_pairs_commutator_space(at)
    if n == 0:
        return k
    residues = reduce_mod(k, power(at, np.eye(d, dtype=np.int64), gf.p ** n))
    twisted = kernel(gf, residues.T)
    return row_space(gf, gf.frob_inv(twisted.basis, n), d)


def _dense_verified_perp(at, f, t, z, soc_z) -> Subspace:
    """orthogonal(f, t) on the full Gram, checked to be an ideal of Z(A)
    containing soc(A) cap Z(A) and inside Z(A), with d-wide products."""
    perp = orthogonal(f, t)
    if not contains_subspace(z, perp):
        raise InvariantViolation("T_n^perp is not contained in the center")
    if not contains_subspace(perp, soc_z):
        raise InvariantViolation("T_n^perp does not contain soc(A) intersect Z(A)")
    prods = multiply(at, np.repeat(perp.basis, z.dim, axis=0), np.tile(z.basis, (perp.dim, 1)))
    if np.any(reduce_mod(perp, prods)):
        raise InvariantViolation("T_n^perp is not an ideal of the center")
    return perp


def dense_reynolds_report(at: AlgebraTable, f: SymmetrizingForm, max_n: int = 8) -> ReynoldsReport:
    """reynolds_sequence's report and checks on all d coordinates, from the
    references: Z, K and the socles from all basis pairs, T_n from
    direct_kuelshammer_space, T_n^perp from orthogonal on the full Gram."""
    z, k = all_pairs_center(at), all_pairs_commutator_space(at)
    right, left = all_pairs_socles(at)
    if right != left:
        raise InvariantViolation("socle is one-sided although a form was validated")
    soc_z = intersect(right, z)
    t = direct_kuelshammer_space(at, 0)
    perp = _dense_verified_perp(at, f, t, z, soc_z)
    if t != k or perp != z:
        raise InvariantViolation("T_0 is not K(A), or K(A)^perp is not the center")
    rows, stabilized_at = [ReynoldsRow(0, t.dim, perp.dim)], None
    for n in range(1, max_n + 1):
        t_next = direct_kuelshammer_space(at, n)
        perp_next = _dense_verified_perp(at, f, t_next, z, soc_z)
        if not contains_subspace(t_next, t) or not contains_subspace(perp, perp_next):
            raise InvariantViolation("T_n chain is not ascending, or T_n^perp not descending")
        rows.append(ReynoldsRow(n, t_next.dim, perp_next.dim))
        if t_next == t:
            stabilized_at = n - 1
            if perp_next != soc_z:
                raise InvariantViolation("stabilized T_n^perp differs from soc(A) intersect Z(A)")
            break
        t, perp = t_next, perp_next
    return ReynoldsReport(at.presentation.name, at.gf, at.dim, z.dim, right.dim, k.dim,
                          tuple(rows), stabilized_at)


def dense_consistent_psi(at: AlgebraTable) -> np.ndarray:
    """consistent_form's psi from the d-dimensional system {psi(K(A)) = 0,
    psi = 1 on socle words}, free values 0; NotSymmetric if infeasible."""
    gf, d = at.gf, at.dim
    soc_idx = _socle_word_indices(at)
    k = all_pairs_commutator_space(at)
    lhs = np.vstack([k.basis, np.eye(d, dtype=np.int64)[soc_idx]])
    rhs = np.concatenate([np.zeros(k.dim, dtype=np.int64), np.ones(len(soc_idx), dtype=np.int64)])
    r, pivots = rref(gf, np.hstack([lhs, rhs.reshape(-1, 1)]))
    if d in pivots:
        raise NotSymmetric("the psi system is infeasible")
    psi = np.zeros(d, dtype=np.int64)
    psi[pivots] = r[:len(pivots), d]
    return psi
