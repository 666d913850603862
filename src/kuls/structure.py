"""Multiplication of elements and the classical subspaces of a
finite-dimensional algebra: radical, socle, center, commutator span.

Elements are coordinate vectors over the table's monomial basis.  A basis
word is closed when its source is its target; C and O span the closed and
the open words.  Each word b lies in one Peirce block, b = e_u b e_v, so
pi(x) = sum over vertices v of e_v x e_v is the coordinate projection onto
C, and C is a subalgebra: e_u A e_u times e_v A e_v is 0 for u != v, and
lies in e_u A e_u for u = v.  Z(A) and K(A) are computed on C and lifted;
closed_algebra cuts the table to C once, for the products that stay in C.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotNilpotent
from .linalg import Subspace, contains, intersect, kernel, row_space
from .rewriting import AlgebraTable
from .sparse import Sparse, contract, from_entries

__all__ = ["multiply", "power", "radical", "Socle", "socle", "center", "closed_center",
           "closed_socle_center", "commutator_space", "closed_words", "closed_algebra",
           "closed_part", "lift"]


def _as_vec(at: AlgebraTable, x) -> np.ndarray:
    v = np.asarray(x, dtype=np.int64)
    if v.ndim not in (1, 2) or v.shape[-1] != at.dim:
        raise DimensionMismatch(
            f"element has shape {v.shape}, expected ({at.dim},) or (r, {at.dim})")
    return v


def multiply(at: AlgebraTable, x, y) -> np.ndarray:
    """Product of two coordinate vectors, or row-wise products of two (r, d) stacks.

    This is the one product path for elements: row r sums x[r, i] y[r, j] c
    into coordinate m over the stored constants (i, j, m, c) of the table.
    """
    d = at.dim
    x = _as_vec(at, x)
    y = _as_vec(at, y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"factors have shapes {x.shape} and {y.shape}")
    i, j, m, c = at.entries()
    out = contract(at.gf, [(x.reshape(-1, d), i), (y.reshape(-1, d), j)], c, m, d)
    return out.reshape(x.shape)


def power(at: AlgebraTable, x, k: int) -> np.ndarray:
    """k-th power by binary exponentiation, row-wise on a stack; x**0 is the unit.

    The accumulator starts at the lowest set bit of k, so k >= 1 takes
    bit_length(k) - 1 squarings and popcount(k) - 1 further products (n
    products for x**(2**n)), and the result is never the caller's array.
    """
    if k < 0:
        raise ValueError("negative powers are undefined here")
    base = _as_vec(at, x)
    if k == 0:
        return np.broadcast_to(at.unit, base.shape).copy()
    while not k & 1:
        base, k = multiply(at, base, base), k >> 1
    acc = base.copy()
    while k := k >> 1:
        base = multiply(at, base, base)
        if k & 1:
            acc = multiply(at, acc, base)
    return acc


def radical(at: AlgebraTable) -> Subspace:
    """Span of the non-trivial basis words, verified nilpotent.

    Nilpotency is checked on the spans T_k of length-k path images:
    T_(k+1) = T_k * arrows, and rad**m = sum of T_k for k >= m, so the
    radical is nilpotent iff some T_k (k <= dim) vanishes.
    """
    d = at.dim
    eye = np.eye(d, dtype=np.int64)
    rad = row_space(at.gf, eye[at.lengths() >= 1], d)
    i, j, m, c = at.entries()
    arrows = [np.flatnonzero(j == a) for a in at.arrow_indices]  # the entries of R_a
    t = row_space(at.gf, eye[at.lengths() == 1], d)
    steps = 1
    while t.dim:
        if steps > d:
            raise NotNilpotent("arrow products never die out; the relations are not admissible")
        t = row_space(at.gf, (contract(at.gf, [(t.basis, i[e])], c[e], m[e], d)
                              for e in arrows), d)
        steps += 1
    return rad


def _cached(fn):
    """Compute fn(at) once per table and keep it in at.cache."""
    @functools.wraps(fn)
    def cached(at: AlgebraTable):
        if fn.__name__ not in at.cache:
            at.cache[fn.__name__] = fn(at)
        return at.cache[fn.__name__]
    return cached


def _candidate_rows(gf, width: int, keys, cols, vals) -> np.ndarray:
    """Densely, in key order, the rows summing vals[e] at (keys[e], cols[e]) that get a term."""
    rows, pos = np.unique(keys, return_inverse=True)
    return gf.segment_sum(vals, pos * width + cols, rows.size * width).reshape(rows.size, width)


@_cached
def closed_words(at: AlgebraTable) -> np.ndarray:
    """Indices of the closed basis words, in basis order."""
    return np.flatnonzero([w.source == at.quiver.path_target(w) for w in at.basis])


@_cached
def closed_algebra(at: AlgebraTable) -> AlgebraTable:
    """C as a table on the closed coordinates 0 .. c - 1: the entries (i, j, m, c)
    with b_i and b_j closed, renumbered in basis order, which keeps them
    row-major.  As C is a subalgebra, each such b_m is closed; checked here."""
    closed, (i, j, m, c) = closed_words(at), at.entries()
    n, pos = len(closed), np.full(at.dim, -1, dtype=np.int64)
    pos[closed] = np.arange(n)
    keep = (pos[i] >= 0) & (pos[j] >= 0)
    if np.any(pos[m[keep]] < 0):
        raise InvariantViolation("a product of two closed words is not closed")
    basis = tuple(at.basis[k] for k in closed)
    table = Sparse((n * n, n), pos[j[keep]] * n + pos[i[keep]], pos[m[keep]], c[keep])
    return AlgebraTable(at.rs, basis, {w: k for k, w in enumerate(basis)}, table,
                        tuple(pos[list(at.trivial_indices)].tolist()), at.unit[closed])


def closed_part(at: AlgebraTable, s: Subspace) -> Subspace:
    """s cap C on the closed coordinates, for s = (s cap O) + (s cap C): its
    RREF is theirs merged by pivot, so the rows with a closed pivot, on C."""
    closed, pos = closed_words(at), np.full(at.dim, -1, dtype=np.int64)
    pos[closed] = np.arange(len(closed))
    pivots = pos[list(s.pivots)]
    keep = pivots >= 0
    return Subspace(at.gf, len(closed), s.basis[keep][:, closed], tuple(pivots[keep].tolist()))


def lift(at: AlgebraTable, s: Subspace, with_open: bool = False) -> Subspace:
    """s, given on the closed coordinates, in A, plus O if with_open: the rows
    of s and the unit vectors of the open words merged by pivot are an RREF."""
    closed = closed_words(at)
    opened = np.flatnonzero(~np.isin(np.arange(at.dim), closed)) if with_open else closed[:0]
    pivots = np.concatenate([closed[list(s.pivots)], opened])
    basis = np.zeros((len(pivots), at.dim), dtype=np.int64)
    basis[:s.dim, closed] = s.basis
    basis[np.arange(s.dim, len(pivots)), opened] = 1
    order = np.argsort(pivots)
    return Subspace(at.gf, at.dim, basis[order], tuple(pivots[order].tolist()))


def _closed_commutators(at: AlgebraTable, by_output: bool) -> np.ndarray:
    """The rows of [b_i, s] = b_i*s - s*b_i, s an arrow, on closed coordinates:
    row (s, m) holds the b_m coefficients over the closed b_i (by_output),
    else row (s, i) the closed coordinates.  A table entry (i, j, m, c) adds
    c to [b_i, b_j] if b_j is an arrow, and -c to [b_j, b_i] if b_i is one."""
    gf, closed, (i, j, m, c) = at.gf, closed_words(at), at.entries()
    s, b, out = np.concatenate([j, i]), np.concatenate([i, j]), np.concatenate([m, m])
    row, col = (out, b) if by_output else (b, out)
    keep = np.isin(s, at.arrow_indices) & np.isin(col, closed)
    return _candidate_rows(gf, len(closed), (s * at.dim + row)[keep],
                           np.searchsorted(closed, col[keep]), np.concatenate([c, gf.neg(c)])[keep])


@dataclass(frozen=True)
class Socle:
    right: Subspace
    left: Subspace

    @property
    def two_sided_equal(self) -> bool:
        return self.right == self.left


def _peeled_kernel(gf, shape: tuple[int, int], rows, cols, vals) -> Subspace:
    """{x : the sum of vals[e] x[cols[e]] over the entries e of row r is 0, for
    every r}, in GF**shape[1], by peeling singleton rows (structured Gaussian
    elimination, LaMacchia and Odlyzko, CRYPTO '90).

    from_entries sums the entries by cell and drops the cells that cancel, so
    every entry left is nonzero.  Invariant: the solutions are the x that are
    0 on the dead columns and solve the rows cut to the live ones.  A row
    with one live entry v x_k (v != 0) forces x_k = 0, so k dies and the
    invariant holds; a row with no live entry is 0 = 0 and drops out.  When
    no singleton is left, each live column that no remaining row touches is
    free, and the touched ones solve the remaining rows, cut to them, whose
    kernel has its own RREF.  The unit vectors of the free columns and that
    RREF have disjoint supports, so merged by pivot they are the RREF of the
    solution set.
    """
    s = from_entries(gf, shape, rows, cols, vals)
    rows, cols, vals = s.rows, s.indices, s.data
    live = np.ones(shape[1], dtype=bool)
    while rows.size:
        new = np.diff(rows, prepend=-1, append=shape[0]) != 0  # a row starts at each True
        single = new[:-1] & new[1:]  # rows stay sorted, so a singleton starts and ends at e
        if not single.any():
            break
        live[cols[single]] = False
        keep = live[cols]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    touched = np.zeros(shape[1], dtype=bool)
    touched[cols] = True
    free, cut = np.flatnonzero(live & ~touched), np.flatnonzero(touched)
    ids = np.cumsum(np.diff(rows, prepend=-1) != 0) - 1
    residual = np.zeros((ids[-1] + 1 if ids.size else 0, cut.size), dtype=np.int64)
    residual[ids, np.searchsorted(cut, cols)] = vals
    rest = kernel(gf, residual, cut.size)
    pivots = np.concatenate([free, cut[list(rest.pivots)]])
    basis = np.zeros((pivots.size, shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[free.size:, cut] = rest.basis
    order = np.argsort(pivots)
    return Subspace(gf, shape[1], basis[order], tuple(pivots[order].tolist()))


@_cached
def socle(at: AlgebraTable) -> Socle:
    """Right and left socles: annihilators of the arrows on each side, the
    solutions of x*b_a = 0 and b_a*x = 0 for every arrow a.  Their rows
    (a, m) hold the b_m coefficients of b_i*b_a and b_a*b_i over the column
    i, from the table entries with b_a as right and as left factor."""
    d, arrows, (i, j, m, c) = at.dim, at.arrow_indices, at.entries()
    arrow = np.full(d, -1, dtype=np.int64)  # position among the arrows, -1 off them
    arrow[arrows] = np.arange(len(arrows))
    shape = (len(arrows) * d, d)
    sides = []
    for f, o in ((j, i), (i, j)):
        e = arrow[f] >= 0
        sides.append(_peeled_kernel(at.gf, shape, arrow[f[e]] * d + m[e], o[e], c[e]))
    return Socle(*sides)


@_cached
def closed_center(at: AlgebraTable) -> Subspace:
    """Z(A) on the closed coordinates: e_u z e_v = e_u e_v z = 0 for u != v
    and z central.  Each x in C commutes with every e_v (x e_v = e_v x e_v =
    e_v x), so it is central iff [x, s] = 0 for every arrow s: the kernel of
    the rows (s, m)."""
    z = kernel(at.gf, _closed_commutators(at, by_output=True), len(closed_words(at)))
    if not contains(z, at.unit[closed_words(at)]):
        raise InvariantViolation("center does not contain the unit")
    return z


@_cached
def center(at: AlgebraTable) -> Subspace:
    """Z(A), lifted from C (see closed_center)."""
    return lift(at, closed_center(at))


@_cached
def closed_socle_center(at: AlgebraTable) -> Subspace:
    """soc(A) cap Z(A) on the closed coordinates, from the right socle
    {x : x*rad = 0}.  It is a two-sided ideal (y*x*rad = 0, and x*y*rad
    lies in x*rad), so e_u s e_v lies in it for every s in it: it is the
    sum of its parts in O and in C, and closed_part gives the latter.  Z(A)
    lies in C, so soc(A) cap Z(A) = (soc(A) cap C) cap Z(A), taken on C."""
    return intersect(closed_part(at, socle(at).right), closed_center(at))


@_cached
def commutator_space(at: AlgebraTable) -> Subspace:
    """K(A), the span of all commutators, as O + pi(K(A)).

    The rows [b, s], b a basis word and s a trivial path or arrow, span
    every [x, c] for c a path, by induction on the length of c: a trivial
    path is some s, and for c = c1*s with s an arrow, [x, c1*s] = [x*c1, s]
    + [s*x, c1], where the first term is a combination of rows and the
    second has a shorter path.  Paths span A.  An open word w from u to v
    is e_u*w - w*e_u, so O lies in K(A), and so does x - pi(x) for every x:
    K(A) = O + pi(K(A)), and pi(K(A)) is spanned by the pi([b, s]).  Those
    of a trivial s vanish, [b, e_v] being 0 or a multiple of an open b.
    """
    k = row_space(at.gf, _closed_commutators(at, by_output=False), len(closed_words(at)))
    return lift(at, k, with_open=True)
