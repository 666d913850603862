"""Multiplication of elements and the classical subspaces of a
finite-dimensional algebra: radical, socle, center, commutator span.

Elements are coordinate vectors over the table's monomial basis.  A basis
word is closed when its source is its target; C and O span the closed and
the open words.  Each word b lies in one Peirce block, b = e_u b e_v, so
pi(x) = sum over vertices v of e_v x e_v is the coordinate projection onto
C, and C is a subalgebra: e_u A e_u times e_v A e_v is 0 for u != v, and
lies in e_u A e_u for u = v.  closed_algebra cuts C from the folded closed
rows, and rad A = J, the span of the positive words, is proved on C.  The
socles, Z(A), K(A) (on C, then lifted) and soc(A) cap Z(A) are peeled from
the arrow actions.  Only multiply and power on A read the full table.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotNilpotent
from .linalg import Subspace, contains, kernel, row_space
from .rewriting import AlgebraTable
from .sparse import Sparse, contract, from_entries

__all__ = ["multiply", "power", "radical", "Socle", "socle", "center", "closed_center",
           "closed_socle_center", "commutator_space", "closed_words", "closed_algebra",
           "closed_positions", "closed_part", "lift"]


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
    """rad A, the span J of the words of length >= 1: O plus J cap C (see _closed_radical)."""
    return lift(at, _closed_radical(at), with_open=True)


def _cached(fn):
    """Compute fn(at) once per table and keep it in at.cache."""
    @functools.wraps(fn)
    def cached(at: AlgebraTable):
        if fn.__name__ not in at.cache:
            at.cache[fn.__name__] = fn(at)
        return at.cache[fn.__name__]
    return cached


@_cached
def closed_positions(at: AlgebraTable) -> np.ndarray:
    """The closed coordinate of each basis word, in basis order, or -1 for an open word."""
    closed = at.sources == at.targets
    return np.where(closed, np.cumsum(closed) - 1, -1)


@_cached
def closed_words(at: AlgebraTable) -> np.ndarray:
    """Indices of the closed basis words, in basis order."""
    return np.flatnonzero(closed_positions(at) >= 0)


@_cached
def closed_algebra(at: AlgebraTable) -> AlgebraTable:
    """C as a table on the closed coordinates 0 .. c - 1, every row folded: the
    folded b_i * b_j with b_i, b_j closed, renumbered in basis order, which
    keeps them row-major; its R is their first rows, and its per-word data
    the closed words'.  As C is a subalgebra, each is closed; checked here."""
    closed, pos, f = closed_words(at), closed_positions(at), at.folded
    j, k = np.divmod(f.rows, at.folded_rows.size)
    i = at.folded_rows[k]
    n, keep = len(closed), (pos[i] >= 0) & (pos[j] >= 0)
    if np.any(pos[f.indices[keep]] < 0):
        raise InvariantViolation("a product of two closed words is not closed")
    basis = tuple(at.basis[k] for k in closed)
    table = Sparse((n * n, n), pos[j[keep]] * n + pos[i[keep]], pos[f.indices[keep]], f.data[keep])
    right = table.take_range(0, int(np.count_nonzero(pos[:at.generators] >= 0)) * n)
    return AlgebraTable(at.rs, basis, {w: k for k, w in enumerate(basis)}, right, np.arange(n),
                        table, None, at.sources[closed], at.targets[closed], at.lengths[closed])


@_cached
def _closed_radical(at: AlgebraTable) -> Subspace:
    """J cap C on the closed coordinates, J the span of the positive words
    (length >= 1); NotNilpotent unless J cap C is nilpotent, so that J = rad A.

    J is an ideal, the image of the arrow ideal (relation terms have length
    >= 2), and A/J, spanned by orthogonal idempotents e_v, is semisimple: rad A
    lies in J.  Were J not in rad A, the nonzero ideal (J + rad A)/rad A of the
    semisimple A/rad A would hold a nonzero central idempotent f = sum_v e_v f
    e_v (e_u f e_v = f e_u e_v = 0 for u != v), and some f e_v != 0 would be
    the image of a non-nilpotent x in e_v J e_v, inside J cap C.  On the cut
    table closed_algebra(at), T_1 = J cap C is the unit rows of the positive
    words, and T_(k+1) = T_k (J cap C) = (J cap C)**(k+1) the span of the
    products of T_k's rows with them.  J cap C is closed under products, so
    the T_k descend, and one that does not shrink never reaches 0.
    """
    cut = closed_algebra(at)
    (i, j, m, v), positive, c = cut.entries(), cut.lengths >= 1, cut.dim
    words = np.flatnonzero(positive)
    rad = Subspace(at.gf, c, np.eye(c, dtype=np.int64)[words], tuple(words.tolist()))
    t, e = rad.basis, positive[j]
    while t.size:
        prods = contract(at.gf, [(t, i[e])], v[e], j[e] * c + m[e], c * c).reshape(-1, c)
        t, old = row_space(at.gf, prods[prods.any(axis=1)], c).basis, t
        if len(t) == len(old):
            raise NotNilpotent("the span of the positive words is not nilpotent: not admissible")
    return rad


def closed_part(at: AlgebraTable, s: Subspace) -> Subspace:
    """s cap C on the closed coordinates, for s = (s cap O) + (s cap C): its
    RREF is theirs merged by pivot, so the rows with a closed pivot, on C."""
    closed, pivots = closed_words(at), closed_positions(at)[list(s.pivots)]
    keep = pivots >= 0
    return Subspace(at.gf, len(closed), s.basis[keep][:, closed], tuple(pivots[keep].tolist()))


def _merge(gf, n: int, units: np.ndarray, cols: np.ndarray, part: Subspace) -> Subspace:
    """The unit vectors at the columns units and the rows of part, a subspace
    on the columns cols, in GF**n.  When units and cols are disjoint the two
    sets of rows have disjoint supports, so merged by pivot they are an RREF."""
    pivots = np.concatenate([units, cols[list(part.pivots)]])
    basis = np.zeros((pivots.size, n), dtype=np.int64)
    basis[np.arange(units.size), units] = 1
    basis[units.size:, cols] = part.basis
    order = np.argsort(pivots)
    return Subspace(gf, n, basis[order], tuple(pivots[order].tolist()))


def lift(at: AlgebraTable, s: Subspace, with_open: bool = False) -> Subspace:
    """s, given on the closed coordinates, in A, plus O if with_open: the
    unit vectors of the open words merged with the rows of s."""
    opened = np.flatnonzero(closed_positions(at) < 0) if with_open else closed_words(at)[:0]
    return _merge(at.gf, at.dim, opened, closed_words(at), s)


@_cached
def _actions(at: AlgebraTable) -> tuple[np.ndarray, ...]:
    """The entries (a, x, m, c) of the 2n arrow actions, n arrows: c is the b_m
    coefficient of b_x*b_a, b_a the a-th arrow, for a < n (the arrow blocks
    of R), and of b_(a-n)*b_x for a >= n (the arrow rows of L).  The arrows
    are the basis words t .. g - 1, t vertices and g generators."""
    d, g, t = at.dim, at.generators, len(at.trivial_indices)
    r, left, n = at.right.take_range(t * d, g * d), at.left, g - t
    x, s = np.divmod(left.rows, g)
    e = s >= t
    return tuple(np.concatenate(pair) for pair in
                 ((r.rows // d, n + s[e] - t), (r.rows % d, x[e]), (r.indices, left.indices[e]),
                  (r.data, left.data[e])))


@dataclass(frozen=True)
class Socle:
    right: Subspace
    left: Subspace

    @property
    def two_sided_equal(self) -> bool:
        return self.right == self.left


def _peel(gf, shape: tuple[int, int], rows, cols, vals):
    """Peel the singleton rows of the matrix M that sums vals[e] at (rows[e],
    cols[e]) (structured Gaussian elimination, LaMacchia and Odlyzko, CRYPTO
    '90): the dead columns, the live columns no row touches, the touched
    columns cut, and the rows left, dense on cut.

    from_entries sums the entries by cell and drops those that cancel, so
    every entry left is nonzero.  A row with one live entry v at column k
    kills k: the entries at k are dropped, and a row left empty drops out.
    In the kernel, v x_k = 0 forces x_k = 0; the row space holds e_k, and
    subtracting multiples of it clears column k from the other rows.  So
    ker M is the unit vectors of the untouched live columns beside the
    kernel of the rows left, and the row space of M is the unit vectors of
    the dead columns beside the row space of the rows left.  Both sets of
    columns are disjoint from cut, so _merge gives the RREF.
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
    touched = np.bincount(cols, minlength=shape[1]) > 0
    cut = np.flatnonzero(touched)
    ids = np.cumsum(np.diff(rows, prepend=-1) != 0) - 1
    residual = np.zeros((ids[-1] + 1 if ids.size else 0, cut.size), dtype=np.int64)
    residual[ids, np.searchsorted(cut, cols)] = vals
    return np.flatnonzero(~live), np.flatnonzero(live & ~touched), cut, residual


def _peeled_kernel(gf, shape: tuple[int, int], rows, cols, vals) -> Subspace:
    """{x : M x = 0} in GF**shape[1], for M the system of the entries (see _peel)."""
    _, free, cut, residual = _peel(gf, shape, rows, cols, vals)
    return _merge(gf, shape[1], free, cut, kernel(gf, residual, cut.size))


def _peeled_row_space(gf, shape: tuple[int, int], rows, cols, vals) -> Subspace:
    """The row space of M in GF**shape[1], for M the system of the entries (see _peel)."""
    dead, _, cut, residual = _peel(gf, shape, rows, cols, vals)
    return _merge(gf, shape[1], dead, cut, row_space(gf, residual, cut.size))


def _closed_system(at: AlgebraTable, solve, by_output: bool, commute: bool = True) -> Subspace:
    """A peeled kernel or row space (solve) of the action rows on the closed
    coordinates: rows (a, x) over the closed outputs m if by_output, else
    rows (a, m) over the closed x.  With commute, the rows of [b_x, b_a] =
    b_x*b_a - b_a*b_x: both actions of arrow a, the left one negated."""
    (a, x, m, c), n = _actions(at), len(at.quiver.arrows)
    if commute:
        a, c = a % n, np.where(a < n, c, at.gf.neg(c))
    row, col = (x, m) if by_output else (m, x)
    pos = closed_positions(at)[col]
    e = pos >= 0
    shape = (2 * n * at.dim, len(closed_words(at)))
    return solve(at.gf, shape, a[e] * at.dim + row[e], pos[e], c[e])


@_cached
def socle(at: AlgebraTable) -> Socle:
    """Right and left socles, once rad A = J (_closed_radical): annihilators of
    the arrows, the solutions of x*b_a = 0 and b_a*x = 0 for every arrow a,
    with rows (a, m) of the b_m coefficients of the arrow actions (_actions)."""
    _closed_radical(at)
    (a, x, m, c), d, n = _actions(at), at.dim, len(at.quiver.arrows)
    return Socle(*(_peeled_kernel(at.gf, (n * d, d), a[e] % n * d + m[e], x[e], c[e])
                   for e in (a < n, a >= n)))


@_cached
def closed_center(at: AlgebraTable) -> Subspace:
    """Z(A) on the closed coordinates: e_u z e_v = e_u e_v z = 0 for u != v
    and z central.  Each x in C commutes with every e_v (x e_v = e_v x e_v =
    e_v x), so it is central iff [x, b_a] = 0 for every arrow a: the kernel
    of the commutator rows (a, m) over the closed x."""
    z = _closed_system(at, _peeled_kernel, by_output=False)
    if not contains(z, at.unit[closed_words(at)]):
        raise InvariantViolation("center does not contain the unit")
    return z


@_cached
def center(at: AlgebraTable) -> Subspace:
    """Z(A), lifted from C (see closed_center)."""
    return lift(at, closed_center(at))


@_cached
def closed_socle_center(at: AlgebraTable) -> Subspace:
    """soc(A) cap Z(A) on the closed coordinates: the x in C with x*b_a = 0 =
    b_a*x for every arrow a, the kernel of the rows (a, m) of all 2n actions
    over the closed x.  Such an x commutes with every arrow, and with every
    e_v as it lies in C (see closed_center), so it is central; and x*rad = 0,
    rad being spanned by the paths b_a*w.  Conversely, Z(A) lies in C, and a
    central x with x*rad = 0 has b_a*x = x*b_a = 0."""
    return _closed_system(at, _peeled_kernel, by_output=False, commute=False)


@_cached
def commutator_space(at: AlgebraTable) -> Subspace:
    """K(A), the span of all commutators, as O + pi(K(A)).

    The rows [b, s], b a basis word and s a trivial path or arrow, span
    every [x, c] for c a path, by induction on the length of c: a trivial
    path is some s, and for c = c1*s with s an arrow, [x, c1*s] = [x*c1, s]
    + [s*x, c1], where the first term is a combination of rows and the
    second has a shorter path.  Paths span A.  An open word w from u to v
    is e_u*w - w*e_u, so O lies in K(A), and so does x - pi(x) for every x:
    K(A) = O + pi(K(A)), and pi(K(A)) is spanned by the pi([b, s]), the
    commutator rows (a, x) on the closed outputs m.  Those of a trivial s
    vanish, [b, e_v] being 0 or a multiple of an open b.
    """
    return lift(at, _closed_system(at, _peeled_row_space, by_output=True), with_open=True)
