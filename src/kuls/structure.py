"""Multiplication of elements and the classical subspaces of a
finite-dimensional algebra: radical, socle, center, commutator span.

Elements are coordinate vectors over the table's monomial basis.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotNilpotent
from .linalg import Subspace, contains, intersect, kernel, row_space
from .rewriting import AlgebraTable
from .sparse import contract

__all__ = [
    "multiply",
    "power",
    "radical",
    "Socle",
    "socle",
    "center",
    "socle_center",
    "commutator_space",
]


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
    arrows = [at.right(a) for a in at.arrow_indices]
    t = row_space(at.gf, eye[at.lengths() == 1], d)
    steps = 1
    while t.dim:
        if steps > d:
            raise NotNilpotent("arrow products never die out; the relations are not admissible")
        t = row_space(at.gf, (contract(at.gf, [(t.basis, r.rows)], r.data, r.indices, d)
                              for r in arrows), d)
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


@_cached
def _left(at: AlgebraTable) -> list[np.ndarray]:
    """L_s for every s as unordered (j, m, c): b_s*b_j has b_m coefficient c."""
    i, j, m, c = at.entries()
    jmc = np.stack([j, m, c])[:, np.argsort(i)]  # grouped by i, once per table
    ends = np.cumsum(np.bincount(i, minlength=at.dim)).tolist()
    return [jmc[:, a:b] for a, b in zip([0] + ends, ends)]


def _candidate_rows(gf, d: int, terms, transpose: bool = False) -> np.ndarray:
    """The rows holding an entry of the (d, d) matrix summing the (row, col, value)
    terms (no term repeats a cell), or of its transpose, densely; the rest are zero."""
    terms = [(k, r, v) if transpose else (r, k, v) for r, k, v in terms]
    hit = np.zeros(d, dtype=bool)
    hit[np.concatenate([t[0] for t in terms])] = True
    pos = np.cumsum(hit, dtype=np.int64) - 1
    out = np.zeros((pos[-1] + 1, d), dtype=np.int64)
    for r, k, v in terms:
        out[pos[r], k] = gf.add(out[pos[r], k], v)
    return out


def _generator_commutators(at: AlgebraTable, transpose: bool = False):
    """Yield, for s each trivial path and arrow, the candidate rows of
    R_s - L_s (row i is [b_i, s] = b_i*s - s*b_i), or of its transpose."""
    for s in list(at.trivial_indices) + at.arrow_indices:
        r, (j, m, c) = at.right(s), _left(at)[s]
        terms = [(r.rows, r.indices, r.data), (j, m, at.gf.neg(c))]
        yield _candidate_rows(at.gf, at.dim, terms, transpose)


@dataclass(frozen=True)
class Socle:
    right: Subspace
    left: Subspace

    @property
    def two_sided_equal(self) -> bool:
        return self.right == self.left


@_cached
def socle(at: AlgebraTable) -> Socle:
    """Right and left socles: annihilators of the arrows on each side, the
    kernels of R_a^T and L_a^T (x*b_a = x @ R_a, b_a*x = x @ L_a)."""
    gf, d, arrows = at.gf, at.dim, at.arrow_indices
    right = kernel(gf, (_candidate_rows(gf, d, [(r.rows, r.indices, r.data)], True)
                        for r in map(at.right, arrows)), d)
    left = kernel(gf, (_candidate_rows(gf, d, [_left(at)[a]], True) for a in arrows), d)
    return Socle(right, left)


@_cached
def center(at: AlgebraTable) -> Subspace:
    """Elements commuting with every trivial path and arrow (hence with all of A)."""
    z = kernel(at.gf, _generator_commutators(at, transpose=True), at.dim)
    if not contains(z, at.unit):
        raise InvariantViolation("center does not contain the unit")
    return z


@_cached
def socle_center(at: AlgebraTable) -> Subspace:
    """soc(A) intersect Z(A), from the right socle."""
    return intersect(socle(at).right, center(at))


@_cached
def commutator_space(at: AlgebraTable) -> Subspace:
    """K(A), the span of all commutators, from the d*(|Q0|+|Q1|) rows [b, s].

    Here b runs over the basis words and s over the trivial paths and
    arrows.  These rows span every [x, c] for c a path, by induction on
    the length of c: a trivial path is some s, and for c = c1*s with s an
    arrow, [x, c1*s] = [x*c1, s] + [s*x, c1], where the first term is a
    combination of rows and the second has a shorter path.  Paths span A.
    The rows are reduced one block per s, so no more than one block is
    held at a time.
    """
    return row_space(at.gf, _generator_commutators(at), at.dim)
