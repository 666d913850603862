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
    "left_mult_matrix",
    "right_mult_matrix",
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


def left_mult_matrix(at: AlgebraTable, x) -> np.ndarray:
    """Matrix of y -> x*y acting on row coordinate vectors: (x*b_j)_l; (r, d, d) for a stack."""
    d = at.dim
    x = _as_vec(at, x)
    i, j, m, c = at.entries()
    out = contract(at.gf, [(x.reshape(-1, d), i)], c, j * d + m, d * d)
    return out.reshape(x.shape[:-1] + (d, d))


def right_mult_matrix(at: AlgebraTable, x) -> np.ndarray:
    """Matrix of y -> y*x: rows are (b_i*x)_l."""
    d = at.dim
    x = _as_vec(at, x)
    i, j, m, c = at.entries()
    out = contract(at.gf, [(x.reshape(-1, d), j)], c, i * d + m, d * d)
    return out.reshape(x.shape[:-1] + (d, d))


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


def _left(at: AlgebraTable, s: int) -> np.ndarray:
    """L_s, the left multiplication by b_s: row j holds b_s*b_j."""
    return left_mult_matrix(at, np.eye(at.dim, dtype=np.int64)[s])


def _generator_commutators(at: AlgebraTable):
    """Yield, for s each trivial path and arrow, the (d, d) block of rows
    [b_i, s] = b_i*s - s*b_i, which is R_s - L_s."""
    for s in list(at.trivial_indices) + at.arrow_indices:
        yield at.gf.sub(at.right(s).to_dense(), _left(at, s))


@dataclass(frozen=True)
class Socle:
    right: Subspace
    left: Subspace

    @property
    def two_sided_equal(self) -> bool:
        return self.right == self.left


@_cached
def socle(at: AlgebraTable) -> Socle:
    """Right and left socles: annihilators of the arrows on each side."""
    d, arrows = at.dim, at.arrow_indices
    right = kernel(at.gf, (at.right(a).to_dense().T for a in arrows), d)  # x*b_a = x @ R_a
    left = kernel(at.gf, (_left(at, a).T for a in arrows), d)             # b_a*x = x @ L_a
    return Socle(right, left)


@_cached
def center(at: AlgebraTable) -> Subspace:
    """Elements commuting with every trivial path and arrow (hence with all of A)."""
    z = kernel(at.gf, (c.T for c in _generator_commutators(at)), at.dim)
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
    The rows are reduced one (d, d) block per s, so no more than one block
    is held at a time.
    """
    return row_space(at.gf, _generator_commutators(at), at.dim)
