"""Multiplication of elements and the classical subspaces of a
finite-dimensional algebra: radical, socle, center, commutator span.

Elements are coordinate vectors over the table's monomial basis.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotNilpotent
from .linalg import Subspace, contains, kernel, row_space, zero_subspace
from .rewriting import AlgebraTable

__all__ = [
    "multiply",
    "power",
    "left_mult_matrix",
    "right_mult_matrix",
    "radical",
    "Socle",
    "socle",
    "center",
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

    This is the one product path for elements: row r is y[r] against the
    left multiplication matrix of x[r], one stacked gf.matmul for all rows.
    """
    d = at.dim
    x = _as_vec(at, x)
    y = _as_vec(at, y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"factors have shapes {x.shape} and {y.shape}")
    left = left_mult_matrix(at, x.reshape(-1, d))  # [r, j, l] = (x_r * b_j)_l
    return at.gf.matmul(y.reshape(-1, 1, d), left).reshape(x.shape)


def power(at: AlgebraTable, x, k: int) -> np.ndarray:
    """k-th power by binary exponentiation, row-wise on a stack; x**0 is the unit."""
    if k < 0:
        raise ValueError("negative powers are undefined here")
    base = _as_vec(at, x)
    acc = np.broadcast_to(at.unit, base.shape).copy()
    while k:
        if k & 1:
            acc = multiply(at, acc, base)
        base = multiply(at, base, base) if k > 1 else base
        k >>= 1
    return acc


def left_mult_matrix(at: AlgebraTable, x) -> np.ndarray:
    """Matrix of y -> x*y acting on row coordinate vectors: (x*b_j)_l; (r, d, d) for a stack."""
    d = at.dim
    x = _as_vec(at, x)
    m = at.gf.matmul(x.reshape(-1, d), at.table.reshape(d, d * d))
    return m.reshape(x.shape[:-1] + (d, d))


def right_mult_matrix(at: AlgebraTable, x) -> np.ndarray:
    """Matrix of y -> y*x: rows are (b_i*x)_l."""
    d = at.dim
    x = _as_vec(at, x)
    m = at.table.transpose(1, 0, 2).reshape(d, d * d)  # [j, i*d + l]
    return at.gf.matmul(x.reshape(-1, d), m).reshape(x.shape[:-1] + (d, d))


def radical(at: AlgebraTable) -> Subspace:
    """Span of the non-trivial basis words, verified nilpotent.

    Nilpotency is checked on the spans T_k of length-k path images:
    T_(k+1) = T_k * arrows, and rad**m = sum of T_k for k >= m, so the
    radical is nilpotent iff some T_k (k <= dim) vanishes.
    """
    d = at.dim
    eye = np.eye(d, dtype=np.int64)
    rad = row_space(at.gf, eye[at.lengths() >= 1], d)
    right_arrows = at.table[:, at.arrow_indices, :].reshape(d, -1)  # [j, a*d + l] = (b_j b_a)_l
    t = row_space(at.gf, eye[at.lengths() == 1], d)
    steps = 1
    while t.dim:
        if steps > d:
            raise NotNilpotent("arrow products never die out; the relations are not admissible")
        t = row_space(at.gf, at.gf.matmul(t.basis, right_arrows).reshape(-1, d), d)
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


def _generator_commutators(at: AlgebraTable) -> np.ndarray:
    """c[g, i] = [b_i, s_g] = b_i*s_g - s_g*b_i for s_g each trivial path and arrow."""
    gens = list(at.trivial_indices) + at.arrow_indices
    return at.gf.sub(at.table[:, gens, :].transpose(1, 0, 2), at.table[gens, :, :])


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
    right_cons = at.table[:, arrows, :].reshape(d, -1)  # x @ C[:,a,:] = coords(x*b_a)
    left_cons = at.table[arrows].transpose(1, 0, 2).reshape(d, -1)  # x @ C[a] = coords(b_a*x)
    return Socle(kernel(at.gf, right_cons.T), kernel(at.gf, left_cons.T))


@_cached
def center(at: AlgebraTable) -> Subspace:
    """Elements commuting with every trivial path and arrow (hence with all of A)."""
    d = at.dim
    z = kernel(at.gf, _generator_commutators(at).transpose(0, 2, 1).reshape(-1, d))
    if not contains(z, at.unit):
        raise InvariantViolation("center does not contain the unit")
    return z


@_cached
def commutator_space(at: AlgebraTable) -> Subspace:
    """K(A), the span of all commutators, from the d*(|Q0|+|Q1|) rows [b, s].

    Here b runs over the basis words and s over the trivial paths and
    arrows.  These rows span every [x, c] for c a path, by induction on
    the length of c: a trivial path is some s, and for c = c1*s with s an
    arrow, [x, c1*s] = [x*c1, s] + [s*x, c1], where the first term is a
    combination of rows and the second has a shorter path.  Paths span A.
    """
    d = at.dim
    return row_space(at.gf, _generator_commutators(at).reshape(-1, d), d)
