"""Symmetrizing bilinear forms and orthogonal complements.

A symmetrizing form on a finite-dimensional algebra is an associative,
symmetric, nondegenerate bilinear form (x, y) = psi(x*y) for a linear
functional psi.  Associativity is automatic from this shape; symmetry and
nondegeneracy are checked from the generators and the socle (see _build).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, Degenerate, DimensionMismatch, NotSymmetric
from .linalg import Subspace, kernel, rref
from .presentation import PathWord, word_str
from .rewriting import AlgebraTable
from .sparse import contract
from .structure import (closed_part, closed_positions, closed_words, commutator_space, multiply,
                        socle)

__all__ = ["SymmetrizingForm", "canonical_form", "consistent_form", "custom_form", "orthogonal"]


@dataclass(frozen=True)
class SymmetrizingForm:
    """A validated form, stored as psi on the basis words.

    (b_i, b_j) = psi(b_i * b_j) is symmetric and nondegenerate; psi
    therefore vanishes on every commutator.  Its restriction to C, the form
    of psi on the closed words over structure.closed_algebra, is again one,
    as C and O are orthogonal (see reynolds._verified_perp).
    """

    table: AlgebraTable
    psi: np.ndarray

    @property
    def gf(self):
        return self.table.gf

    def pair(self, x: np.ndarray, y: np.ndarray) -> int:
        """The form value (x, y) = psi(x*y) as an encoded field scalar."""
        xy = multiply(self.table, x, y).reshape(1, -1)
        return int(self.gf.matmul(xy, self.psi.reshape(-1, 1))[0, 0])


def _null_vector(at: AlgebraTable, psi: np.ndarray):
    """A nonzero x with psi(x*A) = 0, or None when psi(x*y) is nondegenerate.

    L = {x : psi(x*A) = 0} is a right ideal, as psi((x*a)*y) = psi(x*(a*y)),
    so if L != 0 it contains a minimal right ideal, which lies in the right
    socle S = {x : x*rad = 0} (Lam, Lectures on Modules and Rings, 16).  For
    x in S, x*y = sum_v y_v x*e_v (y_v the e_v coordinate of y), and x*e_v
    keeps the x_i of the words b_i ending at v.  So L cap S = 0 iff the
    (dim S x |Q0|) matrix S @ P, P[i, target(b_i)] = psi_i, has full row
    rank; a left null vector c of it gives x = c @ S in L.
    """
    gf, s, used = at.gf, socle(at).right, np.flatnonzero(psi)
    ends = np.zeros((used.size, len(at.quiver.vertices)), dtype=np.int64)
    ends[np.arange(used.size), at.targets[used]] = psi[used]
    null = kernel(gf, gf.matmul(s.basis[:, used], ends).T, s.dim)
    return gf.matmul(null.basis[:1], s.basis)[0] if null.dim else None


def _build(at: AlgebraTable, psi: np.ndarray) -> SymmetrizingForm:
    """The form of psi, checked to be symmetric, then nondegenerate (_null_vector).

    It is symmetric iff psi vanishes on K(A), which the [b_j, s], s a vertex
    or an arrow, span (see structure.commutator_space): iff (s, b_j) =
    (b_j, s) for every generator s and every j, a g x d slab of rows read
    from L and one of columns read from R.  The generators are the g lowest
    basis indices, and a pair swapped stays asymmetric; so if any pair is
    asymmetric, one starts with a generator, and the first in row-major
    order is the slab's first.
    """
    gf, d, g, left, right = at.gf, at.dim, at.generators, at.left, at.right
    j, s = np.divmod(left.rows, g)  # row j*g + s of L: b_s * b_j; row s*d + k of R: b_k * b_s
    rows, cols = (gf.segment_sum(gf.mul(psi[e.indices], e.data), key, g * d).reshape(g, d)
                  for e, key in ((left, s * d + j), (right, right.rows)))
    # rows[s, k] = (b_s, b_k), cols[s, k] = (b_k, b_s)
    bad = np.argwhere(rows != cols)
    if bad.size:
        s, k = bad[0].tolist()
        raise NotSymmetric(f"({at.word_name(s)}, {at.word_name(k)}) = {rows[s, k]} but "
                           f"({at.word_name(k)}, {at.word_name(s)}) = {cols[s, k]}; "
                           "the algebra is not symmetric for this psi", witness=(s, k))
    x = _null_vector(at, psi)
    if x is not None:
        raise Degenerate("the form psi(x*y) is degenerate", kernel_vector=x)
    return SymmetrizingForm(at, psi)


def canonical_form(at: AlgebraTable) -> SymmetrizingForm:
    """The 0/1 form: psi(b) = 1 exactly when the basis word b lies in the socle.

    Errors: NotSymmetric when the form is asymmetric (or the left and right
    socles differ); Degenerate when the socle is not spanned by basis words,
    or the resulting form is degenerate.
    """
    psi = np.zeros(at.dim, dtype=np.int64)
    psi[_socle_word_indices(at)] = 1
    return _build(at, psi)


def _socle_word_indices(at: AlgebraTable) -> list[int]:
    """Indices of basis words in the socle S; Degenerate if they do not span it.

    e_k is in S iff k is a pivot of S's RREF whose row is e_k: in e_k =
    sum_r c_r row_r, c_r is the entry in row r's pivot column, so c_r = 0
    unless row r pivots at k, and then c_r = 1, the pivot entry.
    """
    s = socle(at)
    if not s.two_sided_equal:
        raise NotSymmetric("left and right socles differ; the algebra is not symmetric")
    single = np.count_nonzero(s.right.basis, axis=1) == 1
    idx = np.array(s.right.pivots, dtype=np.int64)[single].tolist()
    if len(idx) != s.right.dim:
        raise Degenerate("the socle is not spanned by basis words; supply explicit psi "
                         "values with custom_form")
    return idx


def consistent_form(at: AlgebraTable) -> SymmetrizingForm:
    """The minimal symmetrizing form keeping psi = 1 on every socle basis word.

    canonical_form can reject an algebra that is nonetheless symmetric: a
    commutator may tie a non-socle basis word to a socle word, forcing psi
    to be nonzero off the socle.  Each socle basis word spans a
    one-dimensional ideal, so any symmetrizing form is nonzero on all of
    them; this solves the linear system {psi vanishes on K(A), psi = 1 on
    socle words} with all free values set to 0, and validates the result.
    NotSymmetric when the system is infeasible (over GF(2) that is a proof
    that no symmetrizing form exists).

    K(A) = O + pi(K(A)) (see structure.py): psi is 0 on open words, and
    the system is infeasible if a socle word is open.  Else its RREF is the
    unit rows of the open words beside that of [pi(K(A)); socle rows | 1].
    """
    closed, soc = closed_words(at), closed_positions(at)[_socle_word_indices(at)]
    c, k = len(closed), closed_part(at, commutator_space(at))
    system = np.zeros((k.dim + len(soc), c + 1), dtype=np.int64)  # [pi(K(A)) | 0; socle | 1]
    system[:k.dim, :c] = k.basis
    system[np.arange(k.dim, len(system)), soc] = 1  # an open socle word (-1) hits column c
    system[k.dim:, c] = 1
    r, pivots = rref(at.gf, system)
    if c in pivots or np.any(soc < 0):
        raise NotSymmetric("no symmetrizing form assigns a common value 1 to every socle "
                           "word while vanishing on the commutator subspace")
    psi = np.zeros(at.dim, dtype=np.int64)
    psi[closed[pivots]] = r[:len(pivots), c]
    return _build(at, psi)


def custom_form(at: AlgebraTable, psi_values: dict) -> SymmetrizingForm:
    """A form from user-chosen psi values on basis words (all others get 0).

    Keys may be basis PathWords or their DSL names (normally the socle
    words); values are nonzero field scalars.  Validation is the same as
    for canonical_form.
    """
    name_index = {at.word_name(i): i for i in range(at.dim)}
    psi = np.zeros(at.dim, dtype=np.int64)
    for key, value in psi_values.items():
        if isinstance(key, PathWord):
            i = at.index.get(key)
            if i is None:
                raise BadParameters(f"{word_str(at.quiver, key)} is not a basis word")
        else:
            i = name_index.get(str(key))
            if i is None:
                raise BadParameters(f"{key!r} is not a basis word")
        c = int(value) % at.gf.p if at.gf.e == 1 else int(value)
        if not 0 <= c < at.gf.q:
            raise BadParameters(f"psi({at.word_name(i)}) = {value} is not a field element")
        if c == 0:
            raise BadParameters(f"psi({at.word_name(i)}) must be nonzero")
        psi[i] = c
    return _build(at, psi)


def orthogonal(f: SymmetrizingForm, s: Subspace) -> Subspace:
    """The complement {y : (x, y) = 0 for all x in s} under the form: the
    kernel of one contraction of the rows of s against the constants (i, j,
    m, c) of the full table with psi[m] != 0, (b_i, b_j) being the sum of
    psi[m] * c over those at (i, j)."""
    at = f.table
    if s.ambient_dim != at.dim:
        raise DimensionMismatch(f"subspace ambient {s.ambient_dim} != algebra dimension {at.dim}")
    i, j, m, c = at.entries()
    e = f.psi[m] != 0
    w = f.gf.mul(f.psi[m[e]], c[e])
    return kernel(f.gf, contract(f.gf, [(s.basis, i[e])], w, j[e], at.dim), at.dim)
