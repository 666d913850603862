"""Symmetrizing bilinear forms and orthogonal complements.

A symmetrizing form on a finite-dimensional algebra is an associative,
symmetric, nondegenerate bilinear form (x, y) = psi(x*y) for a linear
functional psi.  Associativity is automatic from this shape; symmetry and
nondegeneracy are validated on the Gram matrix before a form is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, Degenerate, DimensionMismatch, NotSymmetric
from .linalg import Subspace, kernel, rref
from .presentation import PathWord, word_str
from .rewriting import AlgebraTable
from .sparse import contract
from .structure import closed_part, closed_words, commutator_space, socle

__all__ = ["SymmetrizingForm", "canonical_form", "consistent_form", "custom_form", "orthogonal"]


@dataclass(frozen=True)
class SymmetrizingForm:
    """A validated form, stored as psi on basis words plus its Gram matrix.

    gram[i, j] = psi(b_i * b_j) is symmetric and nonsingular; psi therefore
    vanishes on every commutator.
    """

    table: AlgebraTable
    psi: np.ndarray
    gram: np.ndarray

    @property
    def gf(self):
        return self.table.gf

    def pair(self, x: np.ndarray, y: np.ndarray) -> int:
        """The form value (x, y) = psi(x*y) as an encoded field scalar."""
        gf, d = self.gf, self.table.dim
        row = gf.matmul(np.asarray(x, dtype=np.int64).reshape(1, d), self.gram)
        return int(gf.matmul(row, np.asarray(y, dtype=np.int64).reshape(d, 1))[0, 0])


def _gram(at: AlgebraTable, psi: np.ndarray) -> np.ndarray:
    """gram[i, j] = psi(b_i * b_j): psi[m] * c summed over the stored constants (i, j, m, c)."""
    d = at.dim
    i, j, m, c = at.entries()
    return contract(at.gf, [(psi.reshape(1, d), m)], c, i * d + j, d * d).reshape(d, d)


def _build(at: AlgebraTable, psi: np.ndarray) -> SymmetrizingForm:
    """Contract psi against the structure constants and validate the Gram matrix."""
    gram = _gram(at, psi)
    if not np.array_equal(gram, gram.T):
        i, j = np.argwhere(gram != gram.T)[0]
        raise NotSymmetric(
            f"({at.word_name(int(i))}, {at.word_name(int(j))}) = "
            f"{int(gram[i, j])} but ({at.word_name(int(j))}, {at.word_name(int(i))}) = "
            f"{int(gram[j, i])}; the algebra is not symmetric for this psi",
            witness=(int(i), int(j)))
    rad = kernel(at.gf, gram)
    if rad.dim:
        raise Degenerate("the form psi(x*y) is degenerate", kernel_vector=rad.basis[0].copy())
    return SymmetrizingForm(at, psi, gram)


def canonical_form(at: AlgebraTable) -> SymmetrizingForm:
    """The 0/1 form: psi(b) = 1 exactly when the basis word b lies in the socle.

    Errors: NotSymmetric when the Gram matrix is asymmetric (or the left and
    right socles differ); Degenerate when the socle is not spanned by basis
    words, or the resulting Gram matrix is singular.
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
    closed, soc_idx = closed_words(at), _socle_word_indices(at)
    c, k = len(closed), closed_part(at, commutator_space(at))
    system = np.zeros((k.dim + len(soc_idx), c + 1), dtype=np.int64)  # [pi(K(A)) | 0; socle | 1]
    system[:k.dim, :c] = k.basis
    system[np.arange(k.dim, len(system)), np.searchsorted(closed, soc_idx)] = 1
    system[k.dim:, c] = 1
    r, pivots = rref(at.gf, system)
    if c in pivots or not np.isin(soc_idx, closed).all():
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
    """The complement {y : (x, y) = 0 for all x in s} under the form."""
    at = f.table
    if s.ambient_dim != at.dim:
        raise DimensionMismatch(f"subspace ambient {s.ambient_dim} != algebra dimension {at.dim}")
    return kernel(f.gf, f.gf.matmul(s.basis, f.gram))
