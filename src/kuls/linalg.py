"""Exact linear algebra over a GF: reduced row echelon form, kernels and
subspace lattice operations.

A Subspace is held in canonical form (RREF basis, strictly increasing
pivots, no zero rows), so two subspaces are equal iff their basis arrays
are equal entrywise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .gf import GF

__all__ = [
    "Subspace",
    "rref",
    "kernel",
    "row_space",
    "zero_subspace",
    "contains",
    "contains_subspace",
    "reduce_mod",
]


def rref(gf: GF, m: np.ndarray, prefix: tuple[int, ...] = ()) -> tuple[np.ndarray, list[int]]:
    """Return (reduced row echelon form, pivot columns).

    Pivot choice is deterministic: first nonzero entry scanning rows top
    to bottom in the current column, columns left to right.  A pivot at
    (r, c) updates only the rows nonzero in column c, and only columns c
    onward: a zero multiple of the pivot row changes nothing, and rows r
    onward, the pivot row among them, are zero left of c (each earlier
    column was cleared below its pivot, or had no pivot, being zero there).

    prefix may give the pivots of leading rows already in RREF, every later
    row being zero in those columns, as reduce_mod leaves it.  The updates
    keep later rows inside their joint support, so only its columns are
    visited; each new pivot is eliminated from all rows, prefix rows too,
    and sorting the rows by pivot gives the RREF of the whole matrix.
    """
    a = np.atleast_2d(np.array(m, dtype=np.int64))
    rows = a.shape[0]
    pivots = list(prefix)
    r = len(pivots)
    for c in np.flatnonzero(a[r:].any(axis=0)).tolist():
        if r == rows:
            break
        nz = np.flatnonzero(a[:, c])
        below = nz[nz >= r]
        if below.size == 0:
            continue
        i = int(below[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if a[r, c] != 1:
            a[r, c:] = gf.mul(a[r, c:], gf.sinv(int(a[r, c])))
        hit = nz[nz != i]  # after the swap, row i holds the old row r, zero in column c
        if hit.size:
            a[hit, c:] = gf.sub(a[hit, c:], gf.mul(a[hit, c:c + 1], a[r, c:]))
        pivots.append(c)
        r += 1
    a[:r] = a[np.argsort(pivots)]  # new pivots may lie left of prefix pivots
    return a, sorted(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF**n in canonical RREF form, with a read-only basis."""

    gf: GF
    ambient_dim: int
    basis: np.ndarray = field(compare=False)  # (dim, ambient_dim), RREF
    pivots: tuple[int, ...] = ()

    def __post_init__(self):
        self.basis.flags.writeable = False  # bases are shared, e.g. cached per algebra

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.gf == other.gf
                and self.ambient_dim == other.ambient_dim
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, gf={self.gf!r})"


def row_space(gf: GF, rows, ambient_dim: int | None = None) -> Subspace:
    """Canonicalize the span of the rows of an (r, n) array.

    Zero rows are dropped and the rest reduced n at a time (n the ambient
    dimension) modulo the span so far; rref extends the span's RREF by the
    nonzero residues, so no elimination sees more than 2n rows.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    n = ambient_dim if ambient_dim is not None else rows.shape[1]
    if rows.shape[1] != n:
        raise DimensionMismatch(f"rows have {rows.shape[1]} columns, ambient is {n}")
    rows = rows[rows.any(axis=1)]
    span = zero_subspace(gf, n)
    for start in range(0, rows.shape[0], max(n, 1)):
        residues = reduce_mod(span, rows[start:start + n])
        residues = residues[residues.any(axis=1)]
        if residues.size:
            r, pivots = rref(gf, np.vstack([span.basis, residues]), span.pivots)
            span = Subspace(gf, n, r[: len(pivots)].copy(), tuple(pivots))
    return span


def zero_subspace(gf: GF, n: int) -> Subspace:
    return Subspace(gf, n, np.zeros((0, n), dtype=np.int64), ())


def kernel(gf: GF, m, n: int | None = None) -> Subspace:
    """Right null space {x : m @ x = 0} of an (r, n) matrix, from one RREF:
    that of the row space of m with its columns reversed, column k read as
    column n - 1 - k.

    In those reversed coordinates, with RREF rows r_i of pivot c_i, the
    kernel has one vector per free column f: 1 at f, -r_i[f] at each c_i,
    0 elsewhere.  r_i[f] != 0 only for c_i < f, since r_i is 0 left of
    c_i and f is no pivot.  Reversed back, the vector of f has its leading
    1 at n - 1 - f, its other nonzeros right of it at former pivot columns,
    and 0 at every other free column, which holds the leading 1 of another
    vector.  So these vectors, sorted by leading column (f descending), are
    the RREF of the kernel, unique for a subspace: no second elimination.
    """
    rs = row_space(gf, np.atleast_2d(np.asarray(m, dtype=np.int64))[:, ::-1], n)
    n = rs.ambient_dim
    free = sorted(set(range(n)) - set(rs.pivots))
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(rs.pivots)] = gf.neg(rs.basis[:, free].T)  # x_c = -rs.basis[i, f], pivot c
    return Subspace(gf, n, basis[::-1, ::-1].copy(), tuple(n - 1 - f for f in reversed(free)))


def _check_compatible(a: Subspace, b: Subspace):
    if a.gf != b.gf or a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")


def reduce_mod(s: Subspace, v: np.ndarray) -> np.ndarray:
    """Residual of v after eliminating s's pivot coordinates; zero iff v in s."""
    v = np.asarray(v, dtype=np.int64)
    single = v.ndim == 1
    v = np.atleast_2d(v)
    if v.shape[1] != s.ambient_dim:
        raise DimensionMismatch(f"vector length {v.shape[1]} != ambient {s.ambient_dim}")
    if s.dim:
        coeffs = v[:, list(s.pivots)]
        v = s.gf.sub(v, s.gf.matmul(coeffs, s.basis))
    return v[0] if single else v


def contains(s: Subspace, v: np.ndarray) -> bool:
    return not np.any(reduce_mod(s, v))


def contains_subspace(s: Subspace, t: Subspace) -> bool:
    _check_compatible(s, t)
    return t.dim == 0 or not np.any(reduce_mod(s, t.basis))

