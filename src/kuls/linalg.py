"""Exact linear algebra over a GF: reduced row echelon form, kernels,
subspace lattice operations and Frobenius shifts.

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
    "full_space",
    "subspace_sum",
    "intersect",
    "contains",
    "contains_subspace",
    "reduce_mod",
    "solve",
    "frobenius_shift",
]


def rref(gf: GF, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Return (reduced row echelon form, pivot columns).

    Pivot choice is deterministic: first nonzero entry scanning rows top
    to bottom in the current column, columns left to right.
    """
    a = np.array(m, dtype=np.int64)
    if a.ndim != 2:
        a = np.atleast_2d(a)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = gf.mul(a[r], gf.inv(a[r, c]))
        others = gf.mul(a[:, c:c + 1], a[r:r + 1, :])
        others[r] = 0
        a = gf.sub(a, others)
        pivots.append(c)
        r += 1
    return a, pivots


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


def row_space(gf: GF, rows: np.ndarray, ambient_dim: int | None = None) -> Subspace:
    """Canonicalize the span of the given row vectors."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    n = ambient_dim if ambient_dim is not None else rows.shape[1]
    if rows.size == 0:
        return zero_subspace(gf, n)
    if rows.shape[1] != n:
        raise DimensionMismatch(f"rows have {rows.shape[1]} columns, ambient is {n}")
    r, pivots = rref(gf, rows)
    return Subspace(gf, n, r[: len(pivots)].copy(), tuple(pivots))


def zero_subspace(gf: GF, n: int) -> Subspace:
    return Subspace(gf, n, np.zeros((0, n), dtype=np.int64), ())


def full_space(gf: GF, n: int) -> Subspace:
    return Subspace(gf, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def kernel(gf: GF, m: np.ndarray) -> Subspace:
    """Right null space {x : m @ x = 0} of an (r, n) matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=np.int64))
    rows, n = m.shape
    r, pivots = rref(gf, m)
    free = sorted(set(range(n)) - set(pivots))
    if not free:
        return zero_subspace(gf, n)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = gf.neg(r[:len(pivots), free].T)  # x_c = -r[i, f] for pivot c of row i
    return row_space(gf, basis, n)


def _check_compatible(a: Subspace, b: Subspace):
    if a.gf != b.gf or a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
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


def solve(gf: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def frobenius_shift(s: Subspace, n: int = 1, direction: str = "inverse") -> Subspace:
    """Image of s under the coordinatewise field map x -> x**(p**n) or its inverse.

    direction="inverse" returns {v : frob**n(v) in s}; "forward" returns
    {frob**n(v) : v in s}.  Over prime fields both are s itself.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    gf = s.gf
    if gf.e == 1 or n % gf.e == 0:
        return s
    mapped = gf.frob(s.basis, n) if direction == "forward" else gf.frob_inv(s.basis, n)
    return row_space(gf, mapped, s.ambient_dim)
