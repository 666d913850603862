"""Kuelshammer subspaces T_n, generalized Reynolds ideals and comparison.

Over a field of characteristic p, T_n(A) = {x : x**(p**n) in K(A)} where
K(A) is the commutator subspace.  The orthogonal complements T_n(A)^perp
under a symmetrizing form are ideals of the center, invariant under derived
equivalence, so two algebras whose perp-dimension sequences differ cannot
be derived equivalent.  Equal sequences prove nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadParameters, BudgetExceeded, CharacteristicMismatch,
                     InvariantViolation)
from .form import SymmetrizingForm, orthogonal
from .gf import GF
from .linalg import (Subspace, contains, contains_subspace, frobenius_shift,
                     intersect, kernel, reduce_mod, row_space, solve)
from .rewriting import AlgebraTable
from .structure import center, commutator_space, left_mult_matrix, power, socle

__all__ = [
    "ReynoldsRow",
    "ReynoldsReport",
    "Verdict",
    "XiMap",
    "kuelshammer_space",
    "reynolds_ideal",
    "xi_map",
    "reynolds_sequence",
    "compare",
    "brute_force_kuelshammer",
]

BRUTE_FORCE_CHUNK = 1024  # elements per stacked power in brute_force_kuelshammer


@dataclass(frozen=True)
class ReynoldsRow:
    n: int
    dim_t: int
    dim_t_perp: int


@dataclass(frozen=True)
class ReynoldsReport:
    """Dimension data of the T_n chain for one algebra."""

    name: str
    gf: GF
    dim: int
    dim_center: int
    dim_socle: int
    dim_commutator: int
    rows: tuple[ReynoldsRow, ...]
    stabilized_at: int | None

    def perp_dim(self, n: int) -> int | None:
        """dim T_n^perp, extending past the computed rows once stabilized."""
        if n < len(self.rows):
            return self.rows[n].dim_t_perp
        if self.stabilized_at is not None:
            return self.rows[-1].dim_t_perp
        return None


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing two reports; never claims derived equivalence."""

    verdict: str  # "distinguished" or "inconclusive"
    witness_n: int | None = None
    dims: tuple[int, int] | None = None


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


def kuelshammer_space(at: AlgebraTable, n: int) -> Subspace:
    """T_n(A) = {x : x**(p**n) in K(A)} by the semilinear-kernel method.

    x -> x**(p**n) is additive modulo K(A) and p**n-semilinear, so with
    r_i = b_i**(p**n) reduced mod K(A) the condition on x = sum c_i b_i is
    sum c_i**(p**n) r_i = 0; solve for the twisted coordinates d_i and pull
    back through the inverse Frobenius.
    """
    if n < 0:
        raise BadParameters("n must be nonnegative")
    k = commutator_space(at)
    if n == 0:
        return k
    residues = reduce_mod(k, power(at, np.eye(at.dim, dtype=np.int64), at.gf.p ** n))
    twisted = kernel(at.gf, residues.T)
    return frobenius_shift(twisted, n, "inverse")


def _verified_perp(at: AlgebraTable, f: SymmetrizingForm, t: Subspace,
                   z: Subspace, soc_z: Subspace) -> Subspace:
    """orthogonal(f, t), checked to be an ideal of Z(A) containing soc and Z."""
    perp = orthogonal(f, t)
    if not contains_subspace(z, perp):
        raise InvariantViolation("T_n^perp is not contained in the center")
    if not contains_subspace(perp, soc_z):
        raise InvariantViolation("T_n^perp does not contain soc(A) intersect Z(A)")
    d = at.dim
    left = left_mult_matrix(at, perp.basis).transpose(1, 0, 2)  # [j, v] = v * b_j
    prods = at.gf.matmul(z.basis, left.reshape(d, -1))          # [w, v*d + l] = (v * w)_l
    if np.any(reduce_mod(perp, prods.reshape(-1, d))):
        raise InvariantViolation("T_n^perp is not an ideal of the center")
    return perp


def reynolds_ideal(at: AlgebraTable, f: SymmetrizingForm, n: int) -> Subspace:
    """T_n(A)^perp, verified to be an ideal of Z(A) between soc(A) cap Z(A) and Z(A)."""
    z = center(at)
    s = socle(at)
    return _verified_perp(at, f, kuelshammer_space(at, n), z, intersect(s.right, z))


def xi_map(at: AlgebraTable, f: SymmetrizingForm, n: int) -> XiMap:
    """The map xi_n on Z(A) defined by (xi_n(z), x)**(p**n) = (z, x**(p**n)).

    For central z the right side is p**n-semilinear in x, so xi_n(z) is the
    unique solution of a nonsingular linear system over the whole algebra
    basis.  The image is verified to equal reynolds_ideal(at, f, n).
    """
    gf = at.gf
    d = at.dim
    z = center(at)
    g = f.gram
    pmat = power(at, np.eye(d, dtype=np.int64), gf.p ** n)  # row i is b_i**(p**n)
    # rhs[j, i] = (z_j, b_i**(p**n)); take p**n-th roots entrywise, then
    # solve w @ G = root-row for each center basis vector.
    rhs = gf.matmul(gf.matmul(z.basis, g), pmat.T)
    roots = gf.frob_inv(rhs, n)
    mat = solve(gf, g.T, roots.T).T
    for row in mat:
        if not contains(z, row):
            raise InvariantViolation("xi_n image is not central")
    lhs = gf.pow(gf.matmul(mat, g), gf.p ** n)
    if not np.array_equal(lhs, rhs):
        raise InvariantViolation("xi_n does not satisfy its defining equation")
    image = row_space(gf, mat, d)
    if image != reynolds_ideal(at, f, n):
        raise InvariantViolation("image of xi_n differs from T_n^perp")
    return XiMap(center=z, matrix=mat, n=n, image=image)


def reynolds_sequence(at: AlgebraTable, f: SymmetrizingForm,
                      max_n: int = 8) -> ReynoldsReport:
    """Rows (dim T_n, dim T_n^perp) for n = 0, 1, ... until stabilization.

    Stops after the first n with T_n = T_(n+1); stabilization is permanent
    because x in T_(n+2) iff x**p in T_(n+1).  The terminal complement is
    checked to equal soc(A) intersect Z(A).
    """
    if max_n < 1:
        raise BadParameters("max_n must be at least 1")
    z = center(at)
    k = commutator_space(at)
    s = socle(at)
    if not s.two_sided_equal:
        raise InvariantViolation("socle is one-sided although a form was validated")
    soc_z = intersect(s.right, z)

    t = kuelshammer_space(at, 0)
    if t != k:
        raise InvariantViolation("T_0 differs from the commutator subspace")
    perp = _verified_perp(at, f, t, z, soc_z)
    if perp != z:
        raise InvariantViolation("K(A)^perp is not the center")
    rows = [ReynoldsRow(0, t.dim, perp.dim)]
    stabilized_at = None
    for n in range(1, max_n + 1):
        t_next = kuelshammer_space(at, n)
        if not contains_subspace(t_next, t):
            raise InvariantViolation("T_n chain is not ascending")
        perp_next = _verified_perp(at, f, t_next, z, soc_z)
        if not contains_subspace(perp, perp_next):
            raise InvariantViolation("T_n^perp chain is not descending")
        rows.append(ReynoldsRow(n, t_next.dim, perp_next.dim))
        if t_next == t:
            stabilized_at = n - 1
            if perp_next != soc_z:
                raise InvariantViolation(
                    "stabilized T_n^perp differs from soc(A) intersect Z(A)")
            break
        t, perp = t_next, perp_next
    return ReynoldsReport(
        name=at.presentation.name,
        gf=at.gf,
        dim=at.dim,
        dim_center=z.dim,
        dim_socle=s.right.dim,
        dim_commutator=k.dim,
        rows=tuple(rows),
        stabilized_at=stabilized_at,
    )


def compare(a: ReynoldsReport, b: ReynoldsReport) -> Verdict:
    """Distinguished when some aligned dim T_n^perp differs, else Inconclusive."""
    if a.gf.p != b.gf.p:
        raise CharacteristicMismatch(
            f"cannot compare characteristics {a.gf.p} and {b.gf.p}")
    horizon = max(len(a.rows), len(b.rows))
    for n in range(horizon):
        da, db = a.perp_dim(n), b.perp_dim(n)
        if da is None or db is None:
            break
        if da != db:
            return Verdict("distinguished", witness_n=n, dims=(da, db))
    return Verdict("inconclusive")


def brute_force_kuelshammer(at: AlgebraTable, n: int,
                            budget: int = 2**20) -> Subspace:
    """T_n(A) by enumerating every element; independent check of kuelshammer_space.

    Elements are raised to the p**n-th power through structure.power, the
    same product path as the pipeline, in chunks of BRUTE_FORCE_CHUNK rows; a
    (chunk, d*d) temporary is 3.3 MB at d = 20, small enough to keep peak RSS steady.
    """
    gf = at.gf
    d = at.dim
    total = gf.q ** d
    if total > budget:
        raise BudgetExceeded(
            f"enumerating {gf.q}**{d} = {total} elements exceeds the budget {budget}")
    k = commutator_space(at)
    m = gf.p ** n
    span = row_space(gf, np.zeros((0, d), dtype=np.int64), d)
    weights = gf.q ** np.arange(d, dtype=np.int64)
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        vectors = (idx[:, None] // weights[None, :]) % gf.q
        powers = power(at, vectors, m)
        mask = ~reduce_mod(k, powers).any(axis=1)
        if mask.any():
            span = row_space(gf, np.vstack([span.basis, vectors[mask]]), d)
    return span
