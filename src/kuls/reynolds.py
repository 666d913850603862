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

from .errors import BadParameters, BudgetExceeded, CharacteristicMismatch, InvariantViolation
from .form import SymmetrizingForm, orthogonal
from .gf import GF
from .linalg import Subspace, contains_subspace, kernel, reduce_mod, row_space
from .rewriting import AlgebraTable
from .structure import (closed_algebra, closed_center, closed_part, closed_socle_center,
                        closed_words, commutator_space, lift, multiply, power, socle)

__all__ = ["ReynoldsRow", "ReynoldsReport", "Verdict", "kuelshammer_space", "reynolds_ideal",
           "reynolds_sequence", "compare", "brute_force_kuelshammer"]

# bound on q**b, the elements per chunk of brute_force_kuelshammer: each chunk
# is one high part plus every vector of the b low coordinates, and the chunk
# bounds only its (q**b, d) arrays
BRUTE_FORCE_CHUNK = 1024


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


def _chain(at: AlgebraTable, n: int) -> Subspace:
    """T_n(A) cap C on the closed coordinates (see kuelshammer_space)."""
    if n < 0:
        raise BadParameters("n must be nonnegative")
    gf, c = at.gf, len(closed_words(at))
    k = commutator_space(at)  # T_0, cached per table
    chain = at.cache.setdefault("kuelshammer_chain", [closed_part(at, k)])
    while n >= len(chain) and (len(chain) == 1 or chain[-1] != chain[-2]):
        if "pth_powers" not in at.cache:  # the closed words to the p, in C
            at.cache["pth_powers"] = power(closed_algebra(at), np.eye(c, dtype=np.int64), gf.p)
        twisted = kernel(gf, reduce_mod(chain[-1], at.cache["pth_powers"]).T, c)
        chain.append(Subspace(gf, c, gf.frob_inv(twisted.basis), twisted.pivots))
    return chain[min(n, len(chain) - 1)]


def kuelshammer_space(at: AlgebraTable, n: int) -> Subspace:
    """T_n(A) = {x : x**(p**n) in K(A)}, one semilinear step per n from T_0 = K(A).

    x**(p**n) = (x**p)**(p**(n-1)), so T_n = {x : x**p in T_(n-1)}.  The
    chain ascends, as K(A)**p lies in K(A): [a, b]**p = (ab)**p - (ba)**p =
    [a, (ba)**(p-1) b] mod K(A).  Modulo K(A), hence modulo T_(n-1),
    x -> x**p is additive and p-semilinear, so with r_i = b_i**p reduced mod
    T_(n-1) the condition on x = sum c_i b_i is sum c_i**p r_i = 0: solve for
    the twisted coordinates c_i**p and take p-th roots entrywise.  A field
    automorphism keeps an RREF and its pivots, so the roots need no
    elimination.  The steps run in C (see structure.py): T_n contains K(A)
    and so O, hence T_n = O + (T_n cap C); for x in C, x**p lies in the
    subalgebra C and differs from sum c_i**p b_i**p by an element of K(A)
    cap C.  So only the closed b_i enter, raised to the p in the cut table
    closed_algebra(at).  The chain T_n cap C and the rows b_i**p are kept in
    at.cache; once T_n = T_(n-1) the chain is constant (x in T_(n+1) iff
    x**p in T_n): c steps at most.
    """
    return lift(at, _chain(at, n), with_open=True)


def _verified_perp(at: AlgebraTable, f: SymmetrizingForm, t: Subspace) -> Subspace:
    """T_n^perp on the closed coordinates, from t = T_n cap C, checked to be
    an ideal of Z(A) between soc(A) cap Z(A) and Z(A).

    psi(xy) vanishes on K(A), hence on O, and a closed word times an open
    one is 0 or open, so C and O are orthogonal: the nondegenerate form is
    nondegenerate on C, and y is orthogonal to O iff y is in C.  As T_n =
    O + (T_n cap C), T_n^perp is the complement of T_n cap C under the form
    on C: orthogonal on the cut table closed_algebra(at), psi restricted to
    the closed words.  Z(A) and soc(A) cap Z(A) lie in C: so do the checks,
    and the products v * w are products in C.
    """
    cut = closed_algebra(at)
    z, soc_z = closed_center(at), closed_socle_center(at)  # cached per table
    perp = orthogonal(SymmetrizingForm(cut, f.psi[closed_words(at)]), t)
    if not contains_subspace(z, perp):
        raise InvariantViolation("T_n^perp is not contained in the center")
    if not contains_subspace(perp, soc_z):
        raise InvariantViolation("T_n^perp does not contain soc(A) cap Z(A)")
    prods = multiply(cut, np.repeat(perp.basis, z.dim, axis=0), np.tile(z.basis, (perp.dim, 1)))
    if np.any(reduce_mod(perp, prods)):  # v * w for v in perp, w in Z
        raise InvariantViolation("T_n^perp is not an ideal of the center")
    return perp


def reynolds_ideal(at: AlgebraTable, f: SymmetrizingForm, n: int) -> Subspace:
    """T_n(A)^perp, verified to be an ideal of Z(A) between soc(A) cap Z(A) and Z(A)."""
    return lift(at, _verified_perp(at, f, _chain(at, n)))


def reynolds_sequence(at: AlgebraTable, f: SymmetrizingForm, max_n: int = 8) -> ReynoldsReport:
    """Rows (dim T_n, dim T_n^perp) for n = 0, 1, ... until stabilization.

    Stops after the first n with T_n = T_(n+1); stabilization is permanent
    because x in T_(n+2) iff x**p in T_(n+1).  The terminal complement is
    checked to equal soc(A) cap Z(A).  All checks run on the closed
    coordinates, which is exact: lifting to A is injective and keeps
    inclusions.  dim T_n = (d - c) + dim(T_n cap C).
    """
    if max_n < 1:
        raise BadParameters("max_n must be at least 1")
    z, k, s = closed_center(at), commutator_space(at), socle(at)
    if not s.two_sided_equal:
        raise InvariantViolation("socle is one-sided although a form was validated")
    opened = at.dim - len(closed_words(at))
    soc_z = closed_socle_center(at)

    t = _chain(at, 0)  # closed_part(at, k) by construction, so not checked again
    perp = _verified_perp(at, f, t)
    if perp != z:
        raise InvariantViolation("K(A)^perp is not the center")
    rows, stabilized_at = [ReynoldsRow(0, opened + t.dim, perp.dim)], None
    for n in range(1, max_n + 1):
        t_next = _chain(at, n)
        if not contains_subspace(t_next, t):
            raise InvariantViolation("T_n chain is not ascending")
        perp_next = _verified_perp(at, f, t_next)
        if not contains_subspace(perp, perp_next):
            raise InvariantViolation("T_n^perp chain is not descending")
        rows.append(ReynoldsRow(n, opened + t_next.dim, perp_next.dim))
        if t_next == t:
            stabilized_at = n - 1
            if perp_next != soc_z:
                raise InvariantViolation("stabilized T_n^perp differs from soc(A) cap Z(A)")
            break
        t, perp = t_next, perp_next
    return ReynoldsReport(at.presentation.name, at.gf, at.dim, z.dim, s.right.dim, k.dim,
                          tuple(rows), stabilized_at)


def compare(a: ReynoldsReport, b: ReynoldsReport) -> Verdict:
    """Distinguished when some aligned dim T_n^perp differs, else Inconclusive."""
    if a.gf.p != b.gf.p:
        raise CharacteristicMismatch(f"cannot compare characteristics {a.gf.p} and {b.gf.p}")
    horizon = max(len(a.rows), len(b.rows))
    for n in range(horizon):
        da, db = a.perp_dim(n), b.perp_dim(n)
        if da is None or db is None:
            break
        if da != db:
            return Verdict("distinguished", witness_n=n, dims=(da, db))
    return Verdict("inconclusive")


def _first_power(at: AlgebraTable, first: int, x: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """x**first for a chunk x from its squares, first being 2 or an odd prime
    p: x**p = (x**2)**((p - 1) / 2) * x by power associativity."""
    if first == 2:
        return squares
    return multiply(at, power(at, squares, (first - 1) // 2), x)


def brute_force_kuelshammer(at: AlgebraTable, n: int, budget: int = 2**20) -> Subspace:
    """T_n(A) by enumerating every element; independent check of kuelshammer_space.

    The q**d elements go in chunks x = h + l: a fixed h on the coordinates
    b, ..., d - 1 plus every l = sum_j l_j b_j on the coordinates j < b, b
    the largest with b <= d and q**b <= BRUTE_FORCE_CHUNK.  Distributivity
    and bilinearity of the product give, in any algebra,

        x**2 = h**2 + l**2 + (h l + l h) = h**2 + l**2 + sum_j l_j (h b_j + b_j h),

    and h b_j + b_j h = sum_k h_k (b_k b_j + b_j b_k).  So with the l**2,
    the h**2 and the rows b_k b_j + b_j b_k taken once per call, a chunk's
    squares are [l | 1 | l**2] @ [rows h b_j + b_j h; h**2; I], its rows h
    b_j + b_j h being h @ (those rows).  _first_power turns them into x**first,
    first = min(p**n, p); at n = 0 no power is taken.  Each x**first is
    encoded as its base-q integer code, and a memo of q**d int8 entries
    (q**d bytes, at most budget) records per code whether it is unknown, in
    K(A) or not.  Only the first occurrence of each unknown code is raised
    on to the power p**n // first through structure.power and reduced mod
    K(A).  This is exact: x**(p**n) = (x**first)**(p**n // first) by power
    associativity, and equal elements have equal powers, so whether x lies
    in T_n depends on x only through x**first.  The split of x**2 is an
    identity in A itself, not modulo K(A): nothing here uses the additivity
    of x -> x**p modulo K(A), so the check stays independent of the
    semilinear chain it checks.  At n = 0 no code repeats, so every element
    is reduced directly; the memo is allocated at every n all the same, so
    an enumeration whose memo does not fit raises BudgetExceeded up front.
    The members are counted as well as spanned: a set is the subspace it
    spans iff it has q**dim elements, so the result is the member set itself.

    n > d is computed as n = d: T_n = T_min(n, d).  The chain ascends
    (K(A)**p lies in K(A)), and after its first repeat T_m = T_(m+1) it is
    constant (x in T_(m+2) iff x**p in T_(m+1) = T_m iff x in T_(m+1)), so
    its strict steps, each raising the dimension, all come before T_d.
    """
    if n < 0:
        raise BadParameters("n must be nonnegative")
    gf, d = at.gf, at.dim
    total = gf.q ** d
    if total > budget:
        raise BudgetExceeded(
            f"enumerating {gf.q}**{d} = {total} elements exceeds the budget {budget}")
    memo_bytes = f"a memo of {gf.q}**{d} = {total} bytes"
    if total >= 2**63:  # the codes and weights are int64
        raise BudgetExceeded(f"{memo_bytes} overflows the int64 element codes")
    try:
        memo = np.zeros(total, dtype=np.int8)  # 0 unknown, 1 in K(A), 2 not in K(A)
    except (MemoryError, ValueError):
        raise BudgetExceeded(f"{memo_bytes} cannot be allocated") from None
    k = commutator_space(at)
    m = gf.p ** min(n, d)
    first = min(m, gf.p)
    span = row_space(gf, np.zeros((0, d), dtype=np.int64), d)
    members = 0
    q, b = gf.q, 0
    weights = q ** np.arange(d, dtype=np.int64)
    while b < d and q ** (b + 1) <= BRUTE_FORCE_CHUNK:
        b += 1
    low, high = (np.zeros((q ** w, d), dtype=np.int64) for w in (b, d - b))
    low[:, :b] = (np.arange(q ** b)[:, None] // weights[:b]) % q  # coordinate 0 fastest
    high[:, b:] = (np.arange(q ** (d - b))[:, None] // weights[:d - b]) % q
    if m > 1:
        eye = np.eye(d, dtype=np.int64)
        rows_k, rows_j = np.repeat(eye, b, axis=0), np.tile(eye[:b], (d, 1))  # row k*b + j
        pairs = gf.add(multiply(at, rows_k, rows_j), multiply(at, rows_j, rows_k))
        pairs = pairs.reshape(d, b * d)  # [k, j*d + i]: b_i coefficient of b_k b_j + b_j b_k
        lows = np.hstack([low[:, :b], np.ones((q ** b, 1), dtype=np.int64), multiply(at, low, low)])
        high_squares = multiply(at, high, high)
    for t, h in enumerate(high):
        vectors = low + h  # disjoint supports: the sum needs no field addition
        if m == 1:  # x**1 = x: no code repeats, so the memo would only add work
            mask = ~reduce_mod(k, vectors).any(axis=1)
        else:
            cross = gf.matmul(h, pairs).reshape(b, d)  # row j: h b_j + b_j h
            squares = gf.matmul(lows, np.vstack([cross, high_squares[t:t + 1], eye]))
            firsts = _first_power(at, first, vectors, squares)
            codes = firsts @ weights
            unknown = np.flatnonzero(memo[codes] == 0)
            if len(unknown):
                fresh, rep = np.unique(codes[unknown], return_index=True)
                outside = reduce_mod(k, power(at, firsts[unknown[rep]], m // first)).any(axis=1)
                memo[fresh] = np.where(outside, 2, 1)
            mask = memo[codes] == 1
        members += int(mask.sum())
        new = reduce_mod(span, vectors[mask])  # one product per chunk; row_space only if T_n grows
        if new.any():
            span = row_space(gf, np.vstack([span.basis, new]), d)
    if members != gf.q ** span.dim:
        raise InvariantViolation(f"T_{n} has {members} members but spans "
                                 f"{gf.q}**{span.dim} vectors; it is not a subspace")
    return span
