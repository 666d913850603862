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
from .linalg import Subspace, contains_subspace, kernel, reduce_mod, row_space, zero_subspace
from .rewriting import AlgebraTable
from .structure import (closed_algebra, closed_center, closed_part, closed_socle_center,
                        closed_words, commutator_space, lift, multiply, power, socle)

__all__ = ["ReynoldsRow", "ReynoldsReport", "Verdict", "kuelshammer_space", "reynolds_ideal",
           "reynolds_sequence", "compare", "brute_force_kuelshammer"]

# bound on q**b, the elements per chunk of brute_force_kuelshammer over odd p:
# one high part plus every vector of the b low coordinates, in (q**b, d) arrays
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
    """x**first for a chunk x from its squares, first an odd prime p:
    x**p = (x**2)**((p - 1) / 2) * x by power associativity."""
    return multiply(at, power(at, squares, (first - 1) // 2), x)


def _chunk_members(at: AlgebraTable, k: Subspace, n: int) -> tuple[int, Subspace]:
    """The count and span of the x with x**(p**n) in k = K(A), by chunks of vectors."""
    gf, d = at.gf, at.dim
    try:
        memo = np.zeros(gf.q ** d, dtype=np.int8)  # 0 unknown, 1 in K(A), 2 not in K(A)
    except (MemoryError, ValueError):
        raise BudgetExceeded(f"a memo of {gf.q}**{d} bytes cannot be allocated") from None
    m = gf.p ** n
    first = min(m, gf.p) if gf.p > 2 else 1  # GF(2**e), by direct calls: power alone
    span, members = zero_subspace(gf, d), 0
    q, b = gf.q, 0
    weights = q ** np.arange(d, dtype=np.int64)
    while b < d and q ** (b + 1) <= BRUTE_FORCE_CHUNK:
        b += 1
    low, high = (np.zeros((q ** w, d), dtype=np.int64) for w in (b, d - b))
    low[:, :b] = (np.arange(q ** b)[:, None] // weights[:b]) % q  # coordinate 0 fastest
    high[:, b:] = (np.arange(q ** (d - b))[:, None] // weights[:d - b]) % q
    if first > 1:
        eye = np.eye(d, dtype=np.int64)
        rows_k, rows_j = np.repeat(eye, b, axis=0), np.tile(eye[:b], (d, 1))  # row k*b + j
        pairs = gf.add(multiply(at, rows_k, rows_j), multiply(at, rows_j, rows_k))
        pairs = pairs.reshape(d, b * d)  # [k, j*d + i]: b_i coefficient of b_k b_j + b_j b_k
        lows = np.hstack([low[:, :b], np.ones((q ** b, 1), dtype=np.int64), multiply(at, low, low)])
        high_squares = multiply(at, high, high)
    for t, h in enumerate(high):
        vectors = low + h  # disjoint supports: the sum needs no field addition
        if first == 1:  # a memo on x itself would see no code twice
            mask = ~reduce_mod(k, power(at, vectors, m)).any(axis=1)
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
    return members, span


def _xor_span(out: np.ndarray, size: int, codes) -> np.ndarray:
    """Extend out[:size] by XOR doubling, out[x * size + r] = out[r] XOR the
    codes[i] of the set bits i of x, and return the filled prefix."""
    for c in codes:
        np.bitwise_xor(out[:size], c, out=out[size:2 * size])
        size *= 2
    return out[:size]


def _code_maps(at: AlgebraTable, k: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(sq, inside) over GF(2**e): sq[x] = code(x * x) and inside[x] iff x
    lies in k = K(A), for every code x (see brute_force_kuelshammer)."""
    gf, d = at.gf, at.dim
    total, weights, bits = gf.q ** d, gf.q ** np.arange(d), np.arange(gf.e * d)[:, None]
    sq = np.empty(total, dtype=np.int32 if total <= 2**31 else np.int64)  # first: the largest
    units = np.where(bits // gf.e == np.arange(d), 1 << bits % gf.e, 0)  # u_j has the code 2**j
    prods = multiply(at, np.repeat(units, len(bits), axis=0), np.tile(units, (len(bits), 1)))
    prods = (prods @ weights).reshape(len(bits), -1)  # [i, j]: the code of u_i u_j
    sq[0] = 0
    for i in range(len(bits)):
        block = sq[1 << i:2 << i]  # the codes x + 2**i, x < 2**i
        block[0] = prods[i, i]
        _xor_span(block, 1, prods[:i, i] ^ prods[i, :i])
        block ^= sq[:1 << i]
    residues = reduce_mod(k, units) @ weights
    h = len(residues) // 2
    lo, hi = (_xor_span(np.zeros(1 << len(r), dtype=np.int64), 1, r)
              for r in (residues[:h], residues[h:]))
    return sq, (hi[:, None] == lo).ravel()


def _code_members(at: AlgebraTable, k: Subspace, n: int) -> tuple[int, Subspace]:
    """The count and span of the x with x**(2**n) in k = K(A), on the codes."""
    gf, d = at.gf, at.dim
    try:  # ValueError: an int64 table past numpy's largest array
        sq, inside = _code_maps(at, k)
        for _ in range(n):
            inside = inside[sq]
    except (MemoryError, ValueError):
        raise BudgetExceeded(f"a square table of {gf.q}**{d} codes cannot be allocated") from None
    members, span, size = int(np.count_nonzero(inside)), zero_subspace(gf, d), 1
    inside[0] = False  # from here sq[:size] holds the codes of span, cleared from inside
    while inside[x := int(np.argmax(inside))]:
        v = (x >> (gf.e * np.arange(d))) & (gf.q - 1)
        span = row_space(gf, np.vstack([span.basis, v]), d)
        grown = _xor_span(sq, size, gf.mul(1 << np.arange(gf.e)[:, None], v) @ gf.q ** np.arange(d))
        inside[grown[size:]] = False
        size = len(grown)
    return members, span


def brute_force_kuelshammer(at: AlgebraTable, n: int, budget: int = 2**20) -> Subspace:
    """T_n(A) by enumerating every element; independent check of kuelshammer_space.

    Over GF(2**e) the base-q code of x is its GF(2)-coordinate bitmask, bit
    j for u_j = t**(j mod e) b_(j div e), and addition is XOR of codes.  The
    table sq[x] = code(x**2) is doubled from (x + u_j)**2 = x**2 + u_j**2 +
    (x u_j + u_j x), x u_j + u_j x being the XOR of the codes of u_i u_j +
    u_j u_i over the set bits i of x; one multiply gives the products u_i u_j.
    inside_0[x] (x in K(A)) comes from the linear map x -> x mod K(A) on the
    low and high halves of the bits, and inside_i = inside_(i-1)[sq], as
    x**(2**i) = (x**2)**(2**(i-1)) by power associativity: about 4 bytes per
    element (int32 codes up to 2**31) plus two boolean maps.  The span grows
    by row_space on one member outside it per round, at most d + 1 rounds; its
    codes, XOR-doubled into sq's buffer, are cleared from the map.

    Odd p still runs in chunks x = h + l, h fixed on the coordinates b, ...,
    d - 1 and l on those below b, q**b <= BRUTE_FORCE_CHUNK: x**2 = h**2 + l**2
    + sum_j l_j (h b_j + b_j h) with h b_j + b_j h = sum_k h_k (b_k b_j +
    b_j b_k), so a chunk's squares are one product [l | 1 | l**2] @ [rows
    h b_j + b_j h; h**2; I].  _first_power makes them x**p, and a memo of q**d
    bytes per code of x**p raises each distinct x**p on to x**(p**n) and
    reduces it mod K(A) once.  At n = 0, and over GF(2**e) when called
    directly, each element is raised by structure.power.

    These are identities in A: nothing uses the additivity of x -> x**p mod
    K(A) that the chain rests on.  The members are counted as well as
    spanned: a set is the subspace it spans iff it has q**dim elements.
    T_n = T_min(n, d): the chain ascends (K(A)**p lies in K(A)) and is
    constant after its first repeat, so every strict step comes before T_d.
    A q**d-entry array that cannot be allocated raises BudgetExceeded.
    """
    if n < 0:
        raise BadParameters("n must be nonnegative")
    gf, d = at.gf, at.dim
    total = gf.q ** d
    if total > budget:
        raise BudgetExceeded(
            f"enumerating {gf.q}**{d} = {total} elements exceeds the budget {budget}")
    if total >= 2**63:  # the codes and weights are int64
        raise BudgetExceeded(f"{gf.q}**{d} = {total} elements overflow the int64 codes")
    enumerate_members = _code_members if gf.p == 2 else _chunk_members
    members, span = enumerate_members(at, commutator_space(at), min(n, d))
    if members != gf.q ** span.dim:
        raise InvariantViolation(f"T_{n} has {members} members but spans "
                                 f"{gf.q}**{span.dim} vectors; it is not a subspace")
    return span
