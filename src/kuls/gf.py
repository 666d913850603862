"""Arithmetic in GF(p**e) on integer-encoded elements.

An element sum(c_i * x**i) of GF(p**e) = GF(p)[x]/(modulus) is encoded as
the integer sum(c_i * p**i) with digits 0 <= c_i < p.  All operations
accept plain ints or numpy int64 arrays and are vectorized: prime fields
use modular ufuncs, extension fields use discrete log/exp tables (field
size is capped at 2**16, so tables stay small).

A matrix product over every field is one sparse.contract of the left
operand's columns with the nonzero entries of the right one; contract's
docstring gives the exactness argument.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadField, DimensionMismatch
from .sparse import contract

__all__ = ["GF", "is_prime", "default_modulus"]

MAX_FIELD_SIZE = 2**16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over GF(p), dense coefficient tuples, index = degree --

def _ptrim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _pmul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(tuple(out))


def _pmod(f, g, p):
    # g must be monic
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and any(f):
        c = f[-1]
        if c == 0:
            f.pop()
            continue
        shift = len(f) - 1 - dg
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        f = list(_ptrim(tuple(f)))
    return _ptrim(tuple(f))


def _is_irreducible(f, p):
    """Whether f, of degree e >= 1, is monic and irreducible over GF(p), by
    trial division.  A reducible f is g*h with 1 <= deg g <= deg h, so deg
    g <= e // 2, and g scaled to be monic still divides f; conversely a
    monic divisor of degree 1 .. e // 2 < e is a proper factor.  So f is
    irreducible iff _pmod(f, g, p) is nonzero for every monic g of degree k
    = 1 .. e // 2, the encodings p**k .. 2*p**k - 1."""
    return f[-1] == 1 and all(_pmod(f, _decode(enc, p, k + 1), p)
                              for k in range(1, (len(f) - 1) // 2 + 1)
                              for enc in range(p**k, 2 * p**k))


@lru_cache(maxsize=None)
def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over GF(p), by encoded-integer order."""
    for enc in range(p**e, 2 * p**e):
        f = _decode(enc, p, e + 1)
        if _is_irreducible(f, p):
            return f
    raise BadField(f"no irreducible polynomial of degree {e} over GF({p})")


def _encode(coeffs, p: int) -> int:
    return sum((c % p) * p**i for i, c in enumerate(coeffs))


def _decode(n: int, p: int, e: int) -> tuple[int, ...]:
    return tuple((n // p**i) % p for i in range(e))


class GF:
    """The field GF(p**e) with vectorized arithmetic on encoded elements."""

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        # bounded first: trial division of a huge p, or p**e for a huge e, would hang;
        # p >= 2 gives p**bits > MAX_FIELD_SIZE, so capping e at bits keeps the verdict
        bits = MAX_FIELD_SIZE.bit_length()
        if p > MAX_FIELD_SIZE or (p > 1 and p ** min(e, bits) > MAX_FIELD_SIZE):
            raise BadField(f"field size {p}**{e} exceeds {MAX_FIELD_SIZE}")
        if not is_prime(p):
            raise BadField(f"{p} is not prime")
        if e < 1:
            raise BadField(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            if modulus is not None:
                raise BadField("modulus is only meaningful for e >= 2")
            self.modulus = None
        else:
            if modulus is None:
                modulus = default_modulus(p, e)
            else:
                modulus = _ptrim(tuple(c % p for c in modulus))
                if len(modulus) - 1 != e:
                    raise BadField(f"modulus must have degree {e}")
                if not _is_irreducible(modulus, p):
                    raise BadField("modulus is reducible over GF(%d)" % p)
            self.modulus = modulus
            self._build_tables()

    # -- identity & display --

    def __eq__(self, other):
        return (isinstance(other, GF) and (self.p, self.e, self.modulus)
                == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    # -- table construction for extension fields --

    def _raw_mul(self, a: int, b: int) -> int:
        fa = _decode(a, self.p, self.e)
        fb = _decode(b, self.p, self.e)
        return _encode(_pmod(_pmul(fa, fb, self.p), self.modulus, self.p), self.p)

    def _build_tables(self):
        q, p = self.q, self.p
        # factor q-1 for generator search
        primes = []
        m = q - 1
        d = 2
        while d * d <= m:
            if m % d == 0:
                primes.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            primes.append(m)

        def order_ok(g):
            for r in primes:
                x, n = 1, (q - 1) // r
                base = g
                while n:
                    if n & 1:
                        x = self._raw_mul(x, base)
                    base = self._raw_mul(base, base)
                    n >>= 1
                if x == 1:
                    return False
            return True

        gen = next(g for g in range(2, q) if order_ok(g))
        weights = p ** np.arange(self.e, dtype=np.int64)
        # doubling: exp[k:2k] = exp[:k] * g**k, where multiplying by the fixed
        # g**k maps digit vectors through the e x e matrix of rows g**k * t**j
        exp = np.ones(1, dtype=np.int64)
        while exp.size < q - 1:
            gk = self._raw_mul(int(exp[-1]), gen)
            times_gk = np.array([_decode(self._raw_mul(gk, int(w)), p, self.e) for w in weights])
            exp = np.concatenate([exp, (((exp[:, None] // weights) % p) @ times_gk % p) @ weights])
        exp = exp[:q - 1]
        # log[exp[i]] = i; log[0] = 2*(q-1) lies past every sum of two nonzero
        # logs, so in _prod = (exp, exp, zeros) a sum with a zero log reads 0
        log = np.concatenate([[2 * (q - 1)], np.argsort(exp)])
        self._exp, self._log = exp, log
        self._prod = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype=np.int64)])
        frob = np.take(exp, (log * p) % (q - 1))  # (g**i)**p = g**(i*p)
        frob[0] = 0
        self._frob_inv = np.argsort(frob).astype(np.int64)
        # row i of _digits holds digit i (the coefficient of t**i) of every
        # element; q <= 2**16 and e >= 2 give p < 256, so digits fit uint8
        self._digits = ((np.arange(q) // weights[:, None]) % p).astype(np.uint8)
        self._neg = weights @ ((-self._digits.astype(np.int64)) % p)

    # -- scalar/array arithmetic --

    def add(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p
        if self.p == 2:
            return np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pk = 1
        for _ in range(self.e):
            out += (((a // pk) + (b // pk)) % self.p) * pk
            pk *= self.p
        return out

    def neg(self, a):
        if self.e == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        return np.take(self._neg, np.asarray(a, dtype=np.int64))

    def sub(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p
        return np.take(self._prod, np.take(self._log, a) + np.take(self._log, b))

    def frob_inv(self, a, n: int = 1):
        """Elementwise p**n-th root, the inverse of x -> x**(p**n); identity on prime fields."""
        a = np.asarray(a, dtype=np.int64)
        n %= self.e
        for _ in range(n):
            a = np.take(self._frob_inv, a)
        return a

    # scalar fast paths for tight loops (plain ints in, plain ints out)

    def sadd(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out, pk = 0, 1
        for _ in range(self.e):
            out += (((a // pk) + (b // pk)) % self.p) * pk
            pk *= self.p
        return out

    def sneg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return int(self._neg[a])

    def smul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return int(self._prod[self._log[a] + self._log[b]])

    def sinv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero field element")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[(-int(self._log[a])) % (self.q - 1)])

    def segment_sum(self, values, ids, size: int) -> np.ndarray:
        """Field sums by segment: out[k] is the sum of values[ids == k], for
        0 <= k < size; ids need not be sorted, and an empty segment sums to 0.

        Over GF(p) the values may be any integers, int64 or float64 (such as
        unreduced products), and each segment sum is reduced mod p once.
        Over GF(p**e) the sum is taken digit by digit (each digit plane
        summed, then reduced mod p), which is XOR for p = 2.  The float64
        bincount is exact while every segment sum stays below 2**53 in
        absolute value: for field elements, which are below 2**16, that
        holds for fewer than 2**37 values.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if self.e == 1:
            values = np.asarray(values).ravel()
            return np.bincount(ids, weights=values, minlength=size).astype(np.int64) % self.p
        values = np.asarray(values, dtype=np.int64).ravel()
        sums = np.array([np.bincount(ids, weights=plane, minlength=size)
                         for plane in np.take(self._digits, values, axis=1)])
        return (self.p ** np.arange(self.e, dtype=np.int64)) @ (sums.astype(np.int64) % self.p)

    def matmul(self, a, b):
        """Matrix product of 1-D or 2-D operands; a 1-D operand is one row.

        It is one sparse.contract over every field: column j of a joins the
        nonzero entries of row j of b, summed by output column.
        """
        a = np.atleast_2d(np.asarray(a, dtype=np.int64))
        b = np.atleast_2d(np.asarray(b, dtype=np.int64))
        if a.ndim > 2 or b.ndim > 2 or a.shape[1] != b.shape[0]:
            raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
        rows, cols = np.nonzero(b)
        return contract(self, [(a, rows)], b[rows, cols], cols, b.shape[1])

    def from_int(self, n: int) -> int:
        """Encode an integer literal (an element of the prime subfield)."""
        return n % self.p

    def from_coeffs(self, coeffs) -> int:
        """Encode a polynomial in the generator t, reducing mod the modulus."""
        coeffs = tuple(c % self.p for c in coeffs)
        if self.e == 1:
            if any(coeffs[1:]):
                raise BadField("generator t is undefined over a prime field")
            return coeffs[0] if coeffs else 0
        return _encode(_pmod(coeffs, self.modulus, self.p), self.p)

    def field_json(self) -> dict:
        return {"p": self.p, "e": self.e}
