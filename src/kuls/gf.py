"""Arithmetic in GF(p**e) on integer-encoded elements.

An element sum(c_i * x**i) of GF(p**e) = GF(p)[x]/(modulus) is encoded as
the integer sum(c_i * p**i) with digits 0 <= c_i < p.  All operations
accept plain ints or numpy int64 arrays and are vectorized: prime fields
use modular ufuncs, extension fields use discrete log/exp tables (field
size is capped at 2**16, so tables stay small).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadField

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


def _psub(f, g, p):
    n = max(len(f), len(g))
    f = f + (0,) * (n - len(f))
    g = g + (0,) * (n - len(g))
    return _ptrim(tuple((a - b) % p for a, b in zip(f, g)))


def _pgcd(f, g, p):
    while g:
        lead = g[-1]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            g = tuple((c * inv) % p for c in g)
        f, g = g, _pmod(f, g, p)
    return f


def _ppow_mod(base, n, mod, p):
    result = (1,)
    base = _pmod(base, mod, p)
    while n:
        if n & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        n >>= 1
    return result


def _is_irreducible(f, p):
    e = len(f) - 1
    if e < 1 or f[-1] != 1:
        return False
    x = (0, 1)
    # x**(p**e) == x mod f, and x**(p**(e/r)) - x coprime to f for prime r | e
    if _ppow_mod(x, p**e, f, p) != _pmod(x, f, p):
        return False
    r = 2
    m = e
    checked = set()
    while m > 1:
        while m % r:
            r += 1
        if r not in checked:
            checked.add(r)
            h = _ppow_mod(x, p ** (e // r), f, p)
            g = _pgcd(f, _psub(h, x, p), p)
            if len(g) - 1 != 0:
                return False
        m //= r
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over GF(p), by encoded-integer order."""
    for enc in range(p**e, 2 * p**e):
        f = tuple((enc // p**i) % p for i in range(e + 1))
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
        if not is_prime(p):
            raise BadField(f"{p} is not prime")
        if e < 1:
            raise BadField(f"extension degree must be >= 1, got {e}")
        if p**e > MAX_FIELD_SIZE:
            raise BadField(f"field size {p}**{e} exceeds {MAX_FIELD_SIZE}")
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
            modulus = _ptrim(tuple(c % p for c in modulus))
            if len(modulus) - 1 != e:
                raise BadField(f"modulus must have degree {e}")
            if not _is_irreducible(modulus, p):
                raise BadField("modulus is reducible over GF(%d)" % p)
            self.modulus = modulus
            self._build_tables()
        self._inv_table = None

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
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, gen)
        self._exp, self._log = exp, log
        frob = np.zeros(q, dtype=np.int64)
        for a in range(q):
            x = a
            for _ in range(p - 1):
                x = self._raw_mul(x, a)
            frob[a] = x
        self._frob = frob
        self._frob_inv = np.argsort(frob).astype(np.int64)

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
        if self.p == 2:
            return np.asarray(a, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        pk = 1
        for _ in range(self.e):
            out += ((self.p - (a // pk) % self.p) % self.p) * pk
            pk *= self.p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        idx = (np.take(self._log, a, mode="clip") + np.take(self._log, b, mode="clip")) % (self.q - 1)
        return np.where(nz, np.take(self._exp, idx), 0)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverting zero field element")
        if self.e == 1:
            if self._inv_table is None:
                t = np.zeros(self.p, dtype=np.int64)
                for x in range(1, self.p):
                    t[x] = pow(x, self.p - 2, self.p)
                self._inv_table = t
            return np.take(self._inv_table, a)
        return np.take(self._exp, (-np.take(self._log, a)) % (self.q - 1))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        """Elementwise a**n for a non-negative integer exponent."""
        a = np.asarray(a, dtype=np.int64)
        if n == 0:
            return np.ones(a.shape, dtype=np.int64)
        if self.e == 1:
            out, base = np.ones(a.shape, dtype=np.int64), a % self.p
            while n:
                out = self.mul(out, base) if n & 1 else out
                base, n = self.mul(base, base), n >> 1
            return out
        idx = (np.take(self._log, a, mode="clip") * (n % (self.q - 1))) % (self.q - 1)
        return np.where(a != 0, np.take(self._exp, idx), 0)

    def frob(self, a, n: int = 1):
        """Elementwise Frobenius x -> x**(p**n); identity on prime fields."""
        a = np.asarray(a, dtype=np.int64)
        n %= self.e
        for _ in range(n):
            a = np.take(self._frob, a)
        return a

    def frob_inv(self, a, n: int = 1):
        """Elementwise p**n-th root (inverse of frob; identity on prime fields)."""
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
        if self.p == 2:
            return a
        out, pk = 0, 1
        for _ in range(self.e):
            out += ((self.p - (a // pk) % self.p) % self.p) * pk
            pk *= self.p
        return out

    def smul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(int(self._log[a]) + int(self._log[b])) % (self.q - 1)])

    def sinv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero field element")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[(-int(self._log[a])) % (self.q - 1)])

    def matmul(self, a, b):
        """Matrix product; stacked operands broadcast over leading axes as with numpy @."""
        a = np.atleast_2d(np.asarray(a, dtype=np.int64))
        b = np.atleast_2d(np.asarray(b, dtype=np.int64))
        if self.e == 1:
            inner = a.shape[-1]
            # float64 dot stays exact while partial sums are below 2**53
            if inner * (self.p - 1) ** 2 < 2**53:
                return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % self.p
            return (a @ b) % self.p
        out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                       + (a.shape[-2], b.shape[-1]), dtype=np.int64)
        for k in range(a.shape[-1]):
            out = self.add(out, self.mul(a[..., k:k + 1], b[..., k:k + 1, :]))
        return out

    def elements(self):
        return range(self.q)

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
