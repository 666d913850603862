"""Field arithmetic: axioms, Frobenius, encodings, and rejection of bad fields."""
from __future__ import annotations

import numpy as np
import pytest

from kuls import GF
from kuls.errors import BadField
from kuls.gf import default_modulus, is_prime

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, e):
    gf = GF(p, e)
    els = list(gf.elements())
    assert els == list(range(p**e))
    for a in els:
        assert gf.sadd(a, 0) == a
        assert gf.smul(a, 1) == a
        assert gf.smul(a, 0) == 0
        assert gf.sadd(a, gf.sneg(a)) == 0
        if a:
            assert gf.smul(a, gf.sinv(a)) == 1
        for b in els:
            assert gf.sadd(a, b) == gf.sadd(b, a)
            assert gf.smul(a, b) == gf.smul(b, a)
            for c in els:
                assert gf.sadd(gf.sadd(a, b), c) == gf.sadd(a, gf.sadd(b, c))
                assert gf.smul(gf.smul(a, b), c) == gf.smul(a, gf.smul(b, c))
                assert gf.smul(a, gf.sadd(b, c)) == gf.sadd(gf.smul(a, b), gf.smul(a, c))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_array_ops_match_scalar_ops(p, e):
    gf = GF(p, e)
    els = np.arange(gf.q, dtype=np.int64)
    a = np.repeat(els, gf.q)
    b = np.tile(els, gf.q)
    assert np.array_equal(gf.add(a, b), [gf.sadd(int(x), int(y)) for x, y in zip(a, b)])
    assert np.array_equal(gf.mul(a, b), [gf.smul(int(x), int(y)) for x, y in zip(a, b)])
    assert np.array_equal(gf.neg(a), [gf.sneg(int(x)) for x in a])
    assert np.array_equal(gf.sub(a, b), gf.add(a, gf.neg(b)))
    nz = els[1:]
    assert np.array_equal(gf.mul(nz, gf.inv(nz)), np.ones(gf.q - 1, dtype=np.int64))
    assert np.array_equal(gf.div(nz, nz), np.ones(gf.q - 1, dtype=np.int64))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_pow_matches_repeated_multiplication(p, e):
    gf = GF(p, e)
    els = np.arange(gf.q, dtype=np.int64)
    acc = np.ones(gf.q, dtype=np.int64)
    for n in range(6):
        assert np.array_equal(gf.pow(els, n), acc)
        acc = gf.mul(acc, els)
    assert np.array_equal(gf.pow(els, 0), np.ones(gf.q, dtype=np.int64))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_frobenius_is_field_automorphism(p, e):
    gf = GF(p, e)
    els = np.arange(gf.q, dtype=np.int64)
    assert np.array_equal(gf.frob(els), gf.pow(els, p))
    a = np.repeat(els, gf.q)
    b = np.tile(els, gf.q)
    assert np.array_equal(gf.frob(gf.add(a, b)), gf.add(gf.frob(a), gf.frob(b)))
    assert np.array_equal(gf.frob(gf.mul(a, b)), gf.mul(gf.frob(a), gf.frob(b)))
    assert np.array_equal(gf.frob_inv(gf.frob(els)), els)
    assert np.array_equal(gf.frob(els, e), els)  # order of the automorphism
    assert np.array_equal(gf.frob(gf.frob(els), 1), gf.frob(els, 2))


def test_frobenius_is_identity_on_prime_fields():
    gf = GF(5)
    els = np.arange(5, dtype=np.int64)
    assert np.array_equal(gf.frob(els), els)
    assert np.array_equal(gf.frob_inv(els, 3), els)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (3, 2)])
def test_matmul_matches_naive_triple_loop(p, e):
    gf = GF(p, e)
    rng = np.random.default_rng(7)
    a = rng.integers(0, gf.q, size=(4, 5)).astype(np.int64)
    b = rng.integers(0, gf.q, size=(5, 3)).astype(np.int64)
    out = gf.matmul(a, b)
    for i in range(4):
        for j in range(3):
            acc = 0
            for k in range(5):
                acc = gf.sadd(acc, gf.smul(int(a[i, k]), int(b[k, j])))
            assert out[i, j] == acc
    # stacked operands broadcast over the leading axis, as with numpy @
    stack_a = rng.integers(0, gf.q, size=(3, 4, 5)).astype(np.int64)
    stack_b = rng.integers(0, gf.q, size=(3, 5, 3)).astype(np.int64)
    want = [gf.matmul(x, y) for x, y in zip(stack_a, stack_b)]
    assert np.array_equal(gf.matmul(stack_a, stack_b), want)
    assert np.array_equal(gf.matmul(stack_a, b), [gf.matmul(x, b) for x in stack_a])


def test_large_prime_matmul_stays_exact():
    gf = GF(251)
    rng = np.random.default_rng(11)
    a = rng.integers(0, 251, size=(20, 30)).astype(np.int64)
    b = rng.integers(0, 251, size=(30, 20)).astype(np.int64)
    assert np.array_equal(gf.matmul(a, b), (a @ b) % 251)


def test_bad_fields_are_rejected():
    with pytest.raises(BadField):
        GF(4)
    with pytest.raises(BadField):
        GF(1)
    with pytest.raises(BadField):
        GF(2, 0)
    with pytest.raises(BadField):
        GF(2, 17)  # 2**17 exceeds the table cap
    with pytest.raises(BadField):
        GF(2, 1, modulus=(1, 1))  # modulus on a prime field
    with pytest.raises(BadField):
        GF(2, 2, modulus=(1, 0, 1))  # x**2 + 1 = (x + 1)**2 over GF(2)
    with pytest.raises(BadField):
        GF(2, 2, modulus=(1, 1, 0, 1))  # degree 3 != e


def test_equality_depends_on_modulus():
    assert GF(2) == GF(2, 1)
    assert GF(2) != GF(3)
    default = GF(3, 2)
    other = GF(3, 2, modulus=(2, 1, 1))  # x**2 + x + 2, also irreducible
    assert default == GF(3, 2, modulus=(1, 0, 1))
    assert default != other
    assert hash(default) != hash(other)
    assert repr(default) == "GF(3^2)"
    assert repr(GF(7)) == "GF(7)"


def test_encodings_and_json():
    gf = GF(2, 2)  # modulus x**2 + x + 1, elements 0, 1, t, t + 1
    assert gf.modulus == (1, 1, 1)
    t = gf.from_coeffs((0, 1))
    assert t == 2
    assert gf.smul(t, t) == gf.from_coeffs((1, 1))  # t**2 = t + 1
    assert gf.from_coeffs((0, 0, 1)) == gf.from_coeffs((1, 1))
    assert gf.from_int(5) == 1
    assert gf.field_json() == {"p": 2, "e": 2}
    assert GF(3).field_json() == {"p": 3, "e": 1}
    with pytest.raises(BadField):
        GF(3).from_coeffs((0, 1))
    with pytest.raises(ZeroDivisionError):
        gf.sinv(0)
    with pytest.raises(ZeroDivisionError):
        gf.inv(np.array([1, 0]))


def test_default_modulus_and_primality():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # x**3 + x + 1
    assert [n for n in range(14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]
