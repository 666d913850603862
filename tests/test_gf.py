"""Field arithmetic: axioms, Frobenius, encodings, and rejection of bad fields."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

import kuls.sparse as sparse_module
from kuls import GF
from kuls.errors import BadField, DimensionMismatch
from kuls.gf import default_modulus, is_prime
from oracles import field_div, field_inv, field_pow, frob, naive_matmul

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, e):
    gf = GF(p, e)
    assert gf.q == p**e
    els = range(gf.q)
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
    assert np.array_equal(gf.mul(nz, field_inv(gf, nz)), np.ones(gf.q - 1, dtype=np.int64))
    assert np.array_equal(field_div(gf, nz, nz), np.ones(gf.q - 1, dtype=np.int64))


@pytest.mark.parametrize("p,e", [(2, 16), (3, 10)])
def test_products_with_zero_read_the_zero_block_of_the_table(p, e):
    """log[0] = 2*(q-1) sends every product with a zero factor, 0*0 at
    index 4*(q-1) included, into the zeros that end the product table."""
    gf = GF(p, e)
    els = np.arange(gf.q, dtype=np.int64)
    zeros = np.zeros(gf.q, dtype=np.int64)
    assert not gf.mul(els, zeros).any() and not gf.mul(zeros, els).any()
    assert not any(gf.smul(a, 0) or gf.smul(0, a) for a in range(gf.q))
    assert gf._prod.size == 4 * (gf.q - 1) + 1 and gf.smul(0, 0) == 0


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (65521, 1), (2, 2), (3, 2)])
def test_sub_is_add_of_neg(p, e):
    """sub takes one (a - b) % p pass over GF(p); every pair agrees with add(a, neg(b))."""
    gf = GF(p, e)
    if gf.q <= 256:
        els = np.arange(gf.q, dtype=np.int64)
        a, b = np.repeat(els, gf.q), np.tile(els, gf.q)
    else:
        rng = np.random.default_rng(9)
        a, b = rng.integers(0, gf.q, size=(2, 20000))
        a[:3], b[:3] = [0, gf.q - 1, 1], [gf.q - 1, 0, gf.q - 1]
    assert np.array_equal(gf.sub(a, b), gf.add(a, gf.neg(b)))
    assert np.array_equal(gf.sub(a[:, None], b[:3]), gf.add(a[:, None], gf.neg(b[:3])))
    assert int(gf.sub(int(a[1]), int(b[1]))) == gf.sadd(int(a[1]), gf.sneg(int(b[1])))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_pow_matches_repeated_multiplication(p, e):
    gf = GF(p, e)
    els = np.arange(gf.q, dtype=np.int64)
    acc = np.ones(gf.q, dtype=np.int64)
    for n in range(6):
        assert np.array_equal(field_pow(gf, els, n), acc)
        acc = gf.mul(acc, els)
    assert np.array_equal(field_pow(gf, els, 0), np.ones(gf.q, dtype=np.int64))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_frobenius_is_field_automorphism(p, e):
    gf = GF(p, e)
    els = np.arange(gf.q, dtype=np.int64)
    assert np.array_equal(frob(gf, els), field_pow(gf, els, p))
    a = np.repeat(els, gf.q)
    b = np.tile(els, gf.q)
    assert np.array_equal(frob(gf, gf.add(a, b)), gf.add(frob(gf, a), frob(gf, b)))
    assert np.array_equal(frob(gf, gf.mul(a, b)), gf.mul(frob(gf, a), frob(gf, b)))
    assert np.array_equal(gf.frob_inv(frob(gf, els)), els)
    assert np.array_equal(frob(gf, els, e), els)  # order of the automorphism
    assert np.array_equal(frob(gf, frob(gf, els), 1), frob(gf, els, 2))


@pytest.mark.parametrize("p,e", [(2, 2), (3, 3), (2, 9), (7, 3), (251, 2), (2, 16), (3, 10)])
def test_log_exp_tables_match_polynomial_multiplication(p, e):
    """The exp table, filled by doubling, against tuple-polynomial products of random pairs."""
    gf = GF(p, e)
    assert sorted(gf._exp.tolist()) == list(range(1, gf.q))  # a generator's powers
    assert np.array_equal(gf._exp[gf._log[1:]], np.arange(1, gf.q))
    a, b = np.random.default_rng(p * e).integers(0, gf.q, size=(2, 300))
    assert gf.mul(a, b).tolist() == [gf._raw_mul(int(x), int(y)) for x, y in zip(a, b)]


def test_frobenius_is_identity_on_prime_fields():
    gf = GF(5)
    els = np.arange(5, dtype=np.int64)
    assert np.array_equal(frob(gf, els), els)
    assert np.array_equal(gf.frob_inv(els, 3), els)


MATMUL_FIELDS = [(3, 1), (2, 2), (3, 2), (2, 3), (5, 2), (2, 8), (2, 16), (3, 2, (2, 1, 1))]


@pytest.mark.parametrize("field", MATMUL_FIELDS,
                         ids=lambda f: "-".join(str(x).replace(", ", "") for x in f))
def test_matmul_matches_naive_triple_loop(field):
    gf = GF(*field)
    rng = np.random.default_rng(7)
    a = rng.integers(0, gf.q, size=(4, 5)).astype(np.int64)
    b = rng.integers(0, gf.q, size=(5, 3)).astype(np.int64)
    assert np.array_equal(gf.matmul(a, b), naive_matmul(gf, a, b))
    assert np.array_equal(gf.matmul(a[0], b), naive_matmul(gf, a[0], b))  # 1-D as a row


@pytest.mark.parametrize("field", [(2, 1), (2, 2)], ids=["GF2", "GF4"])
def test_matmul_rejects_stacked_and_mismatched_operands(field):
    gf = GF(*field)
    a, b = np.ones((2, 3), dtype=np.int64), np.ones((3, 4), dtype=np.int64)
    for x, y in ((a[None], b), (a, b[None]), (a, b[:2])):
        with pytest.raises(DimensionMismatch):
            gf.matmul(x, y)


def test_matmul_contract_blocks_cover_every_row(monkeypatch):
    # GF(9): b has 5*7 = 35 nonzero entries, so a block holds 105 // 35 = 3
    # rows of a and the 7 rows run in blocks of 3, 3 and a partial 1
    gf = GF(3, 2)
    monkeypatch.setattr(sparse_module, "SPARSE_BLOCK", 105)
    rng = np.random.default_rng(5)
    a = rng.integers(0, gf.q, size=(7, 5)).astype(np.int64)
    b = rng.integers(1, gf.q, size=(5, 7)).astype(np.int64)
    assert np.array_equal(gf.matmul(a, b), naive_matmul(gf, a, b))


@pytest.mark.parametrize("p,shape", [(251, (20, 30, 20)), (65521, (20, 30, 20)),
                                     (65521, (1, 2**21 + 2**11, 2))],
                         ids=["GF251", "GF65521", "GF65521-past-2**53"])
def test_large_prime_matmul_stays_exact(p, shape):
    """Entries near p - 1 against Python-int sums of exact int64 blocks; in
    the last case a cell sums more than 2**53 / (p - 1)**2 products, so
    contract reduces each product mod p before the float64 sum."""
    gf, (m, k, n) = GF(p), shape
    rng = np.random.default_rng(11)
    a = rng.integers(p - 16, p, size=(m, k))
    b = rng.integers(p - 16, p, size=(k, n))
    want = sum((a[:, i:i + 2**16] @ b[i:i + 2**16]).astype(object)  # each block below 2**48
               for i in range(0, k, 2**16)) % p
    assert np.array_equal(gf.matmul(a, b), want.astype(np.int64))


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
    with pytest.raises(BadField):
        GF(3, 2, modulus=(2, 0, 2))  # 2*(x**2 + 1): irreducible, but not monic


def test_oversized_fields_are_rejected_before_primality_and_powers():
    """A huge p would stall trial division and a huge e the power p**e; both
    are bounded first, and GF(4), GF(1) still fail as not prime."""
    for p, e in ((1000000000000000003, 1), (3, 1000000000), (65537, 1), (4, 100)):
        with pytest.raises(BadField, match=f"field size {p}\\*\\*{e} exceeds 65536"):
            GF(p, e)
    for p in (4, 1):
        with pytest.raises(BadField, match=f"{p} is not prime"):
            GF(p)
    assert GF(65521).q == 65521


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
        field_inv(gf, np.array([1, 0]))


def test_default_modulus_and_primality():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # x**3 + x + 1
    assert [n for n in range(14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]


def _products_of_lower_degree(p: int, e: int) -> set[tuple[int, ...]]:
    """The monic polynomials of degree e over GF(p) that are a product of two
    monic ones of degree 1 .. e - 1, as coefficient tuples (index = degree)."""
    monic = {k: (np.arange(p**k, 2 * p**k)[:, None] // p ** np.arange(k + 1)) % p
             for k in range(1, e)}
    return {tuple((np.convolve(g, h) % p).tolist())
            for k in range(1, e // 2 + 1) for g in monic[k] for h in monic[e - k]}


@pytest.mark.parametrize("p,e", [(p, e) for p in range(2, 32) if is_prime(p)
                                 for e in range(2, 11) if p**e <= 2**10])
def test_a_modulus_is_accepted_iff_no_product_of_lower_degree_hits_it(p, e):
    reducible = _products_of_lower_degree(p, e)
    for enc in range(p**e, 2 * p**e):
        f = tuple((enc // p**i) % p for i in range(e + 1))
        if f in reducible:
            with pytest.raises(BadField, match="reducible"):
                GF(p, e, modulus=f)
        else:
            assert GF(p, e, modulus=f).modulus == f


DEFAULT_MODULI = {  # default_modulus(p, e) for every e >= 2 with p**e <= 2**16
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1), (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1), (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1), (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1), (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1), (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1), (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1), (5, 5): (1, 4, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1), (7, 5): (3, 1, 0, 0, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1), (11, 4): (2, 1, 0, 0, 1), (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1), (13, 4): (2, 0, 0, 0, 1), (17, 2): (3, 0, 1), (17, 3): (3, 1, 0, 1),
    (19, 2): (1, 0, 1), (19, 3): (2, 0, 0, 1), (23, 2): (1, 0, 1), (23, 3): (3, 1, 0, 1),
    (29, 2): (2, 0, 1), (29, 3): (4, 1, 0, 1), (31, 2): (1, 0, 1), (31, 3): (3, 0, 0, 1),
    (37, 2): (2, 0, 1), (37, 3): (2, 0, 0, 1), (41, 2): (3, 0, 1), (43, 2): (1, 0, 1),
    (47, 2): (1, 0, 1), (53, 2): (2, 0, 1), (59, 2): (1, 0, 1), (61, 2): (2, 0, 1),
    (67, 2): (1, 0, 1), (71, 2): (1, 0, 1), (73, 2): (5, 0, 1), (79, 2): (1, 0, 1),
    (83, 2): (1, 0, 1), (89, 2): (3, 0, 1), (97, 2): (5, 0, 1), (101, 2): (2, 0, 1),
    (103, 2): (1, 0, 1), (107, 2): (1, 0, 1), (109, 2): (2, 0, 1), (113, 2): (3, 0, 1),
    (127, 2): (1, 0, 1), (131, 2): (1, 0, 1), (137, 2): (3, 0, 1), (139, 2): (1, 0, 1),
    (149, 2): (2, 0, 1), (151, 2): (1, 0, 1), (157, 2): (2, 0, 1), (163, 2): (1, 0, 1),
    (167, 2): (1, 0, 1), (173, 2): (2, 0, 1), (179, 2): (1, 0, 1), (181, 2): (2, 0, 1),
    (191, 2): (1, 0, 1), (193, 2): (5, 0, 1), (197, 2): (2, 0, 1), (199, 2): (1, 0, 1),
    (211, 2): (1, 0, 1), (223, 2): (1, 0, 1), (227, 2): (1, 0, 1), (229, 2): (2, 0, 1),
    (233, 2): (3, 0, 1), (239, 2): (1, 0, 1), (241, 2): (7, 0, 1), (251, 2): (1, 0, 1),
}


def test_default_modulus_is_pinned_on_every_extension_field():
    """A field's modulus fixes the encoding of its elements: the table pins
    the smallest monic irreducible of every degree, and the digest is of the
    moduli in (p, e) order."""
    pairs = [(p, e) for p in range(2, 257) if is_prime(p)
             for e in range(2, 17) if p**e <= 2**16]
    assert list(DEFAULT_MODULI) == pairs and len(pairs) == 93
    moduli = list(DEFAULT_MODULI.values())
    assert hashlib.sha256(repr(moduli).encode()).hexdigest().startswith("61fdf6298ee43e87")
    assert [default_modulus(p, e) for p, e in pairs] == moduli
