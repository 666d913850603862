"""The sparse structure table and its product kernel against dense oracles."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_table
from kuls import GF, build_table, complete, parse_presentation, sparse
from kuls.families import FAMILY_NAMES, FamilySpec, family
from kuls.form import SymmetrizingForm
from kuls.sparse import Sparse, contract, from_entries, product
from kuls.structure import multiply
from oracles import (dense_gram, dense_reference_table, dense_table, left_mult_matrix,
                     naive_matmul, right_mult_matrix)
from test_reynolds import TWISTED

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]
SMALL = {"A": {"p": 1, "q": 2}, "D": {"m": 3}, "Dprime": {"m": 3}, "Gamma": {"n": 2},
         "Lambda": {"m": 3}, "N": {"n": 2, "m": 2}, "Omega": {"n": 3},
         "Tpq": {"p": 2, "q": 2}, "Tpqr": {"p": 2, "q": 2, "r": 2}, "Tstar": {"r": 2}}
MULTI_TERM = ("algebra mt over GF({field}) {{ vertices v; arrows {{ a: v -> v; b: v -> v; }} "
              "relations {{ a*a*a; b*b*b; b*a = a*b + a*a*b; }} }}")


def _field_text(p, e):
    return str(p) if e == 1 else f"{p}^{e}"


@pytest.mark.parametrize("field", FIELDS + [(2, 3)], ids=lambda f: _field_text(*f))
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_table_matches_dense_reference(name, field):
    at = make_table(name, gf=field, **SMALL[name])
    assert np.array_equal(dense_table(at), dense_reference_table(at.rs))


@pytest.mark.parametrize("source", TWISTED + [MULTI_TERM.format(field=f) for f in ("2", "3^2", "2^3")],
                         ids=["twisted-s", "twisted-m", "multi-2", "multi-3^2", "multi-2^3"])
def test_presented_table_matches_dense_reference(source):
    """Relations with field coefficients off GF(2) and sums of basis words."""
    at = build_table(complete(parse_presentation(source)))
    assert np.array_equal(dense_table(at), dense_reference_table(at.rs))


def _reduces_products(gf, entries: int, factors: int) -> bool:
    """contract's rule: over GF(p), joined products are reduced mod p before
    summing iff entries * (p - 1)**(factors + 1) >= 2**53."""
    return gf.e == 1 and entries * (gf.p - 1) ** (factors + 1) >= 2**53


@pytest.mark.parametrize("field", FIELDS + [(65521, 1)], ids=lambda f: _field_text(*f))
def test_multi_term_products_match_dense_oracle(field):
    at = build_table(complete(parse_presentation(MULTI_TERM.format(field=_field_text(*field)))))
    gf, d = at.gf, at.dim
    table = dense_reference_table(at.rs)
    assert d == 9
    # multiply joins two factors: over GF(65521) its products are reduced before summing
    assert _reduces_products(gf, at.table.data.size, 2) == (gf.p == 65521)
    assert np.count_nonzero((table != 0).sum(axis=2) >= 2) >= 16  # sums of two basis words
    assert np.array_equal(dense_table(at), table)

    rng = np.random.default_rng(11)
    x = rng.integers(0, gf.q, size=(4, d))
    y = rng.integers(0, gf.q, size=(4, d))
    left = naive_matmul(gf, x, table.reshape(d, d * d)).reshape(4, d, d)
    right = naive_matmul(gf, x, table.transpose(1, 0, 2).reshape(d, d * d)).reshape(4, d, d)
    assert np.array_equal(left_mult_matrix(at, x), left)
    assert np.array_equal(right_mult_matrix(at, x), right)
    want = [naive_matmul(gf, b, m)[0] for b, m in zip(y, left)]
    assert np.array_equal(multiply(at, x, y), want)

    psi = rng.integers(0, gf.q, size=d)
    gram = naive_matmul(gf, table.reshape(d * d, d), psi.reshape(d, 1)).reshape(d, d)
    assert np.array_equal(dense_gram(SymmetrizingForm(at, psi)), gram)


@pytest.mark.parametrize("field", [(2, 1), (5, 1), (2, 3), (3, 2)], ids=lambda f: _field_text(*f))
def test_segment_sum_matches_scalar_sums(field):
    gf = GF(*field)
    rng = np.random.default_rng(3)
    values = rng.integers(0, gf.q, size=200)
    ids = rng.integers(0, 12, size=200)
    want = [0] * 14  # segments 12 and 13 are empty
    for v, k in zip(values, ids):
        want[k] = gf.sadd(want[k], int(v))
    assert gf.segment_sum(values, ids, 14).tolist() == want


@pytest.mark.parametrize("entries", [64, 300])
def test_contract_sums_are_exact_past_the_float64_bound(entries):
    """Over GF(65521) one output cell of entries two-factor products passes
    2**53 unreduced; contract must still agree with scalar field sums."""
    gf = GF(65521)
    assert _reduces_products(gf, entries, 2)
    rng = np.random.default_rng(entries)
    cases = [np.full((3, entries), gf.p - 1),
             rng.integers(gf.p - 64, gf.p, size=(3, entries))]  # odd products too
    cols, cell = np.arange(entries), np.zeros(entries, dtype=np.int64)
    for data, x, y in cases:
        got = contract(gf, [(x[None], cols), (y[None], cols)], data, cell, 1)
        want = 0
        for c, a, b in zip(data.tolist(), x.tolist(), y.tolist()):
            want = gf.sadd(want, gf.smul(gf.smul(c, a), b))
        assert got.tolist() == [[want]]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: _field_text(*f))
def test_contract_blocks_cover_every_row(field, monkeypatch):
    """With SPARSE_BLOCK cut so that rows go in several blocks, the last one
    partial, contract gives the same rows as one unblocked pass, for one to
    three factors and for an empty stack."""
    gf = GF(*field)
    rng = np.random.default_rng(17)
    entries, n, size = 12, 7, 9
    data = rng.integers(1, gf.q, size=entries)
    ids = rng.integers(0, size, size=entries)
    for rows in (37, 0):
        for count in (1, 2, 3):
            factors = [(rng.integers(0, gf.q, size=(rows, n)), rng.integers(0, n, size=entries))
                       for _ in range(count)]
            blocked = []  # all kept alive, so no result reuses another's memory
            for block in (5 * entries, 2 * entries + 5, 1):  # 5, 2 and 1 rows a block
                monkeypatch.setattr(sparse, "SPARSE_BLOCK", block)
                blocked.append(contract(gf, factors, data, ids, size))
            monkeypatch.setattr(sparse, "SPARSE_BLOCK", rows * entries + 1)
            whole = contract(gf, factors, data, ids, size)
            assert whole.shape == (rows, size)
            for got in blocked:
                assert np.array_equal(got, whole)


def test_multiply_temporaries_stay_small():
    """A (1024, d) multiply keeps each temporary within SPARSE_BLOCK values, so
    the heap reuses it instead of mapping fresh pages on every call."""
    at = make_table("Omega", n=3)
    rng = np.random.default_rng(2)
    x, y = (rng.integers(0, 2, size=(1024, at.dim)) for _ in range(2))
    multiply(at, x, y)
    tracemalloc.start()
    try:
        multiply(at, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_build_table_allocates_no_cubic_array():
    rs = complete(family(FamilySpec("Omega", {"n": 20}, GF(2))))
    tracemalloc.start()
    try:
        at = build_table(rs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at.dim == 460
    assert peak < 64 * 2**20  # a dense d*d*d int64 table alone is 778 MB


SPARSE_FIELDS = [GF(2), GF(3), GF(2, 2)]


@st.composite
def entries(draw, gf=None, shape=None):
    """A field, a (rows, cols) shape and entries (rows, cols, vals) over it.

    Cells repeat, values may be zero, a drawn prefix of the entries is
    added again negated, so some cells sum to zero, and the rows past a
    drawn count get no entry, so the last rows are often empty.
    """
    gf = gf or draw(st.sampled_from(SPARSE_FIELDS))
    rows, cols = shape or (draw(st.integers(0, 6)), draw(st.integers(1, 6)))
    used = draw(st.integers(0, rows))
    cell = st.tuples(st.integers(0, max(used - 1, 0)), st.integers(0, cols - 1),
                     st.integers(0, gf.q - 1))
    cells = draw(st.lists(cell, max_size=12)) if used else []
    cells += [(r, c, gf.sneg(v)) for r, c, v in cells[:draw(st.integers(0, len(cells)))]]
    return gf, (rows, cols), *np.array(cells, dtype=np.int64).reshape(-1, 3).T


def _summed(gf, shape, rows, cols, vals) -> np.ndarray:
    out = np.zeros(shape, dtype=np.int64)
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[r, c] = gf.sadd(int(out[r, c]), v)
    return out


def _canonical_dense(m: Sparse) -> np.ndarray:
    """m as a dense array, once its entries are checked to be sorted row-major,
    in range, one per cell and nonzero."""
    keys = m.rows * m.shape[1] + m.indices
    assert (np.diff(keys) > 0).all() and (m.data != 0).all()
    assert ((m.indices >= 0) & (m.indices < m.shape[1])).all()
    assert ((m.rows >= 0) & (m.rows < m.shape[0])).all()
    out = np.zeros(m.shape, dtype=np.int64)
    out[m.rows, m.indices] = m.data
    return out


@settings(derandomize=True, deadline=None, max_examples=200)
@given(entries(), st.data())
def test_sparse_entries_take_and_reshape_match_dense(drawn, data):
    gf, shape, *cells = drawn
    m, dense = from_entries(gf, shape, *cells), _summed(gf, shape, *cells)
    assert np.array_equal(_canonical_dense(m), dense)
    wanted = data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=8) if shape[0]
                       else st.just([]))  # unsorted, repeated, empty and trailing rows
    assert np.array_equal(_canonical_dense(m.take(np.array(wanted, dtype=np.int64))),
                          dense[wanted])
    size = dense.size
    width = data.draw(st.sampled_from([w for w in range(1, size + 1) if size % w == 0]
                                      or [shape[1]]))
    assert np.array_equal(_canonical_dense(m.reshape((size // width, width))),
                          dense.reshape(size // width, width))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(entries(), st.data())
def test_take_range_matches_take(drawn, data):
    """Random ranges, empty ranges and ranges that reach the last row, of
    matrices whose last rows are often empty."""
    gf, shape, *cells = drawn
    m = from_entries(gf, shape, *cells)
    lo = data.draw(st.integers(0, shape[0]))
    hi = data.draw(st.one_of(st.just(lo), st.just(shape[0]), st.integers(lo, shape[0])))
    got = m.take_range(lo, hi)
    assert got == m.take(np.arange(lo, hi))
    assert np.array_equal(_canonical_dense(got), _canonical_dense(m)[lo:hi])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(entries(), st.data())
def test_sparse_product_matches_dense(drawn, data):
    gf, shape, *cells = drawn
    other = data.draw(entries(gf, (shape[1], data.draw(st.integers(1, 6)))))[1:]
    got = product(gf, from_entries(gf, shape, *cells), from_entries(gf, *other))
    assert np.array_equal(_canonical_dense(got),
                          naive_matmul(gf, _summed(gf, shape, *cells), _summed(gf, *other)))


def test_build_table_allocates_nothing_of_d_squared_size():
    """At Omega(40) (d = 1720) building and auditing the table stays below
    one d x d int64 array, and the table holds nnz values per array."""
    rs = complete(family(FamilySpec("Omega", {"n": 40}, GF(2))), degree_bound=100)
    tracemalloc.start()
    try:
        at = build_table(rs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    d, nnz = at.dim, at.table.data.size
    assert (d, nnz) == (1720, 37021)
    assert peak < d * d * 8  # 22.6 MB
    assert peak < 6 * 2**20  # R and the folds of L and C; the full table is folded when read
    assert all(part.size == nnz for part in (at.table.rows, at.table.indices, at.table.data))
