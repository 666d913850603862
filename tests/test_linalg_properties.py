"""Property test: rref, row_space, kernel and intersect against scalar elimination."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kuls import GF  # noqa: E402
from kuls.gf import is_prime  # noqa: E402
from kuls.linalg import intersect, kernel, row_space, rref  # noqa: E402
from oracles import naive_matmul, naive_rref  # noqa: E402

PRIMES = [p for p in range(2, 257) if is_prime(p)]


@lru_cache(maxsize=None)
def _field(p: int, e: int) -> GF:
    return GF(p, e)


@st.composite
def matrix_pairs(draw):
    """A field of order <= 256, an ambient dimension n and two matrices of 0 to 3n+1 rows.

    3n+1 rows span several n-row chunks of row_space, the last one partial.
    Entries are nonzero with a drawn density, some matrices have low rank,
    and some rows are copies of others, so sparse, all-zero, dependent and
    duplicate rows all occur.
    """
    e = draw(st.integers(1, 8))
    gf = _field(draw(st.sampled_from([p for p in PRIMES if p**e <= 256])), e)
    n = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def matrix():
        rows = draw(st.integers(0, 3 * n + 1))
        m = rng.integers(1, gf.q, size=(rows, n)) * (rng.random((rows, n)) < density)
        if draw(st.booleans()):  # rank at most k
            k = draw(st.integers(1, n))
            m = naive_matmul(gf, m[:, :k], rng.integers(0, gf.q, size=(k, n)))
        if rows > 1 and draw(st.booleans()):
            m[rng.integers(0, rows, rows // 2)] = m[rng.integers(0, rows, rows // 2)]
        return m

    return gf, n, matrix(), matrix()


def _naive_span(gf, rows, n):
    r, pivots = naive_rref(gf, np.asarray(rows, dtype=np.int64).reshape(-1, n))
    return r[:len(pivots)], pivots


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrix_pairs())
def test_elimination_matches_scalar_oracle(case):
    gf, n, a, b = case
    for m in (a, b):
        want, pivots = naive_rref(gf, m)
        got, got_pivots = rref(gf, m)
        assert np.array_equal(got, want) and got_pivots == pivots
        s = row_space(gf, m, n)
        assert s.pivots == tuple(pivots) and np.array_equal(s.basis, want[:len(pivots)])
        k = kernel(gf, m)
        assert k.dim == n - len(pivots)
        assert not np.any(naive_matmul(gf, m, k.basis.T))
        assert np.array_equal(k.basis, _naive_span(gf, k.basis, n)[0])
    sa, sb = row_space(gf, a, n), row_space(gf, b, n)
    top = np.hstack([sa.basis, sa.basis])
    bottom = np.hstack([sb.basis, np.zeros_like(sb.basis)])
    r, pivots = naive_rref(gf, np.vstack([top, bottom]))  # Zassenhaus, by scalar elimination
    want = _naive_span(gf, r[[i for i, c in enumerate(pivots) if c >= n]][:, n:], n)[0]
    got = intersect(sa, sb)
    assert np.array_equal(got.basis, want)
    assert got.dim == sa.dim + sb.dim - len(_naive_span(gf, np.vstack([a, b]), n)[1])
