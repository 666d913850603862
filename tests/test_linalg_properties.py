"""Property tests: rref, row_space, kernel and intersect against scalar elimination."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kuls import GF  # noqa: E402
from kuls.gf import is_prime  # noqa: E402
from kuls.linalg import kernel, row_space, rref  # noqa: E402
from oracles import (enumerated_kernel, intersect, naive_matmul, naive_rref,  # noqa: E402
                     span_members, two_elimination_kernel)

PRIMES = [p for p in range(2, 257) if is_prime(p)]


@lru_cache(maxsize=None)
def _field(p: int, e: int) -> GF:
    return GF(p, e)


def _draw_field(draw) -> GF:
    e = draw(st.integers(1, 8))
    return _field(draw(st.sampled_from([p for p in PRIMES if p**e <= 256])), e)


@st.composite
def matrix_pairs(draw):
    """A field of order <= 256, an ambient dimension n and two matrices of 0 to 3n+1 rows.

    3n+1 rows span several n-row chunks of row_space, the last one partial.
    Entries are nonzero with a drawn density, some matrices have low rank,
    and some rows are copies of others, so sparse, all-zero, dependent and
    duplicate rows all occur.
    """
    gf = _draw_field(draw)
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


@st.composite
def block_streams(draw):
    """A field, an ambient dimension n and up to five blocks of 0 to 2n+1 rows.

    Each block's rows are zero left of a leading column that moves left
    from block to block, so later blocks bring pivots left of earlier
    ones; some rows are set to zero and some replaced by combinations of
    the rows of earlier blocks, which lie in the span already.
    """
    gf = _draw_field(draw)
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leads = sorted(draw(st.lists(st.integers(0, n - 1), max_size=5)), reverse=True)
    blocks, earlier = [], np.zeros((0, n), dtype=np.int64)
    for lead in leads:
        rows = draw(st.integers(0, 2 * n + 1))
        m = rng.integers(1, gf.q, size=(rows, n)) * (rng.random((rows, n)) < 0.5)
        m[:, :lead] = 0
        m[rng.random(rows) < 0.3] = 0
        old = np.flatnonzero(rng.random(rows) < 0.3)
        if len(earlier) and old.size:
            m[old] = naive_matmul(gf, rng.integers(0, gf.q, size=(old.size, len(earlier))), earlier)
        blocks.append(m)
        earlier = np.vstack([earlier, m])
    return gf, n, blocks


@settings(derandomize=True, deadline=None, max_examples=200)
@given(block_streams())
def test_row_space_of_blocks_matches_scalar_rref_of_their_rows(case):
    """The blocks go in stacked, up to 10n + 5 rows reduced n at a time."""
    gf, n, blocks = case
    rows = np.vstack([np.zeros((0, n), dtype=np.int64)] + blocks)
    want, pivots = _naive_span(gf, rows, n)
    got = row_space(gf, rows, n)
    assert got.pivots == tuple(pivots) and np.array_equal(got.basis, want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrix_pairs(), st.lists(st.integers(0, 5), max_size=3))
def test_rref_extending_a_prefix_matches_rref_from_scratch(case, holes):
    """rref given the pivots of an RREF prefix, with later rows reduced
    modulo it (zero rows among them), equals rref of the whole matrix.

    The prefix spans the rows of a with the hole columns zeroed, so new
    pivots also land left of old ones.
    """
    gf, n, a, b = case
    a[:, [h for h in holes if h < n]] = 0
    basis, pivots = _naive_span(gf, a, n)
    m = np.vstack([basis, gf.sub(b, naive_matmul(gf, b[:, pivots], basis))])
    kept = m.copy()
    want, want_pivots = naive_rref(gf, m)
    got, got_pivots = rref(gf, m, tuple(pivots))
    assert got_pivots == want_pivots and np.array_equal(got, want)
    assert np.array_equal(got, rref(gf, m)[0]) and np.array_equal(m, kept)


@st.composite
def small_systems(draw):
    """A field of order at most 9, n <= 6 and an (r, n) matrix, r <= 8, with
    a drawn density and, sometimes, repeated rows."""
    gf = _field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])))
    n, r = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    m = rng.integers(1, gf.q, size=(r, n)) * (rng.random((r, n)) < density)
    if r > 1 and draw(st.booleans()):
        m[rng.integers(0, r, r // 2)] = m[rng.integers(0, r, r // 2)]
    return gf, n, m


@settings(derandomize=True, deadline=None, max_examples=120)
@given(small_systems())
def test_kernel_members_are_the_enumerated_solutions(case):
    """kernel's span is {x : m @ x = 0}, found without linalg; its basis is
    canonical and equals the two-elimination kernel's."""
    gf, n, m = case
    k = kernel(gf, m, n)
    assert np.array_equal(span_members(k), enumerated_kernel(gf, m, n))
    assert all(a < b for a, b in zip(k.pivots, k.pivots[1:]))
    assert np.array_equal(k.basis[:, list(k.pivots)], np.eye(k.dim, dtype=np.int64))
    assert all(not k.basis[i, :c].any() for i, c in enumerate(k.pivots))
    ref = two_elimination_kernel(gf, m, n)
    assert k == ref and k.pivots == ref.pivots
