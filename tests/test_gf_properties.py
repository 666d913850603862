"""Property test: GF.matmul against the scalar sadd/smul loop on random shapes."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from kuls import GF  # noqa: E402
from kuls.gf import is_prime  # noqa: E402
from oracles import naive_matmul  # noqa: E402

PRIMES = [p for p in range(2, 257) if is_prime(p)]


@lru_cache(maxsize=None)
def _field(p: int, e: int) -> GF:
    return GF(p, e)


@st.composite
def matmul_operands(draw):
    """A field of order <= 256 and two 1-D or 2-D operands; a 1-D operand is
    one row, so b is 1-D only when the inner dimension is 1."""
    e = draw(st.integers(1, 8))
    gf = _field(draw(st.sampled_from([p for p in PRIMES if p**e <= 256])), e)
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))

    def operand(rows, cols):
        shape = (cols,) if rows == 1 and draw(st.booleans()) else (rows, cols)
        return draw(arrays(np.int64, shape, elements=st.integers(0, gf.q - 1)))

    return gf, operand(m, k), operand(k, n)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matmul_operands())
def test_matmul_matches_scalar_loop_on_random_shapes(case):
    gf, a, b = case
    assert np.array_equal(gf.matmul(a, b), naive_matmul(gf, a, b))
