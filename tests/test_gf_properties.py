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
    """A field of order <= 256 and two operands whose leading axes broadcast."""
    e = draw(st.integers(1, 8))
    gf = _field(draw(st.sampled_from([p for p in PRIMES if p**e <= 256])), e)
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    stack = draw(st.lists(st.integers(1, 3), max_size=2))

    def operand(rows, cols):
        lead = stack[draw(st.integers(0, len(stack))):]
        lead = [1 if draw(st.booleans()) else size for size in lead]
        return draw(arrays(np.int64, (*lead, rows, cols), elements=st.integers(0, gf.q - 1)))

    return gf, operand(m, k), operand(k, n)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matmul_operands())
def test_matmul_matches_scalar_loop_on_random_shapes(case):
    gf, a, b = case
    assert np.array_equal(gf.matmul(a, b), naive_matmul(gf, a, b))
