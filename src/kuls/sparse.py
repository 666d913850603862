"""Sparse matrices over GF(p**e) as sorted entries, and their one product kernel.

A Sparse holds the nonzero entries of a (rows, cols) matrix in row-major
order: entry e sits at (rows[e], indices[e]) with the encoded field value
data[e], no two entries at one cell and none of them zero.  This form is
canonical, so two Sparse are equal iff their arrays are.  It stores no
per-row pointer, so nothing in it grows with the number of rows: a row's
entries are found by np.searchsorted on rows.  scipy.sparse is not used:
its arithmetic is not GF(p**e) arithmetic.

Every product is a join on the shared index followed by one field segment
sum (GF.segment_sum) of the joined products by output cell: `product`
joins two Sparse, `contract` joins the columns of dense stacked rows.
GF.matmul is one `contract` too, over every field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Sparse", "SPARSE_BLOCK", "from_entries", "product", "contract"]

SPARSE_BLOCK = 2**13  # joined entries per temporary of contract


@dataclass(eq=False)
class Sparse:
    shape: tuple[int, int]
    rows: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.indices, self.data):
            a.flags.writeable = False  # tables are shared, e.g. across cached spaces

    def __eq__(self, other):
        return (isinstance(other, Sparse) and tuple(self.shape) == tuple(other.shape)
                and all(np.array_equal(a, b) for a, b in
                        zip((self.rows, self.indices, self.data),
                            (other.rows, other.indices, other.data))))

    __hash__ = None

    def take(self, rows: np.ndarray) -> Sparse:
        """The listed rows, in that order, as a (len(rows), cols) matrix."""
        lo = np.searchsorted(self.rows, rows)
        counts = np.searchsorted(self.rows, rows, side="right") - lo
        out = np.repeat(np.arange(len(rows)), counts)
        pos = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(out.size)
        return Sparse((len(rows), self.shape[1]), out, self.indices[pos], self.data[pos])

    def take_range(self, lo: int, hi: int) -> Sparse:
        """Rows lo .. hi - 1, as take(np.arange(lo, hi)) gives them: two binary
        searches and a slice, so nothing in it has hi - lo entries."""
        a, b = np.searchsorted(self.rows, [lo, hi])
        return Sparse((hi - lo, self.shape[1]), self.rows[a:b] - lo, self.indices[a:b],
                      self.data[a:b])

    def reshape(self, shape: tuple[int, int]) -> Sparse:
        """The same entries in row-major order read as a matrix of another shape."""
        rows, cols = np.divmod(self.rows * self.shape[1] + self.indices, shape[1])
        return Sparse(tuple(shape), rows, cols, self.data)


def from_entries(gf, shape, rows, cols, vals) -> Sparse:
    """The canonical Sparse of the sum of vals[e] at (rows[e], cols[e]):
    entries at one cell are summed in the field, and zero sums are dropped."""
    cells, ids = np.unique(np.asarray(rows, dtype=np.int64) * shape[1]
                           + np.asarray(cols, dtype=np.int64), return_inverse=True)
    sums = gf.segment_sum(vals, ids, cells.size)
    keep = sums != 0
    rows, cols = np.divmod(cells[keep], shape[1])
    return Sparse(tuple(shape), rows, cols, sums[keep])


def product(gf, a: Sparse, b: Sparse) -> Sparse:
    """a @ b: entry (r, k) of a joins every entry of row k of b."""
    joined = b.take(a.indices)  # row e: the entries of b that a's entry e joins
    return from_entries(gf, (a.shape[0], b.shape[1]), a.rows[joined.rows], joined.indices,
                        gf.mul(a.data[joined.rows], joined.data))


def contract(gf, factors, data, ids, size: int) -> np.ndarray:
    """Row-wise sums over entries: out[r, k] is the sum, over the entries e
    with ids[e] == k, of data[e] times x[r, cols[e]] for every (x, cols) in
    factors.  Each x is an (r, n) stack of dense rows; the gather x[:, cols]
    is the join on the shared index.  Rows go in blocks of
    max(1, SPARSE_BLOCK // entries), so a temporary holds at most 2**13
    float64 or int64 values, 64 KB (or one row): it stays in cache and
    below glibc's 128 KB mmap threshold, so the heap reuses it instead of
    mapping and zero-filling fresh pages on every call, as 2**16 and more
    do; 2**12 pays more per-block Python overhead than it saves.

    Over GF(p) the joined products are one float64 chain data * x[:, cols]
    * ... reduced mod p once per output cell by GF.segment_sum.  A product
    is at most (p - 1)**(len(factors) + 1), below 2**48 for two factors
    since p < 2**16, and a cell sums at most data.size of them, so the sums
    are exact while data.size * (p - 1)**(len(factors) + 1) < 2**53; past
    that bound each product is reduced mod p after every factor.  Over
    GF(p**e) the products are field products (gf.mul), each below p**e,
    and GF.segment_sum adds them digit by digit: a block holds at most
    max(2**13, data.size) products, so each digit sum is at most
    (p - 1) * max(2**13, data.size), exact in float64 for any operand
    that fits in memory.
    """
    prime = gf.e == 1
    data = np.asarray(data, dtype=np.float64 if prime else np.int64)
    reduce = prime and data.size * (gf.p - 1) ** (len(factors) + 1) >= 2**53
    r = factors[0][0].shape[0]
    out = np.empty((r, size), dtype=np.int64)
    step = max(1, SPARSE_BLOCK // max(1, data.size))
    cells = ids + size * np.arange(min(step, r), dtype=np.int64)[:, None]
    for lo in range(0, r, step):
        hi = min(lo + step, r)
        vals = data
        for x, cols in factors:
            vals = vals * x[lo:hi, cols] if prime else gf.mul(vals, x[lo:hi, cols])
            if reduce:
                vals %= gf.p
        out[lo:hi] = gf.segment_sum(vals, cells[:hi - lo], (hi - lo) * size).reshape(hi - lo, size)
    return out
