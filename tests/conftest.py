"""Shared helpers: cached algebra construction for the whole suite."""
from __future__ import annotations

from functools import lru_cache

from kuls import GF, FamilySpec, build_table, complete, family

# one small instance of each of the ten families, d = 6-18
CATALOGUE = [
    ("Omega", {"n": 2}),
    ("A", {"p": 1, "q": 2}),
    ("D", {"m": 2}),
    ("Dprime", {"m": 2}),
    ("Gamma", {"n": 1}),
    ("Lambda", {"m": 2}),
    ("Tpqr", {"p": 2, "q": 2, "r": 2}),
    ("Tpq", {"p": 1, "q": 1}),
    ("Tstar", {"r": 2}),
    ("N", {"n": 2, "m": 1}),
]


@lru_cache(maxsize=None)
def _table(name, items, p, e):
    spec = FamilySpec(name, dict(items), GF(p, e))
    return build_table(complete(family(spec)))


def make_table(name, gf=(2, 1), **params):
    """A completed AlgebraTable for one family instance, memoized."""
    p, e = gf if isinstance(gf, tuple) else (gf, 1)
    return _table(name, tuple(sorted(params.items())), p, e)
