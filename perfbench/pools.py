"""Workload pools of the kuls benchmark and their seeded draws.

Every op is one ``kuls`` command line.  A workload is a pool of ops plus a
stratified draw: the pool is split into slots of ops with similar cost at
the commit that defined the benchmark, and each pass draws a fixed number
of ops from every slot, then shuffles them.  A slot of one op puts that op
in every pass.  So the seed changes which algebras run and in which order,
but hardly how much work a pass holds, and a run's figures stay comparable
across seeds.  Every run of a workload executes the same fixed number of
passes, whatever the speed of the machine, so the seed alone decides which
ops are measured.

This module imports nothing from ``kuls``: the parent process draws the
argv lists and the workload process only executes them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def invariants_op(family: str, params: str, field: str) -> dict:
    return {"key": f"invariants {family}({params}) {field}", "kind": "invariants",
            "argv": ["invariants", "--family", family, "--params", params,
                     "--field", field, "--json"]}


def compare_op(first: str, second: str, p: int) -> dict:
    return {"key": f"compare {first} {second} GF({p})", "kind": "compare",
            "argv": ["compare", first, second, "--char", str(p)]}


def oracle_op(family: str, params: str, n: int) -> dict:
    """``kuls oracle FILE --n N``; FILE is written with ``--emit-dsl`` at set-up."""
    return {"key": f"oracle {family}({params}) GF(2) n={n}", "kind": "oracle",
            "argv": ["oracle", "{file}", "--n", str(n)],
            "dsl": {"family": family, "params": params, "field": "GF(2)",
                    "name": f"{family}_{params.replace('=', '').replace(',', '_')}"}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[tuple[tuple[dict, ...], int], ...]  # (ops, how many per pass)
    passes_per_run: int

    @property
    def ops_per_pass(self) -> int:
        return sum(k for _, k in self.slots)

    @property
    def members(self) -> tuple[dict, ...]:
        return tuple(op for ops, _ in self.slots for op in ops)

    def draw(self, rng: random.Random) -> list[dict]:
        ops = [op for members, k in self.slots for op in rng.sample(members, k)]
        rng.shuffle(ops)
        return ops

    def passes(self, seed: int) -> list[list[dict]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.draw(rng) for _ in range(self.passes_per_run)]


def _inv(entries: str) -> tuple[dict, ...]:
    """'Omega n=8 GF(2); D m=8 GF(2)' -> invariants ops."""
    ops = []
    for entry in entries.split(";"):
        family, params, field = entry.split()
        ops.append(invariants_op(family, params, field))
    return tuple(ops)


LARGE_PRIME = Workload(
    name="large-prime",
    why=("d = 79-88 over GF(2), GF(3): reynolds and the dense table dominate and "
         "set peak RSS"),
    slots=(
        (_inv("Omega n=8 GF(2)"), 1),
        (_inv("D m=8 GF(2); Dprime m=8 GF(3)"), 1),
        (_inv("A p=1,q=8 GF(2); Lambda m=6 GF(2); N n=5,m=3 GF(3); Gamma n=6 GF(3)"), 1),
    ),
    passes_per_run=1,
)

EXT_FIELD = Workload(
    name="ext-field",
    why=("d = 26-40 over GF(4), GF(8), GF(9), GF(25): the extension-field "
         "GF.matmul loop dominates"),
    slots=(
        (_inv("Omega n=5 GF(2,2); D m=5 GF(2,3)"), 1),
        (_inv("N n=3,m=3 GF(3,2)"), 1),
        (_inv("Lambda m=4 GF(2,2)"), 1),
        (_inv("Tpq p=2,q=3 GF(3,2); Dprime m=4 GF(5,2); Gamma n=3 GF(2,2); "
              "Tstar r=3 GF(3,2)"), 1),
    ),
    passes_per_run=1,
)

# The catalogue's invariants members, every family over GF(2), GF(3) and
# GF(5) at d = 10-40 (Omega only in characteristic 2, where it is
# symmetric), in order of op latency measured at the commit that defined the
# benchmark (median of ten runs, 2-core x86-64).  A pass draws one member
# from each of 28 consecutive slots of this order, so the quantiles of a
# run's op latencies hardly depend on the seed.
_CATALOGUE_BY_COST = _inv(
    "A p=1,q=2 GF(2); A p=1,q=2 GF(3); N n=2,m=2 GF(2); Dprime m=2 GF(2); "
    "N n=2,m=2 GF(3); Dprime m=2 GF(5); N n=2,m=2 GF(5); Gamma n=1 GF(3); "
    "A p=1,q=2 GF(5); Lambda m=2 GF(3); Lambda m=2 GF(5); N n=3,m=1 GF(3); "
    "N n=3,m=1 GF(2); Omega n=2 GF(2); Gamma n=1 GF(5); D m=2 GF(5); D m=2 GF(2); "
    "N n=3,m=1 GF(5); Tpqr p=2,q=2,r=2 GF(2); Lambda m=2 GF(2); Dprime m=2 GF(3); "
    "Gamma n=1 GF(2); D m=2 GF(3); Tpq p=1,q=2 GF(3); Tpq p=1,q=2 GF(5); "
    "N n=2,m=3 GF(2); Tpq p=1,q=2 GF(2); N n=2,m=3 GF(5); Tpqr p=2,q=2,r=2 GF(3); "
    "Tpqr p=2,q=2,r=2 GF(5); A p=2,q=2 GF(3); A p=2,q=2 GF(2); N n=2,m=3 GF(3); "
    "A p=1,q=3 GF(5); N n=2,m=4 GF(5); Dprime m=3 GF(5); A p=1,q=3 GF(3); "
    "Dprime m=3 GF(2); A p=1,q=3 GF(2); D m=3 GF(2); A p=2,q=2 GF(5); "
    "N n=4,m=1 GF(3); Dprime m=3 GF(3); Gamma n=2 GF(3); Gamma n=2 GF(5); "
    "Tstar r=2 GF(2); Tpq p=2,q=2 GF(3); Tpq p=2,q=2 GF(5); N n=2,m=4 GF(3); "
    "Tstar r=2 GF(3); Gamma n=2 GF(2); N n=4,m=1 GF(2); Tpq p=2,q=2 GF(2); "
    "D m=3 GF(5); N n=4,m=1 GF(5); Omega n=3 GF(2); N n=3,m=2 GF(3); "
    "Tpqr p=2,q=2,r=3 GF(2); Tpqr p=2,q=2,r=3 GF(5); Tpqr p=2,q=2,r=3 GF(3); "
    "Tstar r=2 GF(5); N n=3,m=2 GF(2); N n=2,m=4 GF(2); N n=3,m=2 GF(5); "
    "Lambda m=3 GF(5); D m=3 GF(3); Lambda m=3 GF(3); Tpq p=1,q=3 GF(5); "
    "Tpq p=1,q=3 GF(3); Tpq p=1,q=3 GF(2); Lambda m=3 GF(2); Tpqr p=2,q=3,r=3 GF(5); "
    "Tpqr p=2,q=3,r=3 GF(2); A p=1,q=4 GF(2); Tstar r=3 GF(2); "
    "Tpqr p=2,q=3,r=3 GF(3); A p=2,q=3 GF(2); Tstar r=3 GF(3); Dprime m=4 GF(2); "
    "Tstar r=3 GF(5); A p=1,q=4 GF(3); Tpq p=2,q=3 GF(2); A p=2,q=3 GF(3); "
    "A p=1,q=4 GF(5); Omega n=4 GF(2); Tpqr p=2,q=2,r=4 GF(2); "
    "Tpqr p=2,q=2,r=4 GF(3); A p=2,q=3 GF(5); Tpq p=2,q=3 GF(3); Tpq p=2,q=3 GF(5); "
    "Tpqr p=2,q=2,r=4 GF(5); Dprime m=4 GF(5); N n=3,m=3 GF(5); Gamma n=3 GF(3); "
    "D m=4 GF(5); Gamma n=3 GF(5); Dprime m=4 GF(3); N n=3,m=3 GF(2); "
    "Gamma n=3 GF(2); D m=4 GF(2); D m=4 GF(3); N n=3,m=3 GF(3); Tpq p=1,q=4 GF(3); "
    "Tpq p=1,q=4 GF(5); Tpq p=1,q=4 GF(2); Tpqr p=3,q=3,r=3 GF(3); "
    "Tpqr p=3,q=3,r=3 GF(5); Tpqr p=3,q=3,r=3 GF(2); Tpqr p=2,q=3,r=4 GF(2); "
    "Tpqr p=2,q=3,r=4 GF(3); Tpqr p=2,q=3,r=4 GF(5); N n=4,m=2 GF(3); "
    "N n=4,m=2 GF(5); Tpq p=3,q=3 GF(2); Tstar r=4 GF(2); Tstar r=4 GF(3); "
    "Tpq p=3,q=3 GF(3); Tpq p=3,q=3 GF(5); Lambda m=4 GF(3); Tstar r=4 GF(5); "
    "N n=4,m=2 GF(2); Lambda m=4 GF(5); Tpq p=2,q=4 GF(2); Tpq p=2,q=4 GF(3); "
    "N n=3,m=4 GF(5); Tpq p=2,q=4 GF(5); Lambda m=4 GF(2); A p=3,q=3 GF(5); "
    "A p=2,q=4 GF(2); A p=2,q=4 GF(5); A p=1,q=5 GF(2); A p=2,q=4 GF(3); "
    "A p=1,q=5 GF(3); Dprime m=5 GF(2); A p=3,q=3 GF(2); A p=3,q=3 GF(3); "
    "Dprime m=5 GF(5); Tpqr p=3,q=3,r=4 GF(5); N n=3,m=4 GF(3); A p=1,q=5 GF(5); "
    "Tpqr p=3,q=3,r=4 GF(2); Tpqr p=3,q=3,r=4 GF(3); Omega n=5 GF(2); "
    "Dprime m=5 GF(3); D m=5 GF(5); N n=3,m=4 GF(2); D m=5 GF(3); D m=5 GF(2)")
_CATALOGUE_SLOTS = 28


_README_PAIRS = tuple(
    [compare_op(f"Omega(n={n})", f"A(p=1,q={n})", 2) for n in (2, 3, 4, 5)]
    + [compare_op(f"D(m={m})", f"Dprime(m={m})", p) for p in (2, 3) for m in (2, 3, 4, 5)])

CATALOGUE = Workload(
    name="catalogue",
    why=("40 ops of d = 10-40 across all ten families and the README compare "
         "pairs: per-call fixed costs weigh most"),
    slots=tuple((_CATALOGUE_BY_COST[i * len(_CATALOGUE_BY_COST) // _CATALOGUE_SLOTS:
                                    (i + 1) * len(_CATALOGUE_BY_COST) // _CATALOGUE_SLOTS], 1)
                for i in range(_CATALOGUE_SLOTS))
    + ((_README_PAIRS, len(_README_PAIRS)),),
    passes_per_run=3,
)

_ORACLE_ALGEBRAS = ("Omega n=3", "Gamma n=2", "A p=2,q=2", "A p=1,q=3", "D m=3",
                    "Dprime m=3", "Tstar r=2", "N n=2,m=4")

ORACLE = Workload(
    name="oracle",
    why=("kuls oracle over 2^18 elements: brute-force T_n multiplies in bulk "
         "through the dense table"),
    slots=tuple((tuple(oracle_op(*a.split(), n) for a in _ORACLE_ALGEBRAS), 1)
                for n in (1, 2)),
    passes_per_run=2,
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (LARGE_PRIME, EXT_FIELD, CATALOGUE, ORACLE)}

WARMUP_ARGV = ["invariants", "--family", "Lambda", "--params", "m=4", "--field", "GF(3)",
               "--json"]


def all_ops() -> dict[str, dict]:
    """Every op any workload can draw, by key."""
    return {op["key"]: op for w in WORKLOADS.values() for op in w.members}


def tail_percentile(samples: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it, or None."""
    for pct in PERCENTILE_LADDER:
        rank = math.ceil(pct * samples / 100)  # nearest-rank definition
        if samples - rank >= 10:
            return pct
    return None


def workload_tail(w: Workload) -> float | None:
    """The tail percentile of a workload, fixed by its op count per run."""
    return tail_percentile(w.passes_per_run * w.ops_per_pass)

