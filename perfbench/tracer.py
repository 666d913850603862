"""Tracing from outside the program: wrap the public functions of each kuls module.

``Tracer.install()`` replaces every binding of each traced function object
in every loaded ``kuls`` module (``from .linalg import rref`` copies the
binding, so each copy is rebound) and ``GF.matmul`` on the class, with a
wrapper that records a span: name, start, end and parent.  A few spans
also add counters computed from their arguments and results.
``uninstall()`` puts every original binding back.

Spans are kept in memory; ``self_times`` and ``layer_metrics`` turn them
into the per-layer metrics that METRICS.md names.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) of each traced function; the span is named module.function
TARGETS = (
    ("cli", "main"),
    ("dsl", "parse_presentation"),
    ("families", "family_source"),
    ("rewriting", "complete"),
    ("rewriting", "enumerate_basis"),
    ("rewriting", "build_table"),
    ("structure", "center"),
    ("structure", "socle"),
    ("structure", "commutator_space"),
    ("structure", "multiply"),
    ("structure", "power"),
    ("form", "canonical_form"),
    ("form", "consistent_form"),
    ("form", "orthogonal"),
    ("reynolds", "reynolds_sequence"),
    ("reynolds", "kuelshammer_space"),
    ("reynolds", "brute_force_kuelshammer"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "row_space"),
    ("linalg", "reduce_mod"),
    ("gf", "GF.matmul"),
)

# spans whose self time is reported as NAME.self_s rather than NAME.s
CONTAINERS = ("cli.main", "rewriting.build_table")


def _rss_bytes() -> int:
    """Current resident set size."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _shape2(x) -> tuple[int, int]:
    """(rows, cols) of x as np.atleast_2d would see it."""
    shape = np.shape(x)
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return 1, shape[0]
    return shape[0], shape[1]


def _count_matmul(counters, args, result, pre):
    gf, a, b = args[0], args[1], args[2]
    m, k = _shape2(a)
    n = _shape2(b)[1]
    counters["gf.matmul.mac"] += m * k * n
    if gf.e > 1:
        counters["gf.matmul.ext_mac"] += m * k * n


def _count_rref(counters, args, result, pre):
    rows, cols = _shape2(args[1])
    counters["linalg.rref.rows_in"] += rows
    counters["linalg.rref.cells_in"] += rows * cols
    counters["linalg.rref.rank"] += len(result[1])


def _count_table(counters, args, result, pre):
    d = result.dim
    counters["rewriting.dim"] += d
    counters["rewriting.table_bytes"] += d ** 3 * 8
    grown = (_rss_bytes() - pre) / 2 ** 20
    counters["rewriting.build_table.rss_mb"] = max(
        counters["rewriting.build_table.rss_mb"], grown)


def _count_rules(counters, args, result, pre):
    counters["rewriting.complete.rules"] += len(result.rules)


def _count_elements(counters, args, result, pre):
    at = args[0]
    counters["reynolds.brute_force.elements"] += at.gf.q ** at.dim


# span name -> (function run before the call, function adding counters after it)
COUNTERS = {
    "gf.matmul": (None, _count_matmul),
    "linalg.rref": (None, _count_rref),
    "rewriting.build_table": (_rss_bytes, _count_table),
    "rewriting.complete": (None, _count_rules),
    "reynolds.brute_force_kuelshammer": (None, _count_elements),
}


def kuls_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kuls" or name.startswith("kuls."))]


def binding_snapshot() -> dict:
    """id of every attribute of every loaded kuls module and of the GF class."""
    snap = {}
    for mod in kuls_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
    gf = sys.modules["kuls.gf"].GF
    for attr, value in vars(gf).items():
        snap[("kuls.gf.GF", attr)] = id(value)
    return snap


class Tracer:
    """Records spans of the traced kuls functions while installed."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (namespace owner, attribute, original)

    # -- recording --

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.calls[name] += 1
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        pre, post = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre() if pre else None
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(index)
            if post:
                post(self.counters, args, result, state)
            return result

        return traced

    # -- binding --

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = kuls_modules()
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr.split('.')[-1]}"
            if attr == "GF.matmul":
                cls = sys.modules["kuls.gf"].GF
                original = cls.__dict__["matmul"]
                self._saved.append((cls, "matmul", original))
                setattr(cls, "matmul", self.wrap(name, original))
                continue
            original = getattr(sys.modules[f"kuls.{module_name}"], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach, start), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything recorded: calls, self seconds and counters."""
    self_ns: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_ns[span[0]] += own
    metrics: dict[str, float] = {}
    for module_name, attr in TARGETS:
        name = f"{module_name}.{attr.split('.')[-1]}"
        suffix = "self_s" if name in CONTAINERS else "s"
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.{suffix}"] = self_ns[name] / 1e9
    c = tracer.counters
    for key in ("gf.matmul.mac", "gf.matmul.ext_mac", "linalg.rref.cells_in",
                "rewriting.dim", "rewriting.table_bytes", "rewriting.build_table.rss_mb",
                "rewriting.complete.rules", "reynolds.brute_force.elements"):
        metrics[key] = c[key]
    rows = c["linalg.rref.rows_in"]
    metrics["linalg.rref.rank_ratio"] = c["linalg.rref.rank"] / rows if rows else 0.0
    return metrics
