"""Self-checks of the benchmark's own logic, on tiny inputs.

Usage, from the repository root:  python3 perfbench/selfcheck.py

Covers self-time arithmetic on nested spans, percentile and sample-count
selection, the counting of failed ops, the tracer's bindings (every copy
rebound while installed, none changed afterwards), the seeded draws, and
that BENCHMARK.json names exactly the metrics the code prints.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import pools  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def check_self_times() -> None:
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,60]; c [120,130] is a second root
    spans = [["root", 0, 100, -1], ["a", 10, 40, 0], ["a1", 15, 25, 1],
             ["b", 50, 60, 0], ["c", 120, 130, -1]]
    check(tracer.self_times(spans) == [60, 20, 10, 10, 10], "self time of nested spans")
    # a child that sticks out of its parent only removes the covered part
    check(tracer.self_times([["p", 0, 10, -1], ["q", 5, 20, 0]]) == [5, 15],
          "self time clips child spans to the parent")


def check_tracer_recording() -> None:
    ticks = iter(range(0, 1000, 10))
    t = tracer.Tracer(clock=lambda: next(ticks))
    outer = t.wrap("x.outer", lambda f: f() + 1)
    inner = t.wrap("x.inner", lambda: 1)
    check(outer(inner) == 2, "wrapped functions return their result")
    check([s[0] for s in t.spans] == ["x.outer", "x.inner"] and t.spans[1][3] == 0,
          "spans record name and parent")
    check(tracer.self_times(t.spans) == [20, 10], "self times from a fake clock")

    def boom():
        raise ValueError("boom")
    try:
        t.wrap("x.boom", boom)()
    except ValueError:
        pass
    check(t.spans[-1][2] is not None and not t._stack, "a raising span is closed")


def check_percentiles() -> None:
    tp = pools.tail_percentile
    check(tp(120) == 90.0, "120 samples: p90 has 12 beyond")
    check(tp(80) == 75.0, "80 samples: p75 (p90 has only 8 beyond)")
    check(tp(1000) == 99.0, "1000 samples: p99 has 10 beyond")
    check(tp(20) == 50.0 and tp(19) is None, "20 samples: p50; 19 samples: none")
    check(run.nearest_rank(list(range(1, 121)), 90.0) == 108, "nearest rank of p90 in 1..120")
    check(pools.workload_tail(pools.CATALOGUE) == 90.0,
          "catalogue runs enough ops for p90")


class _FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour()


def check_failed_frac() -> None:
    def good():
        print("right")
        return 0

    def wrong():
        print("wrong")
        return 0

    def nonzero():
        print("right")
        return 1

    def raises():
        raise RuntimeError("broken")

    def exits():
        raise SystemExit(2)

    records = []
    for fn in (good, wrong, nonzero, raises, exits):
        r = worker.judge(worker.run_op(_FakeCli(fn), []), "right\n")
        records.append({"key": fn.__name__, "pass": 0, "seconds": r["seconds"],
                        "failure": r.get("failure")})
    check([bool(r["failure"]) for r in records] == [False, True, True, True, True],
          "wrong output, non-zero exit, raise and SystemExit count as failed")
    result = {"records": records, "pass_times": [1.0], "peak_rss_mb": 1.0}
    values, _ = run.end_to_end(pools.CATALOGUE, result, [1.0])
    check(abs(values["ok_frac"] - 0.2) < 1e-12, "ok_frac = 1 - failed/attempted = 1/5")
    missing = worker.judge({"rc": 0, "stdout": "x", "stderr": ""}, None)
    check("failure" in missing, "an op without an expected entry counts as failed")


def check_bindings() -> None:
    cli = worker.load_program(ROOT)
    import kuls.gf
    import kuls.linalg
    import kuls.structure
    before = tracer.binding_snapshot()
    rref = kuls.linalg.rref
    t = tracer.Tracer()
    with t:
        check(kuls.linalg.rref is not rref and kuls.linalg.rref.__wrapped__ is rref,
              "linalg.rref is rebound while installed")
        check(kuls.structure.kernel.__wrapped__ is kuls.linalg.kernel.__wrapped__,
              "the copy imported into structure is rebound too")
        check(hasattr(kuls.gf.GF.matmul, "__wrapped__"), "GF.matmul is rebound on the class")
        r = worker.run_op(cli, ["invariants", "--family", "Omega", "--params", "n=2",
                                "--field", "GF(2)", "--json"])
    check(r["rc"] == 0, "a traced op exits 0")
    check(tracer.binding_snapshot() == before, "no binding is changed after uninstall")
    wanted = worker.commutator_calls_expected(r)
    check(t.calls["structure.commutator_space"] == wanted,
          f"commutator_space calls = 1 + rows = {wanted}")
    metrics = tracer.layer_metrics(t)
    check(metrics["cli.main.calls"] == 1 and metrics["rewriting.dim"] == 10,
          "layer metrics count one op of dimension 10")
    check(metrics["gf.matmul.mac"] > 0 and metrics["gf.matmul.ext_mac"] == 0,
          "prime-field matmul counts no extension-field work")
    total = sum(v for k, v in metrics.items() if k.endswith((".s", ".self_s")))
    spanned = t.spans[0][2] - t.spans[0][1]
    check(abs(total * 1e9 - spanned) < 1e3, "self times add up to the root span")


def check_pools() -> None:
    table = json.load(open(os.path.join(HERE, "expected.json"), encoding="utf-8"))["ops"]
    check(set(pools.all_ops()) == set(table), "expected.json covers exactly the pools")
    for w in pools.WORKLOADS.values():
        a, b = w.passes(7), w.passes(7)
        check(a == b and len(a) == w.passes_per_run
              and all(len(p) == w.ops_per_pass for p in a),
              f"{w.name}: the same seed draws the same {w.passes_per_run} passes")
        check(any(w.passes(seed) != a for seed in range(8, 12)),
              f"{w.name}: other seeds draw other passes")


def check_benchmark_json() -> None:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(pools.WORKLOADS),
          "BENCHMARK.json names the workloads of pools.py")
    check(all(w["why"] == pools.WORKLOADS[w["name"]].why for w in spec["workloads"]),
          "BENCHMARK.json gives the reasons recorded in pools.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS,
          "BENCHMARK.json names the end-to-end metrics with their units")
    ok_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ok_frac")
    most_ops = max(w.passes_per_run * w.ops_per_pass for w in pools.WORKLOADS.values())
    check(ok_bound < 1 / most_ops, "one failed op moves ok_frac by more than its bound")
    names = set(tracer.layer_metrics(tracer.Tracer())) | {"trace.overhead_s"}
    check({m["name"] for m in spec["per_layer"]} == names,
          "BENCHMARK.json names the per-layer metrics of the tracer")
    check(all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"]),
          "per-layer units match")


def main() -> int:
    check_self_times()
    check_tracer_recording()
    check_percentiles()
    check_failed_frac()
    check_bindings()
    check_pools()
    check_benchmark_json()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
