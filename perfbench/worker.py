"""Workload process of the kuls benchmark: one fresh Python per set-up or run.

Usage: python3 perfbench/worker.py ROOT [CONFIG]

Imports ``kuls`` from ROOT/src, runs the fixed warm-up op and writes one
``ready`` line to stdout; the parent times set-up up to that line.  Without
CONFIG it then exits.  With CONFIG (a JSON file written by run.py) it
executes every drawn pass through ``kuls.cli.main`` with stdout captured,
checks every output against expected.json and writes one result line.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import time

from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def load_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kuls.cli
    if not os.path.abspath(kuls.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"kuls was imported from {kuls.cli.__file__}, not from {src}")
    return kuls.cli


def run_op(cli, argv: list[str]) -> dict:
    """One call of kuls.cli.main; stdout and stderr captured, latency timed."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an op that raises counts as failed
        rc = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def judge(record: dict, expected: str | None) -> dict:
    """Mark a record failed on a non-zero exit, a raise or an unexpected stdout."""
    if record["rc"] != 0:
        record["failure"] = f"exit {record['rc']}: {record['stderr'].strip()[:200]}"
    elif expected is None:
        record["failure"] = "no expected output for this op"
    elif record["stdout"] != expected:
        record["failure"] = f"stdout differs from the expected table: {record['stdout'][:200]!r}"
    return record


def environment() -> dict:
    """Interpreter, numpy, BLAS library and thread count, and processors."""
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def emit_dsl_files(cli, passes: list[list[dict]], workdir: str) -> None:
    """Write the FILE of every oracle op with ``kuls invariants --emit-dsl``."""
    os.makedirs(workdir, exist_ok=True)
    for ops in passes:
        for op in ops:
            dsl = op.get("dsl")
            if dsl is None:
                continue
            path = os.path.join(workdir, dsl["name"] + ".kuls")
            op["argv"] = [a.replace("{file}", path) for a in op["argv"]]
            r = run_op(cli, ["invariants", "--family", dsl["family"], "--params",
                             dsl["params"], "--field", dsl["field"], "--emit-dsl"])
            if r["rc"] != 0:
                raise SystemExit(f"--emit-dsl failed for {dsl}: {r['stderr']}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(r["stdout"])


def measure(cli, cfg: dict, expected: dict) -> dict:
    """Every drawn pass, in order; the pass count is fixed per workload."""
    records, pass_times = [], []
    start = time.perf_counter()
    for i, ops in enumerate(cfg["passes"]):
        total = 0.0
        for op in ops:
            r = judge(run_op(cli, op["argv"]), expected.get(op["key"]))
            records.append({"key": op["key"], "pass": i, "seconds": r["seconds"],
                            "failure": r.get("failure")})
            total += r["seconds"]
        pass_times.append(total)
    return {"records": records, "pass_times": pass_times,
            "measured_s": time.perf_counter() - start}


def commutator_calls_expected(record: dict) -> int:
    """1 + report rows, plus 1 when the form falls back to consistent_form."""
    rows = len(json.loads(record["stdout"])["reynolds"])
    fallback = "using a solved consistent form" in record["stderr"]
    return 1 + rows + int(fallback)


def measure_traced(cli, cfg: dict, expected: dict) -> dict:
    """The first pass untraced, then the same pass traced; outputs must match."""
    ops = cfg["passes"][0]
    plain = [judge(run_op(cli, op["argv"]), expected.get(op["key"])) for op in ops]
    tracer = Tracer()
    traced = []
    with tracer:
        for op, ref in zip(ops, plain):
            before = tracer.calls["structure.commutator_space"]
            r = judge(run_op(cli, op["argv"]), expected.get(op["key"]))
            if r["stdout"] != ref["stdout"] and "failure" not in r:
                r["failure"] = "traced stdout differs from the untraced stdout"
            if op["kind"] == "invariants" and "failure" not in r:
                got = tracer.calls["structure.commutator_space"] - before
                want = commutator_calls_expected(r)
                if got != want:
                    r["failure"] = f"commutator_space ran {got} times, the code gives {want}"
            traced.append(r)
    records = [{"key": op["key"], "pass": 0, "seconds": r["seconds"],
                "failure": p.get("failure") or r.get("failure")}
               for op, p, r in zip(ops, plain, traced)]
    metrics = layer_metrics(tracer)
    untraced_s = sum(p["seconds"] for p in plain)
    traced_s = sum(r["seconds"] for r in traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {"records": records, "pass_times": [traced_s], "untraced_s": untraced_s,
            "metrics": metrics, "spans": len(tracer.spans)}


def main(argv: list[str]) -> int:
    root = argv[1]
    cli = load_program(root)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        table = json.load(handle)
    from pools import WARMUP_ARGV
    warm = judge(run_op(cli, WARMUP_ARGV), table["warmup"])
    print(json.dumps({"ready": True, "warmup_failure": warm.get("failure")}),
          file=sys.__stdout__, flush=True)
    if len(argv) < 3:
        return 0
    with open(argv[2], encoding="utf-8") as handle:
        cfg = json.load(handle)
    expected = {key: entry["stdout"] for key, entry in table["ops"].items()}
    emit_dsl_files(cli, cfg["passes"], cfg["workdir"])
    result = (measure_traced if cfg["trace"] else measure)(cli, cfg, expected)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result), file=sys.__stdout__, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
