"""The kuls benchmark: one workload per call, every metric by name and unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: large-prime, ext-field, catalogue, oracle (see pools.py and
METRICS.md).  The seed draws the ops; the program only receives their argv.

With ``--trace 0`` the run spawns the workload process three times: the
first two only set up (import kuls and one warm-up op), the third sets up
and then runs the workload's fixed number of passes.  It prints the
end-to-end metrics.  ``--seconds`` is accepted for a common command line,
but the measured work does not depend on it: a run measures a fixed amount
of work, not a time window, so that every run measures the same ops.  With ``--trace 1`` one process runs the first pass
untraced and then traced, and the per-layer metrics are printed instead.
Every output is checked against expected.json.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time

import pools

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
SETUPS = 3
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.tail": "s",
         "peak_rss_mb": "MB", "ok_frac": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", "overhead_s")):
        return "s"
    if name.endswith("rank_ratio"):
        return "ratio"
    if name.endswith("table_bytes"):
        return "bytes"
    if name.endswith("rss_mb"):
        return "MB"
    return "count"


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    """One line of the worker's stdout, or BenchError once the deadline passes."""
    buf = b""
    fd = proc.stdout.fileno()
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("workload process timed out")
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"workload process ended early (exit {proc.wait()})")
            buf += chunk
    return buf


def spawn(config: str | None, deadline: float,
          procs: list) -> tuple[float, subprocess.Popen, bytes]:
    """Start a workload process (added to procs); return its set-up time,
    the process and any output after its ready line."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT]
    if config:
        argv.append(config)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, bufsize=0)
    procs.append(proc)
    first = _read_line(proc, deadline)
    setup = time.perf_counter() - start
    line, _, rest = first.partition(b"\n")
    ready = json.loads(line)
    if ready.get("warmup_failure"):
        raise BenchError(f"warm-up op failed: {ready['warmup_failure']}")
    return setup, proc, rest


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, rest: bytes, deadline: float) -> dict:
    while not rest.endswith(b"\n"):
        rest += _read_line(proc, deadline)
    if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(rest)


def _terminated(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def end_to_end(w: pools.Workload, result: dict, setups: list[float]) -> tuple[dict, dict]:
    seconds = [r["seconds"] for r in result["records"]]
    failed = sum(1 for r in result["records"] if r["failure"])
    tail = pools.workload_tail(w)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["pass_times"]),
        "op_s.p50": statistics.median(seconds),
        "op_s.tail": nearest_rank(seconds, tail) if tail else max(seconds),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1 - failed / len(seconds),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "wall_s": f"median of {len(result['pass_times'])} passes of {w.ops_per_pass} ops",
        "op_s.p50": f"{len(seconds)} ops",
        "op_s.tail": (f"p{tail:g} of {len(seconds)} ops, "
                      f"{len(seconds) - math.ceil(tail * len(seconds) / 100)} beyond"
                      if tail else f"max of {len(seconds)} ops (fewer than 20 per run)"),
        "peak_rss_mb": "ru_maxrss of the workload process",
        "ok_frac": f"failed {failed} of {len(seconds)} attempted",
    }
    return values, notes


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "kuls", "__init__.py")):
        raise BenchError(f"no kuls sources under {os.path.join(ROOT, 'src')}")
    w = pools.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORKDIR, exist_ok=True)
    config = os.path.join(WORKDIR, f"config-{os.getpid()}.json")
    with open(config, "w", encoding="utf-8") as handle:
        json.dump({"passes": w.passes(args.seed), "trace": bool(args.trace),
                   "workdir": os.path.join(WORKDIR, "dsl")}, handle)
    procs: list[subprocess.Popen] = []
    try:
        setups = []
        for _ in range(0 if args.trace else SETUPS - 1):
            setup, proc, _ = spawn(None, deadline, procs)
            setups.append(setup)
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            if code != 0:
                raise BenchError(f"set-up process exited {code}")
        setup, proc, rest = spawn(config, deadline, procs)
        setups.append(setup)
        result = finish(proc, rest, deadline)
    finally:
        for proc in procs:
            stop(proc)
        os.remove(config)

    detail = os.path.join(WORKDIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as handle:
        json.dump(dict(result, setups=setups, passes=len(result["pass_times"])), handle,
                  indent=1)
    env = result["env"]
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['pass_times'])} of {w.ops_per_pass} ops")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    records = result["records"]
    for r in records:
        if r["failure"]:
            print(f"FAILED {r['key']}: {r['failure']}")
    failed = sum(1 for r in records if r["failure"])
    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in result["metrics"].items()}
        print(f"traced pass {result['pass_times'][0]:.4f} s, untraced "
              f"{result['untraced_s']:.4f} s, {result['spans']} spans")
        notes = {}
    else:
        values, notes = end_to_end(w, result, setups)
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kuls benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(pools.WORKLOADS))
    parser.add_argument("--seed", type=int, default=pools.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted and unused: each workload runs a fixed number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
