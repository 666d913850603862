"""Regenerate perfbench/expected.json, the expected output of every pool op.

Usage, from the repository root:

    python3 perfbench/make_expected.py

Each entry holds the exact stdout of the op and the list of checks it
passed against a source other than ``reynolds_sequence``:

* ``closed-form``: the dimensions stated in the README and the acceptance
  tests (Omega(n), A(1,n), D(m), Dprime(m) in characteristic 2, and
  dim N(n,m) = n(mn+1));
* ``brute-force``: dim T_n for every reported n >= 1 by enumerating all
  q^d elements with ``brute_force_kuelshammer``, where q^d <= BUDGET = 2^18;
* ``exhaustive``: oracle ops, whose output is itself the comparison of the
  linear method with exhaustive enumeration.

An entry with none of these is labelled ``seed-regression``: it only pins
the output of the code that defined the benchmark.  The script refuses to
write the table if any check fails.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pools  # noqa: E402
from kuls.cli import main as kuls_main  # noqa: E402
from kuls.dsl import parse_presentation  # noqa: E402
from kuls.families import FamilySpec, family_source  # noqa: E402
from kuls.gf import GF  # noqa: E402
from kuls.reynolds import brute_force_kuelshammer  # noqa: E402
from kuls.rewriting import build_table, complete  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
_FIELD = re.compile(r"GF\((\d+)(?:,(\d+))?\)")
BUDGET = 2 ** 18  # largest q^d enumerated by the brute-force check


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = kuls_main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}: {err.getvalue()}")
    return out.getvalue()


def _params(text: str) -> dict:
    return {k: int(v) for k, v in (item.split("=") for item in text.split(","))}


def closed_form(family: str, n: dict, p: int, doc: dict) -> list[str]:
    """Closed-form dimension checks that apply to this instance; raises on a mismatch."""
    rows = doc["reynolds"]
    t1_perp = rows[1]["dim_T_perp"] if len(rows) > 1 else None
    expect = {}
    if family == "N":
        expect["dim"] = n["n"] * (n["m"] * n["n"] + 1)
    if p == 2 and family == "Omega":
        expect.update(dim_center=n["n"] + 2, dim_socle=n["n"], t1_perp=n["n"] + 1)
    if p == 2 and family == "A" and n["p"] == 1:
        expect.update(dim_center=n["q"] + 2, dim_socle=n["q"], t1_perp=n["q"])
    if p == 2 and family in ("D", "Dprime"):
        expect.update(dim_center=n["m"] + 2,
                      t1_perp=n["m"] + 1 if family == "D" else n["m"])
    got = dict(doc, t1_perp=t1_perp)
    for key, value in expect.items():
        if got[key] != value:
            raise SystemExit(f"closed form {key} = {value} fails: got {got[key]}")
    return [f"closed-form: {', '.join(sorted(expect))}"] if expect else []


def brute_force(family: str, params: str, field: tuple[int, int], doc: dict) -> list[str]:
    gf = GF(*field)
    if gf.q ** doc["dim"] > BUDGET:
        return []
    spec = FamilySpec(family, _params(params), gf)
    at = build_table(complete(parse_presentation(family_source(spec))))
    rows = doc["reynolds"][1:]
    for row in rows:
        dim = brute_force_kuelshammer(at, row["n"], budget=BUDGET).dim
        if dim != row["dim_T"]:
            raise SystemExit(f"brute force dim T_{row['n']} = {dim}, "
                             f"reported {row['dim_T']}")
    return [f"brute-force: dim T_1..T_{rows[-1]['n']} over {gf.q}^{doc['dim']} elements"]


def invariants_entry(op: dict) -> dict:
    stdout = run(op["argv"])
    doc = json.loads(stdout)
    family, params, field = op["argv"][2], op["argv"][4], op["argv"][6]
    m = _FIELD.fullmatch(field)
    p, e = int(m.group(1)), int(m.group(2) or 1)
    checks = closed_form(family, _params(params), p, doc)
    checks += brute_force(family, params, (p, e), doc)
    return {"stdout": stdout, "checks": checks or ["seed-regression"]}


def compare_entry(op: dict) -> dict:
    stdout = run(op["argv"])
    first, p = op["argv"][1], int(op["argv"][4])
    n = int(re.search(r"=(\d+)\)", first).group(1))
    checks = []
    if p == 2:
        # both sides have center n+2 and T_1^perp dims n+1 vs n (closed forms)
        predicted = f"DISTINGUISHED at n=1 ({n + 1} ≠ {n}): not derived equivalent\n"
        if stdout != predicted:
            raise SystemExit(f"{op['key']}: {stdout!r} differs from {predicted!r}")
        checks.append("closed-form: T_1^perp dims n+1 vs n, equal centers")
    return {"stdout": stdout, "checks": checks or ["seed-regression"]}


def oracle_entry(op: dict, workdir: str) -> dict:
    dsl = op["dsl"]
    path = os.path.join(workdir, dsl["name"] + ".kuls")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(run(["invariants", "--family", dsl["family"], "--params",
                          dsl["params"], "--field", dsl["field"], "--emit-dsl"]))
    argv = [a.replace("{file}", path) for a in op["argv"]]
    return {"stdout": run(argv), "checks": ["exhaustive: the op compares the linear "
                                            "method with enumeration of all elements"]}


def main() -> int:
    entries = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for key, op in sorted(pools.all_ops().items()):
            if op["kind"] == "invariants":
                entries[key] = invariants_entry(op)
            elif op["kind"] == "compare":
                entries[key] = compare_entry(op)
            else:
                entries[key] = oracle_entry(op, workdir)
            print(f"{key}: {', '.join(entries[key]['checks'])}", flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump({"warmup": run(pools.WARMUP_ARGV), "ops": entries}, handle,
                  indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
