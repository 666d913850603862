"""Byte-identity of the benchmark's ops with perfbench/expected.json.

Every pool op is replayed through kuls.cli.main and its stdout compared
with the recorded one: the invariants and compare ops of the large-prime,
ext-field and catalogue workloads, and all sixteen oracle ops (eight
algebras at n = 1 and n = 2), each on a DSL file written with --emit-dsl.
expected.json is only read.
"""
from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

from kuls.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_pools():
    path = os.path.join(PERFBENCH, "pools.py")
    spec = importlib.util.spec_from_file_location("perfbench_pools", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


with open(os.path.join(PERFBENCH, "expected.json"), encoding="utf-8") as f:
    EXPECTED = json.load(f)["ops"]
ALL_OPS = _load_pools().all_ops()
OPS = [op for op in ALL_OPS.values() if op["kind"] != "oracle"]
ORACLE_OPS = [op for op in ALL_OPS.values() if op["kind"] == "oracle"]


@pytest.mark.parametrize("op", OPS, ids=lambda op: op["key"])
def test_pool_op_stdout_matches_expected(op, capsys):
    assert main(op["argv"]) == 0
    assert capsys.readouterr().out == EXPECTED[op["key"]]["stdout"]


@pytest.mark.parametrize("op", ORACLE_OPS, ids=lambda op: op["key"])
def test_oracle_op_stdout_matches_expected(op, tmp_path, capsys):
    dsl = op["dsl"]
    assert main(["invariants", "--family", dsl["family"], "--params", dsl["params"],
                 "--field", dsl["field"], "--emit-dsl"]) == 0
    path = tmp_path / f"{dsl['name']}.kuls"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main([a.replace("{file}", str(path)) for a in op["argv"]]) == 0
    assert capsys.readouterr().out == EXPECTED[op["key"]]["stdout"]
