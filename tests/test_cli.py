"""End-to-end CLI tests: exit codes, output formats, JSON stability."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kuls import __version__, build_table, complete, parse_presentation
from kuls import cli, linalg, reynolds, rewriting, structure
from kuls.cli import main
from kuls.errors import ConsistencyFailure
from kuls.families import FamilySpec, family
from kuls.gf import GF
from kuls.linalg import contains
from kuls.reynolds import kuelshammer_space
from kuls.structure import commutator_space

DUAL = """algebra dual over GF(2) {
  vertices v;
  arrows {
    a: v -> v;
  }
  relations {
    a*a = 0;
  }
}
"""

OMEGA2_TEXT = """\
algebra Omega_2 over GF(2)
dim 10  center 4  socle 2  commutator 6
  n  dim T_n  dim T_n^perp
  0        6             4
  1        7             3
  2        8             2
  3        8             2
stabilized at n = 2"""

OMEGA2_PAYLOAD = {
    "name": "Omega_2",
    "field": {"p": 2, "e": 1},
    "dim": 10,
    "dim_center": 4,
    "dim_socle": 2,
    "dim_commutator": 2 * 3,  # dim - dim_center - dim_socle + dim(soc cap Z)
    "reynolds": [
        {"n": 0, "dim_T": 6, "dim_T_perp": 4},
        {"n": 1, "dim_T": 7, "dim_T_perp": 3},
        {"n": 2, "dim_T": 8, "dim_T_perp": 2},
        {"n": 3, "dim_T": 8, "dim_T_perp": 2},
    ],
    "stabilized_at": 2,
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- parse --


def test_parse_ok(tmp_path, capsys):
    path = _write(tmp_path, "dual.kuls", DUAL)
    assert main(["parse", path]) == 0
    out = capsys.readouterr().out
    assert out == "ok: dual over GF(2): 1 vertices, 1 arrows, 1 relations\n"


def test_parse_reports_diagnostics(tmp_path, capsys):
    text = DUAL.replace("a*a = 0;", "a*a + a*a = 0;\n    a*a*a = 0;")
    path = _write(tmp_path, "cancel.kuls", text)
    assert main(["parse", path]) == 1
    out = capsys.readouterr().out
    assert out == f"{path}:7:5: zero-relation: relation cancels to zero\n"


def test_parse_reports_each_relation_that_is_zero_without_a_traceback(tmp_path, capsys):
    path = _write(tmp_path, "zero.kuls", DUAL.replace("a*a = 0;", "a*a = 0;\n    0;\n    0 = 0;"))
    assert main(["parse", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == (f"{path}:8:5: zero-relation: relation cancels to zero\n"
                            f"{path}:9:5: zero-relation: relation cancels to zero\n")
    assert captured.err == ""


def test_parse_syntax_error(tmp_path, capsys):
    path = _write(tmp_path, "broken.kuls", "algebra x over GF(2);")
    assert main(["parse", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("DslSyntaxError: 1:21: expected {")


# -- invariants --


def test_invariants_family_text(capsys):
    rc = main(["invariants", "--family", "Omega", "--params", "n=2", "--char", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == OMEGA2_TEXT + "\n"
    assert captured.err.startswith("timing: Omega_2:")


def test_invariants_json_is_canonical_and_stable(capsys):
    argv = ["invariants", "--family", "Omega", "--params", "n=2", "--char", "2",
            "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert json.loads(first) == OMEGA2_PAYLOAD
    assert first == json.dumps(OMEGA2_PAYLOAD, sort_keys=True,
                               separators=(",", ":")) + "\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_invariants_from_file_matches_family(tmp_path, capsys):
    argv = ["invariants", "--family", "Omega", "--params", "n=2", "--char", "2",
            "--emit-dsl"]
    assert main(argv) == 0
    source = capsys.readouterr().out
    path = _write(tmp_path, "omega2.kuls", source)
    assert main(["invariants", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == OMEGA2_PAYLOAD


def test_invariants_file_field_conflict(tmp_path, capsys):
    path = _write(tmp_path, "dual.kuls", DUAL)
    assert main(["invariants", path, "--char", "3"]) == 1
    err = capsys.readouterr().err
    assert err == f"BadParameters: {path} declares GF(2); drop --char/--field\n"


def test_invariants_consistent_form_fallback_note(capsys):
    rc = main(["invariants", "--family", "D", "--params", "m=2", "--char", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert ("note: 0/1 socle values are not symmetrizing here; "
            "using a solved consistent form") in captured.err
    assert "stabilized at n = 2" in captured.out


def _spy(monkeypatch, fn, record):
    """Route every binding of fn in the loaded kuls modules through record(args);
    fn gets the args record returns, or the original ones if it returns None."""
    def spy(*args, **kwargs):
        return fn(*(record(args) or args), **kwargs)
    for name, mod in list(sys.modules.items()):
        if name == "kuls" or name.startswith("kuls."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, spy)


@pytest.mark.parametrize("name,params,fallback", [("Omega", "n=3", False), ("D", "m=3", True)])
def test_invariants_structure_space_costs(name, params, fallback, capsys, monkeypatch):
    """commutator_space runs 1 + rows times (+1 for the consistent_form fallback),
    the count perfbench/worker.py checks, and no elimination gets more than
    d*(|Q0|+|Q1|) rows, nor more than 2*d, the bound of row_space's chunks.
    No array reaching row_space has more than 2*d rows either."""
    k_calls, rref_rows, row_space_rows = [], [], []
    _spy(monkeypatch, structure.commutator_space, k_calls.append)
    _spy(monkeypatch, linalg.rref, lambda args: rref_rows.append(np.atleast_2d(args[1]).shape[0]))
    _spy(monkeypatch, linalg.row_space,
         lambda args: row_space_rows.append(np.atleast_2d(args[1]).shape[0]))
    assert main(["invariants", "--family", name, "--params", params, "--char", "2", "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert ("using a solved consistent form" in captured.err) == fallback
    assert len(k_calls) == 1 + len(payload["reynolds"]) + fallback
    quiver = family(FamilySpec(name, cli._parse_params(params), GF(2))).quiver
    assert 0 < max(rref_rows) <= payload["dim"] * (len(quiver.vertices) + len(quiver.arrows))
    assert max(rref_rows) <= 2 * payload["dim"]
    assert 0 < max(row_space_rows) <= 2 * payload["dim"]


@pytest.mark.parametrize("argv", [
    ["invariants", "--family", "Omega", "--params", "n=8", "--char", "2"],
    ["invariants", "--family", "D", "--params", "m=5", "--char", "2"],
    ["invariants", "--family", "N", "--params", "n=3,m=3", "--field", "GF(3,2)"],
    ["compare", "Omega(n=2)", "A(p=1,q=2)", "--char", "2"],
], ids=["Omega8-GF2", "D5-GF2", "N33-GF9", "compare"])
def test_invariants_and_compare_never_fold_the_full_table(argv, capsys, monkeypatch):
    """Each table is folded once, by build_table, over its generators and its
    closed words, fewer than its d rows; nothing later reads the full table,
    which would fold all d rows.  D(5) takes the consistent_form fallback."""
    folds = []
    _spy(monkeypatch, rewriting.fold, lambda args: folds.append((len(args[1]), args[4].size)))
    assert main(argv) == 0
    assert len(folds) == 1 + (argv[0] == "compare")
    assert all(rows < d for d, rows in folds)


def test_invariants_custom_psi_matches_fallback(capsys):
    base = ["invariants", "--family", "D", "--params", "m=2", "--char", "2", "--json"]
    assert main(base) == 0
    fallback = json.loads(capsys.readouterr().out)
    assert main(base + ["--psi", "a1*a1=1,b2*b1=1,a1*a1*a1=1"]) == 0
    captured = capsys.readouterr()
    assert "note:" not in captured.err
    assert json.loads(captured.out) == fallback


@pytest.mark.parametrize("flags,entry", [
    (["--params", "n=2,n=3"], "parameter 'n'"),
    (["--params", "n=2", "--psi", "a1=1,a1=2"], "psi entry 'a1'"),
], ids=["params", "psi"])
def test_invariants_rejects_a_repeated_key(capsys, flags, entry):
    assert main(["invariants", "--family", "Omega", "--char", "2"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"BadParameters: {entry} is given twice\n"


def test_invariants_bad_psi_entry(capsys):
    argv = ["invariants", "--family", "D", "--params", "m=2", "--char", "2",
            "--psi", "a1*a1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "BadParameters: cannot parse psi entry 'a1*a1'; expected WORD=COEFF\n"


def test_invariants_not_symmetric_is_exit_1(capsys):
    rc = main(["invariants", "--family", "Omega", "--params", "n=1", "--char", "3"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("NotSymmetric:")


NON_ADMISSIBLE = """algebra idem over GF(2) {
  vertices v;
  arrows { a: v -> v; }
  relations { a*a*a = a*a; }
}
"""


@pytest.mark.parametrize("psi", [[], ["--psi", "a=1"], ["--psi", "a*a=1"], ["--psi", "e_v=1,a=1"]])
def test_invariants_on_a_non_nilpotent_arrow_span_is_exit_1(tmp_path, capsys, psi):
    """a*a is a nonzero idempotent, so the words of length >= 1 do not span
    rad A: every form, the 0/1 one and each psi, stops at NotNilpotent."""
    path = _write(tmp_path, "idem.kuls", NON_ADMISSIBLE)
    assert main(["invariants", path] + psi) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("NotNilpotent: ")


def test_invariants_requires_an_input(capsys):
    assert main(["invariants", "--char", "2"]) == 1
    assert capsys.readouterr().err == "BadParameters: give a FILE or --family NAME\n"


def test_invariants_rejects_file_plus_family(tmp_path, capsys):
    path = _write(tmp_path, "dual.kuls", DUAL)
    rc = main(["invariants", path, "--family", "Omega", "--params", "n=1",
               "--char", "2"])
    assert rc == 1
    assert capsys.readouterr().err == "BadParameters: give a FILE or --family, not both\n"


def test_invariants_family_needs_a_field(capsys):
    assert main(["invariants", "--family", "Omega", "--params", "n=1"]) == 1
    err = capsys.readouterr().err
    assert err == "BadParameters: family inputs need --char or --field\n"


def test_invariants_wrong_family_params(capsys):
    assert main(["invariants", "--family", "A", "--params", "p=1", "--char", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "BadParameters: A takes parameters p, q (constraint: 1 <= p <= q)\n"


def test_invariants_malformed_param(capsys):
    rc = main(["invariants", "--family", "A", "--params", "p=x", "--char", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "BadParameters: cannot parse parameter 'p=x'; expected k=v\n"


def test_char_and_field_are_mutually_exclusive(capsys):
    rc = main(["invariants", "--family", "Omega", "--params", "n=1",
               "--char", "2", "--field", "GF(2)"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "BadParameters: --char and --field are mutually exclusive\n"


def test_invariants_over_an_extension_field(capsys):
    rc = main(["invariants", "--family", "Omega", "--params", "n=2",
               "--field", "GF(2,2)", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == {"p": 2, "e": 2}
    assert payload["reynolds"] == OMEGA2_PAYLOAD["reynolds"]


def test_unparseable_field_string(capsys):
    rc = main(["invariants", "--family", "Omega", "--params", "n=1",
               "--field", "gf(2)"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "BadParameters: cannot parse field 'gf(2)'; expected GF(p) or GF(p,e)\n"


def test_composite_char_is_rejected(capsys):
    assert main(["invariants", "--family", "Omega", "--params", "n=1",
                 "--char", "6"]) == 1
    assert capsys.readouterr().err.startswith("BadField:")


def test_missing_file_is_exit_1(tmp_path, capsys):
    rc = main(["invariants", str(tmp_path / "absent.kuls")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_internal_failures_are_exit_2(capsys, monkeypatch):
    def boom(at, form, max_n):
        raise ConsistencyFailure("psi drifted during the chain walk")

    monkeypatch.setattr(cli, "reynolds_sequence", boom)
    rc = main(["invariants", "--family", "Omega", "--params", "n=1", "--char", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConsistencyFailure: psi drifted during the chain walk" in err


# -- compare --


def test_compare_distinguished(capsys):
    rc = main(["compare", "Omega(n=2)", "A(p=1,q=2)", "--char", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "DISTINGUISHED at n=1 (3 ≠ 2): not derived equivalent\n"


def test_compare_inconclusive(capsys):
    rc = main(["compare", "D(m=2)", "Dprime(m=2)", "--char", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "INCONCLUSIVE: the computed Reynolds sequences coincide\n"


def test_compare_json(capsys):
    rc = main(["compare", "Omega(n=2)", "A(p=1,q=2)", "--char", "2", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == '{"dims":[3,2],"verdict":"distinguished","witness_n":1}\n'


def test_compare_json_inconclusive(capsys):
    rc = main(["compare", "D(m=2)", "Dprime(m=2)", "--char", "3", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == '{"dims":null,"verdict":"inconclusive","witness_n":null}\n'


def test_compare_family_inputs_need_a_field(capsys):
    assert main(["compare", "Omega(n=2)", "A(p=1,q=2)"]) == 1
    err = capsys.readouterr().err
    assert err == "BadParameters: family inputs need --char or --field\n"


def test_compare_file_inputs(tmp_path, capsys):
    paths = []
    for label in ("Omega(n=2)", "A(p=1,q=2)"):
        name, _, rest = label.partition("(")
        argv = ["invariants", "--family", name, "--params", rest.rstrip(")"),
                "--char", "2", "--emit-dsl"]
        assert main(argv) == 0
        paths.append(_write(tmp_path, f"{name}.kuls", capsys.readouterr().out))
    assert main(["compare", *paths]) == 0
    assert capsys.readouterr().out.startswith("DISTINGUISHED at n=1")


def test_compare_per_input_psi(capsys):
    rc = main(["compare", "D(m=2)", "Dprime(m=2)", "--char", "2",
               "--psi1", "a1*a1=1,b2*b1=1,a1*a1*a1=1", "--json"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "note:" not in captured.err  # input 1 never falls back
    assert json.loads(captured.out)["verdict"] == "distinguished"


# -- oracle --


def test_oracle_agrees(tmp_path, capsys):
    path = _write(tmp_path, "dual.kuls", DUAL)
    assert main(["oracle", path, "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert out == ("ok: T_1 agrees (dim 1) by exhaustive enumeration "
                   "over 2^2 vectors\n")


def test_oracle_budget_exceeded(tmp_path, capsys):
    argv = ["invariants", "--family", "Omega", "--params", "n=2", "--char", "2",
            "--emit-dsl"]
    assert main(argv) == 0
    path = _write(tmp_path, "omega2.kuls", capsys.readouterr().out)
    assert main(["oracle", path, "--n", "1", "--budget", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("BudgetExceeded:")
    assert "2**10" in err


@pytest.mark.parametrize("n,budget,projected", [(6, 2**60, "2**54"), (8, 2**100, "2**88")],
                         ids=["d54", "d88"])
def test_oracle_memo_beyond_any_address_space_is_budget_exceeded(tmp_path, capsys, n,
                                                                 budget, projected):
    # within the element budget, but the q**d-byte memo is 16 PiB (d = 54) or
    # past the int64 codes (d = 88)
    argv = ["invariants", "--family", "Omega", "--params", f"n={n}", "--char", "2",
            "--emit-dsl"]
    assert main(argv) == 0
    path = _write(tmp_path, f"omega{n}.kuls", capsys.readouterr().out)
    assert main(["oracle", path, "--n", "1", "--budget", str(budget)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("BudgetExceeded:")
    assert projected in err and "Traceback" not in err


def _raise_memory_error(rs):
    raise MemoryError()


def _allocate_past_any_address_space(rs):
    return np.empty(2**60, dtype=np.uint8)  # numpy raises its MemoryError subclass


@pytest.mark.parametrize("exhausted", [_raise_memory_error, _allocate_past_any_address_space],
                         ids=["MemoryError", "numpy"])
@pytest.mark.parametrize("argv", [
    ["invariants", "--family", "Omega", "--params", "n=2", "--char", "2"],
    ["compare", "Omega(n=2)", "A(p=1,q=2)", "--char", "2"],
], ids=["invariants", "compare"])
def test_memory_error_is_one_budget_exceeded_line(argv, exhausted, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_table", exhausted)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.err.startswith("BudgetExceeded: out of memory")


def test_oracle_mismatch_is_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "kuelshammer_space",
                        lambda at, n: kuelshammer_space(at, 0))
    path = _write(tmp_path, "dual.kuls", DUAL)
    assert main(["oracle", path, "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "InvariantViolation: T_1 mismatch: linear dim 0, brute dim 1\n"


def test_oracle_rejects_a_member_set_that_is_not_a_subspace(tmp_path, capsys, monkeypatch):
    """T_1 minus one nonzero member still spans T_1; only the count shows it."""
    argv = ["invariants", "--family", "Omega", "--params", "n=2", "--char", "2",
            "--emit-dsl"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    path = _write(tmp_path, "omega2.kuls", text)
    at = build_table(complete(parse_presentation(text)))
    t = kuelshammer_space(at, 1)
    assert t.dim >= 2
    weights = 2 ** np.arange(at.dim)  # over GF(2) the code of x is its bitmask
    dropped = at.gf.add(t.basis[0], t.basis[1]) @ weights  # a nonzero member, not a basis row
    outside = next(e for e in np.eye(at.dim, dtype=np.int64)
                   if not contains(commutator_space(at), e)) @ weights
    real = reynolds._code_maps

    def code_maps(at, k):
        sq, inside = real(at, k)
        sq[dropped] = outside  # its square leaves K(A), so T_1 loses it alone
        return sq, inside

    monkeypatch.setattr(reynolds, "_code_maps", code_maps)
    assert main(["oracle", path, "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvariantViolation: T_1 has ")
    assert "it is not a subspace" in captured.err


# -- hostile inputs, each in a fresh interpreter so that a hang shows as a timeout --

HUGE_P, HUGE_E = "GF(1000000000000000003)", "GF(3,1000000000)"
ONES = "1" * 5000  # past Python's 4300-digit limit on int() of a string
OMEGA1 = ["invariants", "--family", "Omega", "--params", "n=1"]


@pytest.mark.parametrize("argv,expected", [
    (["parse", "huge_p.kuls"], "BadField: field size 1000000000000000003**1 exceeds 65536"),
    (["parse", "huge_e.kuls"], "BadField: field size 3**1000000000 exceeds 65536"),
    (["invariants", "huge_p.kuls"], "BadField: field size 1000000000000000003**1"),
    (OMEGA1 + ["--field", HUGE_P], "BadField: field size 1000000000000000003**1"),
    (OMEGA1 + ["--field", HUGE_E], "BadField: field size 3**1000000000 exceeds"),
    (["invariants", "--family", "Omega", "--params", "n=--5", "--char", "2"],
     "BadParameters: cannot parse parameter 'n=--5'; expected k=v"),
    (OMEGA1 + ["--char", "2", "--psi", "a1*a1=--1"],
     "BadParameters: cannot parse psi entry 'a1*a1=--1'; expected WORD=COEFF"),
    (["parse", "long_p.kuls"], "DslSyntaxError: 1:22: prime has 5000 digits, too many to read"),
    (["parse", "long_coeff.kuls"],
     "DslSyntaxError: 7:5: coefficient has 5000 digits, too many to read"),
    (["invariants", "--family", "Omega", "--params", f"n={ONES}", "--char", "2"],
     "BadParameters: parameter 'n' has 5000 digits, too many to read"),
    (OMEGA1 + ["--char", "2", "--psi", f"a1*b1*b2={ONES}"],
     "BadParameters: psi entry 'a1*b1*b2' has 5000 digits, too many to read"),
    (OMEGA1 + ["--field", f"GF({ONES})"],
     "BadParameters: field characteristic has 5000 digits, too many to read"),
], ids=["parse-huge-p", "parse-huge-e", "file-huge-p", "field-huge-p", "field-huge-e",
        "params-double-minus", "psi-double-minus", "parse-long-p", "parse-long-coeff",
        "params-long", "psi-long", "field-long-p"])
def test_hostile_inputs_exit_1_without_traceback(tmp_path, argv, expected):
    """Exit 1 with the KulsError's class name and message on stderr, nothing
    on stdout, and never a traceback or a hang."""
    _write(tmp_path, "huge_p.kuls", DUAL.replace("GF(2)", HUGE_P))
    _write(tmp_path, "huge_e.kuls", DUAL.replace("GF(2)", "GF(3^1000000000)"))
    _write(tmp_path, "long_p.kuls", DUAL.replace("GF(2)", f"GF({ONES})"))
    _write(tmp_path, "long_coeff.kuls", DUAL.replace("a*a = 0", f"{ONES}*a*a = 0"))
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-m", "kuls.cli", *argv], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=str(root / "src")),
                            capture_output=True, text=True, timeout=20)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(expected)
    assert "Traceback" not in result.stdout + result.stderr


# -- plumbing --


def test_families_listing(capsys):
    assert main(["families"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[0] == ("A(p, q): 1 <= p <= q; "
                        "two oriented cycles sharing one vertex; standard symmetric")
    for line, name in zip(lines, ("A", "Lambda", "Gamma", "Tpqr", "Tpq",
                                  "Tstar", "Omega", "N", "D", "Dprime")):
        assert line.startswith(f"{name}(")


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["parse"], ["invariants", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err


def test_one_parser_serves_every_main_call(capsys):
    argv = ["invariants", "--family", "Omega", "--params", "n=2", "--char", "2", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--bogus"])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


def test_invariants_renders_a_file_as_dsl_only_for_emit_dsl(tmp_path, capsys, monkeypatch):
    path, rendered, real = _write(tmp_path, "dual.kuls", DUAL), [], cli.emit

    def spy(pres):
        rendered.append(pres.name)
        return real(pres)

    monkeypatch.setattr(cli, "emit", spy)
    assert main(["invariants", path, "--json"]) == 0
    assert rendered == []
    capsys.readouterr()
    assert main(["invariants", path, "--emit-dsl"]) == 0
    assert rendered == ["dual"]
    assert capsys.readouterr().out == real(parse_presentation(DUAL))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"kuls {__version__}\n"
