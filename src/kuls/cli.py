"""Command line front end: parse, analyze, compare, and cross-check algebras."""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass

from . import __version__
from .dsl import parse_presentation
from .errors import (
    BadParameters,
    ConsistencyFailure,
    InvariantViolation,
    KulsError,
    NotSymmetric,
)
from .families import FAMILY_NAMES, FamilySpec, family_source, list_families
from .form import SymmetrizingForm, canonical_form, consistent_form, custom_form
from .gf import GF
from .presentation import Presentation, emit, field_str, validate
from .rewriting import AlgebraTable, build_table, complete
from .reynolds import ReynoldsReport, Verdict, brute_force_kuelshammer, compare, \
    kuelshammer_space, reynolds_sequence

__all__ = ["AnalysisDocument", "main"]

_FIELD_RE = re.compile(r"GF\((\d+)(?:,(\d+))?\)\Z")
_FAMILY_RE = re.compile(r"([A-Za-z]\w*)\((.*)\)\Z")


@dataclass(frozen=True)
class AnalysisDocument:
    """A rendered analysis of the Reynolds report."""

    report: ReynoldsReport

    def json_payload(self) -> dict:
        rep = self.report
        return {
            "name": rep.name,
            "field": rep.gf.field_json(),
            "dim": rep.dim,
            "dim_center": rep.dim_center,
            "dim_socle": rep.dim_socle,
            "dim_commutator": rep.dim_commutator,
            "reynolds": [
                {"n": r.n, "dim_T": r.dim_t, "dim_T_perp": r.dim_t_perp}
                for r in rep.rows
            ],
            "stabilized_at": rep.stabilized_at,
        }

    def text(self) -> str:
        rep = self.report
        lines = [f"algebra {rep.name} over {field_str(rep.gf)}",
                 f"dim {rep.dim}  center {rep.dim_center}  socle {rep.dim_socle}"
                 f"  commutator {rep.dim_commutator}",
                 "  n  dim T_n  dim T_n^perp"]
        for r in rep.rows:
            lines.append(f"{r.n:3d}  {r.dim_t:7d}  {r.dim_t_perp:12d}")
        lines.append(f"stabilized at n = {rep.stabilized_at}")
        return "\n".join(lines)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parse_field(text: str) -> GF:
    m = _FIELD_RE.match(text)
    if not m:
        raise BadParameters(f"cannot parse field {text!r}; expected GF(p) or GF(p,e)")
    return GF(_int(m.group(1), "field characteristic"), _int(m.group(2) or "1", "field degree"))


def _int(text: str, what: str) -> int:
    """int(text) for decimal digits, BadParameters past sys.get_int_max_str_digits()."""
    try:
        return int(text)
    except ValueError:
        raise BadParameters(f"{what} has {len(text)} digits, too many to read") from None


def _field_arg(args) -> GF | None:
    if args.char is not None and args.field is not None:
        raise BadParameters("--char and --field are mutually exclusive")
    if args.char is not None:
        return GF(args.char)
    if args.field is not None:
        return _parse_field(args.field)
    return None


def _parse_params(text: str, entry: str = "parameter", form: str = "k=v") -> dict:
    """KEY=INT,... with INT an optional minus sign and decimal digits, as int() reads them."""
    values = {}
    for item in text.split(","):
        key, eq, value = item.partition("=")
        if not eq or not value.removeprefix("-").isdecimal():
            raise BadParameters(f"cannot parse {entry} {item!r}; expected {form}")
        key = key.strip()
        if key in values:
            raise BadParameters(f"{entry} {key!r} is given twice")
        values[key] = _int(value, f"{entry} {key!r}")
    return values


def _family(name: str, params: str | None, gf: GF | None) -> tuple[str, str]:
    """The DSL source and the label of a family instance, params k=v,... ."""
    if gf is None:
        raise BadParameters("family inputs need --char or --field")
    spec = FamilySpec(name, _parse_params(params) if params else {}, gf)
    return family_source(spec), spec.label()


def _load(source: str, gf: GF | None) -> Presentation:
    """A family instance Name(k=v,...) if it matches, otherwise a file path."""
    m = _FAMILY_RE.match(source)
    if m and m.group(1) in FAMILY_NAMES:
        return parse_presentation(_family(m.group(1), m.group(2), gf)[0])
    with open(source, encoding="utf-8") as handle:
        text = handle.read()
    pres = parse_presentation(text)
    if gf is not None and (gf.p, gf.e) != (pres.gf.p, pres.gf.e):
        raise BadParameters(
            f"{source} declares {field_str(pres.gf)}; drop --char/--field")
    return pres


def _pick_form(at: AlgebraTable, psi: dict | None) -> SymmetrizingForm:
    """The 0/1 socle form, falling back to a solved form when it is rejected."""
    if psi:
        return custom_form(at, psi)
    try:
        return canonical_form(at)
    except NotSymmetric as first:
        try:
            form = consistent_form(at)
        except NotSymmetric:
            raise first from None
        print("note: 0/1 socle values are not symmetrizing here; "
              "using a solved consistent form", file=sys.stderr)
        return form


def _analyze(pres: Presentation, source: str, args, psi: str | None) -> AnalysisDocument:
    """The report of pres under the psi values WORD=COEFF,... if given (see _pick_form)."""
    psi_values = _parse_params(psi, "psi entry", "WORD=COEFF") if psi else None
    start = time.perf_counter()
    at = build_table(complete(pres, degree_bound=args.degree_bound))
    form = _pick_form(at, psi_values)
    report = reynolds_sequence(at, form, max_n=args.max_n)
    print(f"timing: {source}: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return AnalysisDocument(report)


def cmd_parse(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    pres = parse_presentation(text)
    diags = validate(pres)
    for d in diags:
        print(f"{args.file}:{d.line}:{d.col}: {d.code}: {d.message}")
    if diags:
        return 1
    q = pres.quiver
    print(f"ok: {pres.name} over {field_str(pres.gf)}: "
          f"{len(q.vertices)} vertices, {len(q.arrows)} arrows, "
          f"{len(pres.relations)} relations")
    return 0


def cmd_invariants(args) -> int:
    gf = _field_arg(args)
    if args.family is not None:
        if args.file is not None:
            raise BadParameters("give a FILE or --family, not both")
        source_text, source = _family(args.family, args.params, gf)
        pres = parse_presentation(source_text)
    elif args.file is not None:
        pres, source_text, source = _load(args.file, gf), None, args.file
    else:
        raise BadParameters("give a FILE or --family NAME")
    if args.emit_dsl:
        sys.stdout.write(source_text or emit(pres))
        return 0
    doc = _analyze(pres, source, args, args.psi)
    print(_dump(doc.json_payload()) if args.json else doc.text())
    return 0


def _render_verdict(verdict: Verdict) -> str:
    if verdict.verdict == "distinguished":
        da, db = verdict.dims
        return (f"DISTINGUISHED at n={verdict.witness_n} ({da} ≠ {db}): "
                "not derived equivalent")
    return "INCONCLUSIVE: the computed Reynolds sequences coincide"


def cmd_compare(args) -> int:
    gf = _field_arg(args)
    docs = []
    for source, psi_text in ((args.input1, args.psi1), (args.input2, args.psi2)):
        docs.append(_analyze(_load(source, gf), source, args, psi_text))
    verdict = compare(docs[0].report, docs[1].report)
    if args.json:
        dims = list(verdict.dims) if verdict.dims else None
        print(_dump({"verdict": verdict.verdict, "witness_n": verdict.witness_n,
                     "dims": dims}))
    else:
        print(_render_verdict(verdict))
    return 0


def cmd_oracle(args) -> int:
    pres = _load(args.file, None)
    at = build_table(complete(pres, degree_bound=args.degree_bound))
    linear = kuelshammer_space(at, args.n)
    brute = brute_force_kuelshammer(at, args.n, budget=args.budget)
    if linear != brute:
        raise InvariantViolation(
            f"T_{args.n} mismatch: linear dim {linear.dim}, brute dim {brute.dim}")
    print(f"ok: T_{args.n} agrees (dim {linear.dim}) by exhaustive enumeration "
          f"over {at.gf.q}^{at.dim} vectors")
    return 0


def cmd_families(args) -> int:
    for info in list_families():
        params = ", ".join(info.param_names)
        print(f"{info.name}({params}): {info.constraint}; {info.note}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for invariant violations
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub, max_n_default: int = 8):
    sub.add_argument("--char", type=int, help="prime field shorthand for --field GF(p)")
    sub.add_argument("--field", help="coefficient field, GF(p) or GF(p,e)")
    sub.add_argument("--max-n", type=int, default=max_n_default, dest="max_n")
    sub.add_argument("--degree-bound", type=int, default=50, dest="degree_bound")
    sub.add_argument("--json", action="store_true")


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kuls", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kuls {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_parse = subs.add_parser("parse", help="validate a presentation file")
    p_parse.add_argument("file")
    p_parse.set_defaults(func=cmd_parse)

    p_inv = subs.add_parser("invariants", help="compute the Reynolds ideal sequence")
    p_inv.add_argument("file", nargs="?", default=None)
    p_inv.add_argument("--family", choices=FAMILY_NAMES)
    p_inv.add_argument("--params", help="family parameters, k=v,...")
    p_inv.add_argument("--psi", help="symmetrizing values, WORD=COEFF,...")
    p_inv.add_argument("--emit-dsl", action="store_true", dest="emit_dsl")
    _add_common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_cmp = subs.add_parser("compare", help="compare two Reynolds sequences")
    p_cmp.add_argument("input1", help="presentation file or Family(k=v,...)")
    p_cmp.add_argument("input2")
    p_cmp.add_argument("--psi1", help="symmetrizing values for input 1")
    p_cmp.add_argument("--psi2", help="symmetrizing values for input 2")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_orc = subs.add_parser("oracle", help="cross-check T_n by exhaustive enumeration")
    p_orc.add_argument("file")
    p_orc.add_argument("--n", type=int, required=True)
    p_orc.add_argument("--budget", type=int, default=2 ** 20)
    p_orc.add_argument("--degree-bound", type=int, default=50, dest="degree_bound")
    p_orc.set_defaults(func=cmd_oracle)

    p_fam = subs.add_parser("families", help="list the built-in families")
    p_fam.set_defaults(func=cmd_families)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvariantViolation, ConsistencyFailure) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KulsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        detail = f" ({exc})" if str(exc) else ""
        print(f"BudgetExceeded: out of memory{detail}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
