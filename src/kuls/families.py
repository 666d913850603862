"""Built-in presentations of the classified symmetric algebra families.

Each generator emits DSL source and parses it, so the one construction
path through the parser is exercised for every instance.  Quiver
conventions: the shared vertex of a clique of cycles is c, cycle arrows
are lettered a, b, g, s with 1-based indices, and intermediate vertices
are u (a-cycle), w (b-cycle), z (g-cycle).
"""
from __future__ import annotations

from dataclasses import dataclass

from .dsl import parse_presentation
from .errors import BadParameters
from .gf import GF
from .presentation import Presentation, render

__all__ = [
    "FamilySpec",
    "FamilyInfo",
    "FAMILY_NAMES",
    "family",
    "family_source",
    "list_families",
]


@dataclass(frozen=True)
class FamilySpec:
    """A family name, its integer parameters, and the coefficient field."""

    name: str
    params: dict
    gf: GF

    def label(self) -> str:
        info = _INFO[self.name]
        return self.name + "".join(f"_{self.params[k]}" for k in info.param_names)


@dataclass(frozen=True)
class FamilyInfo:
    name: str
    param_names: tuple[str, ...]
    constraint: str
    note: str


_CATALOGUE = (
    FamilyInfo("A", ("p", "q"), "1 <= p <= q",
               "two oriented cycles sharing one vertex; standard symmetric"),
    FamilyInfo("Lambda", ("m",), "m >= 2",
               "loop and m-cycle sharing one vertex; standard symmetric"),
    FamilyInfo("Gamma", ("n",), "n >= 1",
               "two 2-cycles and an n-cycle sharing one vertex; standard symmetric"),
    FamilyInfo("Tpqr", ("p", "q", "r"), "2 <= p <= q <= r",
               "three cycles sharing one vertex; a trivial extension, symmetric"),
    FamilyInfo("Tpq", ("p", "q"), "1 <= p <= q",
               "two parallel paths closed by two return arrows; a trivial extension, symmetric"),
    FamilyInfo("Tstar", ("r",), "r >= 2",
               "two 2-cycles and an r-cycle with a doubled start; a trivial extension, symmetric"),
    FamilyInfo("Omega", ("n",), "n >= 1",
               "loop and n-cycle with deformed socle; symmetric only in characteristic 2"),
    FamilyInfo("N", ("n", "m"), "n >= 1 and m >= 1",
               "symmetric Nakayama algebra on an n-cycle, nilpotency degree mn+1"),
    FamilyInfo("D", ("m",), "m >= 2",
               "socle deformation of Dprime; the 0/1 socle functional is not "
               "symmetrizing here, use consistent_form or psi values"),
    FamilyInfo("Dprime", ("m",), "m >= 2",
               "loop and m-cycle; the standard form of D"),
)
_INFO = {info.name: info for info in _CATALOGUE}
FAMILY_NAMES = tuple(info.name for info in _CATALOGUE)


def list_families() -> tuple[FamilyInfo, ...]:
    """The catalogue of the ten built-in families."""
    return _CATALOGUE


def _path(letter: str, lo: int, hi: int) -> str:
    return "*".join(f"{letter}{i}" for i in range(lo, hi + 1))


def _join(*segments: str) -> str:
    return "*".join(s for s in segments if s)


def _cycle(letter: str, length: int, hub: str, mid: str):
    """Arrow declarations and intermediate vertices of an oriented cycle at hub."""
    verts = [f"{mid}{i}" for i in range(1, length)]
    stops = [hub] + verts + [hub]
    decls = [f"{letter}{i}: {stops[i - 1]} -> {stops[i]};" for i in range(1, length + 1)]
    return decls, verts


def _require(cond: bool, name: str, constraint: str):
    if not cond:
        raise BadParameters(f"{name} requires {constraint}")


def _src_A(label: str, gf: GF, p: int, q: int) -> str:
    _require(1 <= p <= q, "A", "1 <= p <= q")
    da, vu = _cycle("a", p, "c", "u")
    db, vw = _cycle("b", q, "c", "w")
    af, bf = _path("a", 1, p), _path("b", 1, q)
    rels = [f"{af}*{bf} = {bf}*{af};", f"a{p}*a1 = 0;", f"b{q}*b1 = 0;"]
    for i in range(2, p):
        rels.append(f"{_join(_path('a', i, p), bf, _path('a', 1, i))} = 0;")
    for j in range(2, q):
        rels.append(f"{_join(_path('b', j, q), af, _path('b', 1, j))} = 0;")
    return render(label, gf, ["c"] + vu + vw, da + db, rels)


def _src_Lambda(label: str, gf: GF, m: int) -> str:
    _require(m >= 2, "Lambda", "m >= 2")
    da, _ = _cycle("a", 1, "c", "u")
    db, vw = _cycle("b", m, "c", "w")
    bf = _path("b", 1, m)
    rels = [f"a1*a1 = {bf}*{bf};", "a1*b1 = 0;", f"b{m}*a1 = 0;"]
    for j in range(2, m):
        rels.append(f"{_join(_path('b', j, m), bf, _path('b', 1, j))} = 0;")
    return render(label, gf, ["c"] + vw, da + db, rels)


def _src_Gamma(label: str, gf: GF, n: int) -> str:
    _require(n >= 1, "Gamma", "n >= 1")
    da, vu = _cycle("a", 2, "c", "u")
    db, vw = _cycle("b", 2, "c", "w")
    dg, vz = _cycle("g", n, "c", "z")
    gf2 = _path("g", 1, n)
    rels = [f"a1*a2 = {gf2}*{gf2};", f"b1*b2 = {gf2}*{gf2};",
            "a2*g1 = 0;", "b2*g1 = 0;", f"g{n}*a1 = 0;", f"g{n}*b1 = 0;",
            "a2*b1 = 0;", "b2*a1 = 0;"]
    for j in range(2, n):
        rels.append(f"{_join(_path('g', j, n), gf2, _path('g', 1, j))} = 0;")
    return render(label, gf, ["c"] + vu + vw + vz, da + db + dg, rels)


def _src_Tpqr(label: str, gf: GF, p: int, q: int, r: int) -> str:
    _require(2 <= p <= q <= r, "Tpqr", "2 <= p <= q <= r")
    da, vu = _cycle("a", p, "c", "u")
    db, vw = _cycle("b", q, "c", "w")
    dg, vz = _cycle("g", r, "c", "z")
    af, bf, cf = _path("a", 1, p), _path("b", 1, q), _path("g", 1, r)
    rels = [f"{af} = {bf};", f"{bf} = {cf};",
            f"b{q}*a1 = 0;", f"g{r}*a1 = 0;", f"a{p}*b1 = 0;",
            f"g{r}*b1 = 0;", f"a{p}*g1 = 0;", f"b{q}*g1 = 0;"]
    for i in range(2, p):
        rels.append(f"{_join(_path('a', i, p), _path('a', 1, i))} = 0;")
    for j in range(2, q):
        rels.append(f"{_join(_path('b', j, q), _path('b', 1, j))} = 0;")
    for k in range(2, r):
        rels.append(f"{_join(_path('g', k, r), _path('g', 1, k))} = 0;")
    return render(label, gf, ["c"] + vu + vw + vz, da + db + dg, rels)


def _src_Tpq(label: str, gf: GF, p: int, q: int) -> str:
    _require(1 <= p <= q, "Tpq", "1 <= p <= q")
    vx = [f"x{i}" for i in range(1, p)]
    vy = [f"y{j}" for j in range(1, q)]
    astops = ["t"] + vx + ["u"]
    bstops = ["t"] + vy + ["u"]
    da = [f"a{i}: {astops[i - 1]} -> {astops[i]};" for i in range(1, p + 1)]
    db = [f"b{j}: {bstops[j - 1]} -> {bstops[j]};" for j in range(1, q + 1)]
    af, bf = _path("a", 1, p), _path("b", 1, q)
    rels = [f"{af}*g = {bf}*s;", f"g*{af} = s*{bf};",
            f"a{p}*s = 0;", "s*a1 = 0;", f"b{q}*g = 0;", "g*b1 = 0;"]
    for i in range(2, p):
        rels.append(f"{_join(_path('a', i, p), 'g', _path('a', 1, i))} = 0;")
    for j in range(2, q):
        rels.append(f"{_join(_path('b', j, q), 's', _path('b', 1, j))} = 0;")
    arrows = da + db + ["g: u -> t;", "s: u -> t;"]
    return render(label, gf, ["t"] + vx + vy + ["u"], arrows, rels)


def _src_Tstar(label: str, gf: GF, r: int) -> str:
    _require(r >= 2, "Tstar", "r >= 2")
    da, _ = _cycle("a", 2, "c", "va")
    db, _ = _cycle("b", 2, "c", "vb")
    dg, vz = _cycle("g", r, "c", "z")
    s2_target = "z2" if r >= 3 else "c"
    ds = ["s1: c -> vs;", f"s2: vs -> {s2_target};"]
    cf = _path("g", 1, r)
    rels = [f"a1*a2 = {cf};", f"b1*b2 = {cf};", "g1*g2 = s1*s2;",
            f"g{r}*a1 = 0;", "b2*a1 = 0;", f"g{r}*b1 = 0;", "a2*b1 = 0;",
            "a2*g1 = 0;", "a2*s1 = 0;", "b2*g1 = 0;", "b2*s1 = 0;",
            "a2*a1*a2 = 0;", "b2*b1*b2 = 0;",
            f"{_join(_path('g', 2, r), 's1')} = 0;",
            f"{_join('s2', _path('g', 3, r), 'g1')} = 0;"]
    if r == 2:
        # s2 returns to c, so the mixed products through c exist and vanish
        rels += ["s2*a1 = 0;", "s2*b1 = 0;"]
    for k in range(3, r):
        rels.append(f"{_join(_path('g', k, r), _path('g', 1, k))} = 0;")
    verts = ["c", "va1", "vb1"] + vz + ["vs"]
    return render(label, gf, verts, da + db + dg + ds, rels)


def _src_Omega(label: str, gf: GF, n: int) -> str:
    _require(n >= 1, "Omega", "n >= 1")
    da, _ = _cycle("a", 1, "c", "u")
    db, vw = _cycle("b", n, "c", "w")
    bf = _path("b", 1, n)
    rels = [f"a1*{bf} + {bf}*a1 = 0;", f"a1*a1 = a1*{bf};", f"b{n}*b1 = 0;"]
    for j in range(2, n):
        rels.append(f"{_join(_path('b', j, n), 'a1', _path('b', 1, j))} = 0;")
    return render(label, gf, ["c"] + vw, da + db, rels)


def _src_N(label: str, gf: GF, n: int, m: int) -> str:
    """Symmetric Nakayama algebra on the n-cycle a_i: z_i -> z_{i+1}.

    The relation for vertex i sets the path of length mn+1 that starts
    with a_i to zero.  The basis is the paths of length 0..mn, so
    dim = n(mn+1); the socle at vertex i is the length-mn cycle at i.
    """
    _require(n >= 1 and m >= 1, "N", "n >= 1 and m >= 1")
    verts = [f"z{i}" for i in range(1, n + 1)]
    da = [f"a{i}: z{i} -> z{i % n + 1};" for i in range(1, n + 1)]
    rels = []
    for i in range(1, n + 1):
        cyc = "*".join(f"a{(i - 1 + k) % n + 1}" for k in range(n))
        rels.append("*".join([cyc] * m + [f"a{i}"]) + " = 0;")
    return render(label, gf, verts, da, rels)


def _d_arrows(m: int):
    da, _ = _cycle("a", 1, "c", "u")
    db, vw = _cycle("b", m, "c", "w")
    return da + db, ["c"] + vw


def _src_D(label: str, gf: GF, m: int) -> str:
    _require(m >= 2, "D", "m >= 2")
    arrows, verts = _d_arrows(m)
    bf = _path("b", 1, m)
    rels = [f"a1*a1 = {bf};", f"b{m}*b1 = b{m}*a1*b1;"]
    for i in range(1, m + 1):
        rels.append(f"{_join(_path('b', i, m), 'a1', _path('b', 1, i))} = 0;")
    return render(label, gf, verts, arrows, rels)


def _src_Dprime(label: str, gf: GF, m: int) -> str:
    _require(m >= 2, "Dprime", "m >= 2")
    arrows, verts = _d_arrows(m)
    bf = _path("b", 1, m)
    rels = [f"a1*a1 = {bf};", f"b{m}*b1 = 0;"]
    for i in range(2, m):
        rels.append(f"{_join(_path('b', i, m), 'a1', _path('b', 1, i))} = 0;")
    return render(label, gf, verts, arrows, rels)


_EMITTERS = {
    "A": _src_A,
    "Lambda": _src_Lambda,
    "Gamma": _src_Gamma,
    "Tpqr": _src_Tpqr,
    "Tpq": _src_Tpq,
    "Tstar": _src_Tstar,
    "Omega": _src_Omega,
    "N": _src_N,
    "D": _src_D,
    "Dprime": _src_Dprime,
}


def family_source(spec: FamilySpec) -> str:
    """The generated DSL source for a family instance."""
    info = _INFO.get(spec.name)
    if info is None:
        raise BadParameters(
            f"unknown family {spec.name!r}; available: {', '.join(FAMILY_NAMES)}")
    missing = [k for k in info.param_names if k not in spec.params]
    extra = [k for k in spec.params if k not in info.param_names]
    if missing or extra:
        raise BadParameters(
            f"{spec.name} takes parameters {', '.join(info.param_names)} "
            f"(constraint: {info.constraint})")
    args = [int(spec.params[k]) for k in info.param_names]
    return _EMITTERS[spec.name](spec.label(), spec.gf, *args)


def family(spec: FamilySpec) -> Presentation:
    """Build and validate the presentation of one family instance."""
    return parse_presentation(family_source(spec))
