"""Property tests on drawn presentations: the radical proved on the closed
words against the d-wide loop, and the brute-force T_n against the chain."""
from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from kuls import (GF, brute_force_kuelshammer, build_table, complete,  # noqa: E402
                  kuelshammer_space, parse_presentation, radical, socle)
from kuls.errors import NotNilpotent  # noqa: E402
from kuls.presentation import _coeff_str, field_str  # noqa: E402
from oracles import reference_radical  # noqa: E402

FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)]


def _power_relation(gf: GF, loop: str, k: int, j: int, c: int) -> str:
    """loop**k = c * loop**j, or loop**k = 0 for c = 0."""
    rhs = f"{_coeff_str(gf, c)}*{'*'.join([loop] * j)}" if c else "0"
    return f"{'*'.join([loop] * k)} = {rhs};"


@st.composite
def loop_presentations(draw):
    """A loop a at v with a**k = c a**j, k > j >= 2, and with a second vertex
    w, arrows b: v -> w and r: w -> v with b*r = 0 and a loop d at w with
    d**k' = c' d**j' and d*r = 0.  a is nilpotent iff c = 0: else a**j is a
    basis word and a**(j + n(k - j)) = c**n a**j.  So J, the span of the
    words of length >= 1, is rad A iff every c is 0, and a nonzero c' alone
    leaves J cap e_w A e_w, and nothing at v, non-nilpotent."""
    two, gf = draw(st.booleans()), draw(st.sampled_from(FIELDS))

    def power(loop):
        k = draw(st.integers(3, 6))
        return _power_relation(gf, loop, k, draw(st.integers(2, k - 1)),
                               draw(st.integers(0, gf.q - 1)))

    vertices, arrows, relations = ["v"], ["a: v -> v;"], [power("a")]
    if two:
        vertices.append("w")
        arrows += ["b: v -> w;", "r: w -> v;", "d: w -> w;"]
        relations += ["b*r = 0;", "d*r = 0;", power("d")]
    return (f"algebra drawn over {field_str(gf)} {{\n  vertices {', '.join(vertices)};\n"
            f"  arrows {{ {' '.join(arrows)} }}\n  relations {{ {' '.join(relations)} }}\n}}\n")


@settings(derandomize=True, deadline=None, max_examples=80)
@given(loop_presentations())
def test_radical_on_the_closed_words_matches_the_d_wide_loop(source):
    """The check on C and the loop over all d words agree on drawn
    presentations, admissible or not; test_structure's catalogue test
    compares them on every family over five fields."""
    at = build_table(complete(parse_presentation(source)))
    try:
        want = reference_radical(at)
    except NotNilpotent:
        want = None
    if want is None:
        with pytest.raises(NotNilpotent):
            radical(at)
        with pytest.raises(NotNilpotent):
            socle(at)
    else:
        assert radical(at) == want


@settings(derandomize=True, deadline=None, max_examples=80)
@given(loop_presentations())
def test_brute_force_matches_the_semilinear_chain(source):
    """Exhaustive enumeration against kuelshammer_space for n = 0..3 on drawn
    tables of at most 2**14 elements: the square table over GF(2) and
    GF(4), the chunked vectors over GF(3), GF(5) and GF(9)."""
    at = build_table(complete(parse_presentation(source)))
    assume(at.gf.q ** at.dim <= 2 ** 14)
    for n in range(4):
        assert brute_force_kuelshammer(at, n) == kuelshammer_space(at, n)
