"""T_n chains, their orthogonal ideals, the xi maps, and report comparison."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import CATALOGUE, make_table
from kuls import (
    GF,
    FamilySpec,
    brute_force_kuelshammer,
    build_table,
    canonical_form,
    center,
    commutator_space,
    compare,
    complete,
    consistent_form,
    custom_form,
    family,
    kuelshammer_space,
    orthogonal,
    parse_presentation,
    reynolds,
    reynolds_ideal,
    reynolds_sequence,
    socle,
)
from kuls.errors import (
    BadParameters,
    BudgetExceeded,
    CharacteristicMismatch,
    InvariantViolation,
)
from kuls.linalg import contains, contains_subspace, reduce_mod, row_space
from kuls.structure import closed_words, multiply, power
from oracles import direct_kuelshammer_space, frob, intersect, xi_map


def truncated(p, k):
    return build_table(complete(parse_presentation(
        f"algebra t{k} over GF({p}) {{ vertices v; arrows {{ a: v -> v; }}"
        f" relations {{ {'*'.join('a' * k)}; }} }}")))


def rows_of(report):
    return [(r.n, r.dim_t, r.dim_t_perp) for r in report.rows]


def test_dual_numbers_sequence():
    at = truncated(2, 2)
    rep = reynolds_sequence(at, canonical_form(at))
    assert rows_of(rep) == [(0, 0, 2), (1, 1, 1), (2, 1, 1)]
    assert rep.stabilized_at == 1
    assert (rep.dim, rep.dim_center, rep.dim_socle, rep.dim_commutator) == (2, 2, 1, 0)
    assert rep.name == "t2"


def test_truncated_cubic_over_gf3():
    at = truncated(3, 3)
    rep = reynolds_sequence(at, canonical_form(at))
    assert rows_of(rep) == [(0, 0, 3), (1, 2, 1), (2, 2, 1)]
    assert rep.stabilized_at == 1


def test_omega2_and_a12_sequences():
    omega = make_table("Omega", n=2)
    rep_o = reynolds_sequence(omega, canonical_form(omega))
    assert rows_of(rep_o) == [(0, 6, 4), (1, 7, 3), (2, 8, 2), (3, 8, 2)]
    assert rep_o.stabilized_at == 2
    a12 = make_table("A", p=1, q=2)
    rep_a = reynolds_sequence(a12, canonical_form(a12))
    assert rows_of(rep_a) == [(0, 6, 4), (1, 8, 2), (2, 8, 2)]
    assert rep_a.stabilized_at == 1


def test_t0_is_commutator_space_and_perp_is_center():
    at = make_table("Gamma", n=1)
    assert kuelshammer_space(at, 0) == commutator_space(at)
    f = canonical_form(at)
    assert reynolds_ideal(at, f, 0) == center(at)
    t1 = kuelshammer_space(at, 1)
    assert contains_subspace(t1, commutator_space(at))
    assert reynolds_ideal(at, f, 1) == orthogonal(f, t1)


def test_perp_dim_extends_past_stabilization():
    at = make_table("Omega", n=2)
    rep = reynolds_sequence(at, canonical_form(at))
    assert rep.perp_dim(0) == 4
    assert rep.perp_dim(3) == 2
    assert rep.perp_dim(17) == 2  # stabilized, so the tail is constant
    s = socle(at)
    terminal = intersect(s.right, center(at))
    assert rep.rows[-1].dim_t_perp == terminal.dim


def test_max_n_must_be_positive():
    at = truncated(2, 2)
    with pytest.raises(BadParameters):
        reynolds_sequence(at, canonical_form(at), max_n=0)


@pytest.mark.parametrize("name,params,gf", [
    ("Omega", {"n": 1}, (2, 1)),  # d = 4: one chunk, no high part
    ("Omega", {"n": 2}, (2, 1)),  # d = 10: q**d is the chunk
    ("A", {"p": 1, "q": 1}, (2, 1)),
    ("N", {"n": 1, "m": 2}, (3, 1)),
    ("D", {"m": 2}, (2, 1)),
    ("A", {"p": 1, "q": 2}, (3, 1)),  # d = 10: 81 chunks of 3**6 = 729
    ("N", {"n": 1, "m": 2}, (5, 1)),  # x**5 = (x**2)**2 * x
    ("Omega", {"n": 1}, (2, 2)),
])
def test_brute_force_agrees_with_semilinear_kernel(name, params, gf):
    at = make_table(name, gf=gf, **params)
    for n in range(4):  # N(1,2)/GF(3) at n = 3 raises x**3 on to the 9th power
        assert brute_force_kuelshammer(at, n) == kuelshammer_space(at, n)


@pytest.mark.parametrize("gf", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)],
                         ids=lambda f: f"GF{f[0]}^{f[1]}")
@pytest.mark.parametrize("name,params", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_chain_step_matches_direct_pth_power_method(name, params, gf):
    # family constants lie in GF(p), so every T_n here has a GF(p) basis;
    # the p-th root of the step is exercised by TWISTED below
    at = make_table(name, gf=gf, **params)
    for n in range(5):
        assert kuelshammer_space(at, n) == direct_kuelshammer_space(at, n)


# over GF(8), where the p-th root is not an involution, with t outside GF(2)
# in the relations: T_1 is not spanned by GF(2)-rows, so taking a p-th power
# instead of a p-th root gives another space
TWISTED = [
    "algebra s over GF(2^3) { vertices v; arrows { a: v -> v; b: v -> v; }"
    " relations { a*a = (t)*b*b; a*b = b*a; a*a*a; } }",
    "algebra m over GF(2^3) { vertices v; arrows { a: v -> v; b: v -> v; }"
    " relations { a*a = (t)*a*b; b*b = (t+1)*b*a; a*b*a; } }",
]


@pytest.mark.parametrize("source", TWISTED, ids=["s", "m"])
def test_chain_step_takes_pth_roots_off_the_prime_field(source):
    at = build_table(complete(parse_presentation(source)))
    gf = at.gf
    t1 = kuelshammer_space(at, 1)
    assert row_space(gf, frob(gf, t1.basis), at.dim) != t1
    for n in range(5):
        assert kuelshammer_space(at, n) == direct_kuelshammer_space(at, n)
    if at.dim == 5:  # 8**5 elements
        for n in (1, 2):  # n = 2 squares x**2 again, over GF(8)
            assert brute_force_kuelshammer(at, n) == kuelshammer_space(at, n)


def _fresh_table(name, gf, **params):
    return build_table(complete(family(FamilySpec(name, params, GF(*gf)))))


def _counting(monkeypatch, module, attr, calls):
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_chain_powers_the_identity_once_per_table(monkeypatch):
    at = _fresh_table("Omega", (2, 2), n=2)
    powers, kernels, commutators = [], [], []
    _counting(monkeypatch, reynolds, "power", powers)
    _counting(monkeypatch, reynolds, "kernel", kernels)
    _counting(monkeypatch, reynolds, "commutator_space", commutators)
    spaces = [kuelshammer_space(at, n) for n in range(7)]
    stable = next(n for n in range(6) if spaces[n] == spaces[n + 1])
    assert stable == 2
    assert len(powers) == 1 and powers[0][1] == at.gf.p  # rows b_i**p, once
    assert powers[0][0].shape == (len(closed_words(at)),) * 2 == (6, 6)  # closed b_i, in C
    assert len(kernels) <= stable + 1
    assert len(commutators) == 7  # T_0 is read on every call


def test_large_n_returns_the_stable_space():
    at = _fresh_table("D", (2, 1), m=2)
    stable = kuelshammer_space(at, 10**6)
    assert stable == kuelshammer_space(at, at.dim) == brute_force_kuelshammer(at, at.dim)
    assert stable == kuelshammer_space(at, 3) != kuelshammer_space(at, 1)
    with pytest.raises(BadParameters):
        kuelshammer_space(at, -1)


def test_brute_force_rejects_negative_n():
    at = make_table("Omega", n=1)
    with pytest.raises(BadParameters):
        brute_force_kuelshammer(at, -1)


def _recording_pullbacks(monkeypatch) -> list:
    """Make _code_maps hand out a membership map that records a copy of each
    pullback inside[sq] taken from it, in order."""
    maps = []

    class Recording(np.ndarray):
        def __getitem__(self, key):
            out = super().__getitem__(key)
            if isinstance(key, np.ndarray):  # inside[sq]; inside[x] is an int index
                maps.append(np.array(out))
            return out

    real = reynolds._code_maps

    def code_maps(at, k):
        sq, inside = real(at, k)
        return sq, inside.view(Recording)

    monkeypatch.setattr(reynolds, "_code_maps", code_maps)
    return maps


def _every_element(gf, d):
    """Row x is the element of code x: coordinate i is base-q digit i of x."""
    codes = np.arange(gf.q ** d, dtype=np.int64)[:, None]
    return (codes // gf.q ** np.arange(d)) % gf.q


def test_brute_force_caps_n_at_the_dimension(monkeypatch):
    at = make_table("Omega", n=1)
    maps = _recording_pullbacks(monkeypatch)
    big = brute_force_kuelshammer(at, 300)
    assert len(maps) == at.dim  # inside_0 pulled back d times: T_300 = T_d
    assert big == brute_force_kuelshammer(at, at.dim) == kuelshammer_space(at, 300)


def test_brute_force_pulls_membership_back_along_the_squares(monkeypatch):
    """Each pullback inside_i = inside_(i-1)[sq] is the map x**(2**i) in K(A),
    checked on every element against structure.power."""
    at = make_table("Omega", n=2)
    everything, k = _every_element(at.gf, at.dim), commutator_space(at)
    maps = _recording_pullbacks(monkeypatch)
    assert brute_force_kuelshammer(at, 3) == kuelshammer_space(at, 3)
    assert len(maps) == 3
    for i, inside in enumerate(maps, start=1):
        assert np.array_equal(inside, ~reduce_mod(k, power(at, everything, 2 ** i)).any(axis=1))


def test_brute_force_spans_several_chunks_over_an_extension_field(monkeypatch):
    at = make_table("Omega", gf=(3, 2), n=1)  # 9**4 elements; GF(2**e) runs on codes
    monkeypatch.setattr(reynolds, "BRUTE_FORCE_CHUNK", 80)  # 9**1 <= 80: 729 chunks of 9
    for n in (1, 2):
        assert brute_force_kuelshammer(at, n) == kuelshammer_space(at, n)


@pytest.mark.parametrize("name,params,gf,chunk", [
    ("A", {"p": 1, "q": 2}, (3, 1), 1024),  # 81 chunks of 3**6
    ("N", {"n": 1, "m": 2}, (5, 1), 7),  # x**5 = (x**2)**2 * x in 25 chunks of 5
], ids=["GF3", "GF5"])
def test_brute_force_squares_every_element_exactly(monkeypatch, name, params, gf, chunk):
    """x -> x**p is additive modulo K(A), so a square off by a commutator
    (a lost h*l + l*h, say) leaves every T_n unchanged: check each chunk's
    squares and x**first against structure itself, and that the chunks
    enumerate every element once."""
    at = make_table(name, gf=gf, **params)
    monkeypatch.setattr(reynolds, "BRUTE_FORCE_CHUNK", chunk)
    real, seen = reynolds._first_power, []

    def first_power(at, first, x, squares):
        out = real(at, first, x, squares)
        seen.append((first, x, squares, out))
        return out

    monkeypatch.setattr(reynolds, "_first_power", first_power)
    assert brute_force_kuelshammer(at, 1) == kuelshammer_space(at, 1)
    assert len(seen) > 1 and {first for first, *_ in seen} == {at.gf.p}
    everything = np.vstack([x for _, x, _, _ in seen])
    assert len(np.unique(everything, axis=0)) == len(everything) == at.gf.q ** at.dim
    for first, x, squares, out in seen:
        assert np.array_equal(squares, multiply(at, x, x))
        assert np.array_equal(out, power(at, x, first))


@pytest.mark.parametrize("table", [
    lambda: make_table("Omega", n=2),
    lambda: make_table("Tpq", gf=(2, 2), p=1, q=1),  # noncommutative
    lambda: build_table(complete(parse_presentation(TWISTED[1]))),  # "m", t outside GF(2)
], ids=["Omega2-GF2", "Tpq11-GF4", "m-GF8"])
def test_square_table_squares_every_code_exactly(table):
    """x -> x**2 is additive modulo K(A), so a square off by a commutator
    (a lost u_i u_j + u_j u_i, say) leaves every T_n unchanged: check every
    entry of the square table against structure itself, and the map of
    K(A) against reduce_mod, on every element."""
    at = table()
    gf, d, k = at.gf, at.dim, commutator_space(at)
    sq, inside = reynolds._code_maps(at, k)
    everything = _every_element(gf, d)
    assert sq.dtype == np.int32 and len(sq) == len(inside) == gf.q ** d
    assert np.array_equal(sq, multiply(at, everything, everything) @ gf.q ** np.arange(d))
    assert np.array_equal(inside, ~reduce_mod(k, everything).any(axis=1))


def test_code_span_grows_by_one_dimension_per_round(monkeypatch):
    """Over GF(8) each round clears the member's multiples t**i v from the map
    with it, so every row_space call raises the dimension: dim T_n calls."""
    at = build_table(complete(parse_presentation(TWISTED[1])))
    calls = []
    _counting(monkeypatch, reynolds, "row_space", calls)
    for n in range(4):
        calls.clear()
        t = brute_force_kuelshammer(at, n)
        assert [len(rows) for rows, _ in calls] == list(range(1, t.dim + 1))
        assert t == kuelshammer_space(at, n)


# the catalogue plus two d = 4 instances, so that GF(8) has tables with 8**d <= 2**14
SMALL_CHAR_2 = CATALOGUE + [("Omega", {"n": 1}), ("A", {"p": 1, "q": 1})]


@pytest.mark.parametrize("gf", [(2, 1), (2, 2), (2, 3)], ids=["GF2", "GF4", "GF8"])
def test_chunked_and_code_enumerations_agree_in_characteristic_2(gf):
    """The chunked vector path, which over GF(2**e) raises every element by
    structure.power, against the square table and its pullbacks: the same
    member count and the same Subspace for n = 0..3."""
    checked = 0
    for name, params in SMALL_CHAR_2:
        at = make_table(name, gf=gf, **params)
        if at.gf.q ** at.dim > 2 ** 14:
            continue
        k = commutator_space(at)
        for n in range(4):
            assert reynolds._chunk_members(at, k, n) == reynolds._code_members(at, k, n)
        checked += 1
    assert checked >= 2


def test_brute_force_budget():
    at = make_table("Omega", n=2)
    with pytest.raises(BudgetExceeded) as err:
        brute_force_kuelshammer(at, 1, budget=100)
    assert "2**10" in str(err.value)


def test_xi_map_structure():
    at = make_table("Omega", n=2)
    f = canonical_form(at)
    xi = xi_map(at, f, 1)
    assert xi.n == 1
    assert xi.image == reynolds_ideal(at, f, 1)
    z = center(at)
    assert xi.center == z
    # xi_1 sends each central element into T_1^perp
    for v in z.basis:
        assert contains(xi.image, xi.apply(v))
    with pytest.raises(InvariantViolation):
        xi.apply(at.normal_form("a1"))  # a1 is not central


def test_compare_verdicts():
    omega = make_table("Omega", n=2)
    a12 = make_table("A", p=1, q=2)
    rep_o = reynolds_sequence(omega, canonical_form(omega))
    rep_a = reynolds_sequence(a12, canonical_form(a12))
    v = compare(rep_o, rep_a)
    assert (v.verdict, v.witness_n, v.dims) == ("distinguished", 1, (3, 2))
    assert compare(rep_o, rep_o).verdict == "inconclusive"
    flipped = compare(rep_a, rep_o)
    assert flipped.dims == (2, 3)


def test_twisted_and_plain_loop_extensions():
    d2 = make_table("D", m=2)
    dp2 = make_table("Dprime", m=2)
    rep_d = reynolds_sequence(d2, consistent_form(d2))
    rep_p = reynolds_sequence(dp2, canonical_form(dp2))
    assert rows_of(rep_d) == [(0, 6, 4), (1, 7, 3), (2, 8, 2), (3, 8, 2)]
    assert rows_of(rep_p) == [(0, 6, 4), (1, 8, 2), (2, 8, 2)]
    assert compare(rep_d, rep_p) == compare(rep_d, rep_p)
    assert compare(rep_d, rep_p).witness_n == 1
    # over GF(3) the sequences coincide and nothing is distinguished
    d3 = make_table("D", gf=(3, 1), m=2)
    dp3 = make_table("Dprime", gf=(3, 1), m=2)
    rep_d3 = reynolds_sequence(d3, consistent_form(d3))
    rep_p3 = reynolds_sequence(dp3, canonical_form(dp3))
    assert rows_of(rep_d3) == rows_of(rep_p3) == [(0, 6, 4), (1, 7, 3), (2, 8, 2), (3, 8, 2)]
    assert compare(rep_d3, rep_p3).verdict == "inconclusive"


def test_compare_requires_matching_characteristic():
    t2 = truncated(2, 2)
    t3 = truncated(3, 3)
    rep2 = reynolds_sequence(t2, canonical_form(t2))
    rep3 = reynolds_sequence(t3, canonical_form(t3))
    with pytest.raises(CharacteristicMismatch):
        compare(rep2, rep3)


def test_extension_field_pipeline_matches_prime_field():
    gf4 = make_table("Omega", gf=(2, 2), n=2)
    rep = reynolds_sequence(gf4, canonical_form(gf4))
    assert rows_of(rep) == [(0, 6, 4), (1, 7, 3), (2, 8, 2), (3, 8, 2)]
    assert rep.stabilized_at == 2
    small = make_table("Omega", gf=(2, 2), n=1)  # 4**4 vectors, cheap to enumerate
    for n in (1, 2):
        assert brute_force_kuelshammer(small, n) == kuelshammer_space(small, n)


@pytest.mark.parametrize("name,params,form", [
    ("Omega", {"n": 20}, canonical_form),
    ("D", {"m": 20}, consistent_form),
], ids=["Omega20", "D20"])
def test_rungs_past_the_dense_wall(name, params, form):
    # d = 460: the closed words span c = 42 of them
    at = _fresh_table(name, (2, 1), **params)
    rep = reynolds_sequence(at, form(at))
    n = 20
    assert (at.dim, len(closed_words(at))) == (460, 42)
    assert [r.dim_t_perp for r in rep.rows] == [n + 2, n + 1, n, n] == [22, 21, 20, 20]
    assert (rep.dim_center, rep.dim_commutator, rep.stabilized_at) == (22, 438, 2)


def test_sequence_is_form_independent_for_d2():
    # any validated symmetrizing form yields the same T_n^perp dimensions
    at = make_table("D", m=2)
    f1 = consistent_form(at)
    f2 = custom_form(at, {"a1*a1": 1, "b2*b1": 1, "a1*a1*a1": 1})
    assert rows_of(reynolds_sequence(at, f1)) == rows_of(reynolds_sequence(at, f2))
