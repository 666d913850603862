"""T_n chains, their orthogonal ideals, the xi maps, and report comparison."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import make_table
from kuls import (
    brute_force_kuelshammer,
    build_table,
    canonical_form,
    center,
    commutator_space,
    compare,
    complete,
    consistent_form,
    custom_form,
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
from kuls.linalg import contains, contains_subspace, intersect
from oracles import xi_map


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
    ("Omega", {"n": 1}, (2, 1)),
    ("Omega", {"n": 2}, (2, 1)),
    ("A", {"p": 1, "q": 1}, (2, 1)),
    ("N", {"n": 1, "m": 2}, (3, 1)),
    ("D", {"m": 2}, (2, 1)),
])
def test_brute_force_agrees_with_semilinear_kernel(name, params, gf):
    at = make_table(name, gf=gf, **params)
    for n in (1, 2):
        assert brute_force_kuelshammer(at, n) == kuelshammer_space(at, n)


def test_brute_force_spans_several_chunks_over_an_extension_field(monkeypatch):
    at = make_table("Omega", gf=(2, 2), n=1)  # 4**4 = 256 elements
    monkeypatch.setattr(reynolds, "BRUTE_FORCE_CHUNK", 7)  # 37 chunks, the last one partial
    for n in (1, 2):
        assert brute_force_kuelshammer(at, n) == kuelshammer_space(at, n)


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


def test_sequence_is_form_independent_for_d2():
    # any validated symmetrizing form yields the same T_n^perp dimensions
    at = make_table("D", m=2)
    f1 = consistent_form(at)
    f2 = custom_form(at, {"a1*a1": 1, "b2*b1": 1, "a1*a1*a1": 1})
    assert rows_of(reynolds_sequence(at, f1)) == rows_of(reynolds_sequence(at, f2))
