"""Acceptance suite: headline separations and cross-checks, one criterion per test."""
from __future__ import annotations

from contextlib import contextmanager

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
    kuelshammer_space,
    normal_form,
    orthogonal,
    parse_presentation,
    reynolds_ideal,
    reynolds_sequence,
    socle,
)
from kuls.errors import NotSymmetric
from kuls.families import FamilySpec, family
from kuls.gf import GF
from kuls.linalg import contains, contains_subspace, row_space
from kuls.structure import multiply, power
from oracles import dense_gram, field_pow, intersect, path_quotient_dim, subspace_sum, xi_map


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {desc}")
        raise
    print(f"criterion {num:02d} PASS: {desc}")


def _cycle(n: int) -> str:
    return "*".join(f"b{i}" for i in range(1, n + 1))


def _socle_word(m: int, j: int) -> str:
    # s_j = b_j..b_m a1 b_1..b_(j-1), the socle cycle based at vertex j
    names = [f"b{i}" for i in range(j, m + 1)] + ["a1"] + [f"b{i}" for i in range(1, j)]
    return "*".join(names)


def _form(at):
    """The 0/1 socle form when it symmetrizes, else a solved one, else None."""
    try:
        return canonical_form(at)
    except NotSymmetric:
        try:
            return consistent_form(at)
        except NotSymmetric:
            return None


def _signature(at):
    rep = reynolds_sequence(at, _form(at))
    return (rep.dim, rep.dim_center, rep.dim_socle, rep.dim_commutator,
            tuple((r.n, r.dim_t, r.dim_t_perp) for r in rep.rows),
            rep.stabilized_at)


def test_criterion_01():
    with criterion(1, "Omega(n) char 2: center n+2, socle n, "
                      "T_1^perp = full cycle + socle"):
        for n in range(2, 6):
            at = make_table("Omega", n=n)
            z = center(at)
            soc = socle(at).right
            assert z.dim == n + 2
            assert soc.dim == n
            perp = reynolds_ideal(at, canonical_form(at), 1)
            assert perp.dim == n + 1
            cyc = normal_form(at, _cycle(n))
            assert perp == subspace_sum(row_space(at.gf, cyc, at.dim), soc)


def test_criterion_02():
    with criterion(2, "A(1,n) char 2: center n+2, T_1^perp equals the socle"):
        for n in range(2, 6):
            at = make_table("A", p=1, q=n)
            soc = socle(at).right
            assert center(at).dim == n + 2
            assert soc.dim == n
            assert reynolds_ideal(at, canonical_form(at), 1) == soc


def test_criterion_03():
    with criterion(3, "Omega(n) vs A(1,n) distinguished at n=1 for n = 1..5"):
        for n in range(1, 6):
            ra = reynolds_sequence(make_table("Omega", n=n),
                                   canonical_form(make_table("Omega", n=n)))
            rb = reynolds_sequence(make_table("A", p=1, q=n),
                                   canonical_form(make_table("A", p=1, q=n)))
            verdict = compare(ra, rb)
            assert verdict.verdict == "distinguished"
            assert verdict.witness_n == 1
        for name, params, expected in (("Omega", {"n": 1}, 2), ("A", {"p": 1, "q": 1}, 1)):
            at = make_table(name, **params)
            t1 = brute_force_kuelshammer(at, 1)
            assert t1 == kuelshammer_space(at, 1)
            assert orthogonal(canonical_form(at), t1).dim == expected


def test_criterion_04():
    with criterion(4, "D(m) vs Dprime(m) char 2: T_1^perp dims m+1 vs m, "
                      "alpha^2 in K only for Dprime"):
        for m in (2, 3, 4):
            d = make_table("D", m=m)
            dp = make_table("Dprime", m=m)
            assert center(d).dim == m + 2
            assert center(dp).dim == m + 2
            fd, fdp = _form(d), canonical_form(dp)
            perp_d = reynolds_ideal(d, fd, 1)
            perp_dp = reynolds_ideal(dp, fdp, 1)
            assert perp_d.dim == m + 1
            assert perp_dp.dim == m
            assert contains(perp_d, normal_form(d, _cycle(m)))
            assert not contains(commutator_space(d), normal_form(d, "a1*a1"))
            assert contains(commutator_space(dp), normal_form(dp, "a1*a1"))
            verdict = compare(reynolds_sequence(d, fd), reynolds_sequence(dp, fdp))
            assert verdict.verdict == "distinguished"
            assert verdict.witness_n == 1


def test_criterion_05():
    with criterion(5, "K(D(m)): codimension m+2, spanned with alpha^2 - s_j "
                      "and s_m - alpha^3"):
        for m in (2, 3):
            at = make_table("D", m=m)
            k = commutator_space(at)
            gf = at.gf
            assert k.dim == at.dim - (m + 2)
            alpha2 = normal_form(at, "a1*a1")
            alpha3 = normal_form(at, "a1*a1*a1")
            for j in range(2, m + 1):
                assert contains(k, gf.sub(alpha2, normal_form(at, _socle_word(m, j))))
            assert contains(k, gf.sub(normal_form(at, _socle_word(m, m)), alpha3))


def test_criterion_06():
    with criterion(6, "0/1 socle values symmetrize Omega(n) in char 2 only"):
        for n in (1, 2, 3):
            canonical_form(make_table("Omega", n=n))
            with pytest.raises(NotSymmetric):
                canonical_form(make_table("Omega", gf=(3, 1), n=n))


def test_criterion_07():
    with criterion(7, "D(2) vs Dprime(2) char 3: inconclusive, "
                      "identical full sequences"):
        d = make_table("D", gf=(3, 1), m=2)
        dp = make_table("Dprime", gf=(3, 1), m=2)
        ra = reynolds_sequence(d, _form(d))
        rb = reynolds_sequence(dp, _form(dp))
        verdict = compare(ra, rb)
        assert verdict.verdict == "inconclusive"
        assert verdict.witness_n is None and verdict.dims is None
        assert [(r.n, r.dim_t, r.dim_t_perp) for r in ra.rows] == \
               [(r.n, r.dim_t, r.dim_t_perp) for r in rb.rows]
        assert ra.stabilized_at == rb.stabilized_at


INSTANCES = (
    ("A", {"p": 1, "q": 1}), ("A", {"p": 1, "q": 2}), ("A", {"p": 2, "q": 2}),
    ("Lambda", {"m": 2}), ("Lambda", {"m": 3}),
    ("Gamma", {"n": 1}), ("Gamma", {"n": 2}),
    ("Tpqr", {"p": 2, "q": 2, "r": 2}), ("Tpqr", {"p": 2, "q": 2, "r": 3}),
    ("Tpq", {"p": 1, "q": 1}), ("Tpq", {"p": 1, "q": 2}), ("Tpq", {"p": 2, "q": 2}),
    ("Tstar", {"r": 2}), ("Tstar", {"r": 3}),
    ("Omega", {"n": 1}), ("Omega", {"n": 2}),
    ("N", {"n": 1, "m": 1}), ("N", {"n": 2, "m": 1}), ("N", {"n": 2, "m": 2}),
    ("D", {"m": 2}), ("D", {"m": 3}),
    ("Dprime", {"m": 2}), ("Dprime", {"m": 3}),
)


def _check_universal(at) -> bool:
    form = _form(at)
    if form is None:
        return False
    gf = at.gf
    gram = dense_gram(form)
    assert np.array_equal(gram, gram.T)
    assert row_space(gf, gram).dim == at.dim
    k = commutator_space(at)
    z = center(at)
    soc = socle(at).right
    assert kuelshammer_space(at, 0) == k
    assert z.dim + k.dim == at.dim
    assert contains_subspace(z, soc)
    rep = reynolds_sequence(at, form)
    eye = np.eye(at.dim, dtype=np.int64)
    prev_t = None
    prev_perp = None
    for row in rep.rows:
        t = kuelshammer_space(at, row.n)
        perp = orthogonal(form, t)
        assert (t.dim, perp.dim) == (row.dim_t, row.dim_t_perp)
        if prev_t is not None:
            assert contains_subspace(t, prev_t)
            assert contains_subspace(prev_perp, perp)
        prev_t, prev_perp = t, perp
        assert contains_subspace(perp, soc)
        for zrow in z.basis:
            for prow in perp.basis:
                assert contains(perp, multiply(at, zrow, prow))
        xi = xi_map(at, form, row.n)
        assert xi.image == perp
        pn = gf.p ** row.n
        powers = np.stack([power(at, eye[i], pn) for i in range(at.dim)])
        lhs = field_pow(gf, gf.matmul(xi.matrix, gram), pn)
        rhs = gf.matmul(gf.matmul(z.basis, gram), powers.T)
        assert np.array_equal(lhs, rhs)
    assert prev_perp == intersect(soc, z)
    return True


def test_criterion_08():
    with criterion(8, "form and chain invariants hold across the family "
                      "catalogue in char 2 and 3"):
        for name, params in INSTANCES:
            assert _check_universal(make_table(name, **params))
            symmetric = _check_universal(make_table(name, gf=(3, 1), **params))
            assert symmetric or name == "Omega"


def test_criterion_09():
    with criterion(9, "exhaustive enumeration matches the semilinear T_n "
                      "computation"):
        cases = (("Omega", {"n": 1}), ("Omega", {"n": 2}),
                 ("A", {"p": 1, "q": 1}), ("A", {"p": 1, "q": 2}),
                 ("N", {"n": 1, "m": 2}), ("N", {"n": 2, "m": 1}),
                 ("N", {"n": 2, "m": 2}), ("D", {"m": 2}),
                 # the benchmark's oracle algebras, 2**18 elements each
                 ("Omega", {"n": 3}), ("Gamma", {"n": 2}), ("A", {"p": 2, "q": 2}),
                 ("A", {"p": 1, "q": 3}), ("D", {"m": 3}), ("Dprime", {"m": 3}),
                 ("Tstar", {"r": 2}), ("N", {"n": 2, "m": 4}))
        for name, params in cases:
            at = make_table(name, **params)
            assert at.gf.q ** at.dim <= 2 ** 20
            for n in (1, 2):
                assert brute_force_kuelshammer(at, n) == kuelshammer_space(at, n)


OMEGA2_PERMUTED = """algebra Omega_2_perm over GF(2) {
  vertices w1, c;
  arrows {
    b2: w1 -> c;
    b1: c -> w1;
    a1: c -> c;
  }
  relations {
    b2*b1 = 0;
    b1*b2*a1 + a1*b1*b2 = 0;
    a1*a1 = a1*b1*b2;
  }
}
"""

D2_PERMUTED = """algebra D_2_perm over GF(2) {
  vertices w1, c;
  arrows {
    b1: c -> w1;
    b2: w1 -> c;
    a1: c -> c;
  }
  relations {
    b2*a1*b1*b2 = 0;
    b2*b1 = b2*a1*b1;
    b1*b2 = a1*a1;
    b1*b2*a1*b1 = 0;
  }
}
"""


def test_criterion_10():
    with criterion(10, "arrow declaration order changes no reported dimension"):
        for base, permuted in ((make_table("Omega", n=2), OMEGA2_PERMUTED),
                               (make_table("D", m=2), D2_PERMUTED)):
            other = build_table(complete(parse_presentation(permuted)))
            assert _signature(base) == _signature(other)


def test_criterion_11():
    with criterion(11, "dimension formulas against the path-enumeration oracle"):
        for n in (1, 2, 3):
            omega = make_table("Omega", n=n)
            a = make_table("A", p=1, q=n)
            window = int(omega.lengths.max()) + 5
            dim_omega = path_quotient_dim(family(FamilySpec("Omega", {"n": n}, GF(2))),
                                          window)
            dim_a = path_quotient_dim(family(FamilySpec("A", {"p": 1, "q": n}, GF(2))),
                                      window)
            assert dim_omega == omega.dim
            assert dim_a == a.dim
            assert dim_omega == dim_a
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
            at = make_table("N", n=n, m=m)
            window = int(at.lengths.max()) + 5
            dim = path_quotient_dim(family(FamilySpec("N", {"n": n, "m": m}, GF(2))),
                                    window)
            assert dim == at.dim
            assert dim == n * (m * n + 1), (
                f"N({n},{m}): expected dim n*(m*n+1) = {n * (m * n + 1)}, the paths "
                f"of length 0..{m * n} at each of the {n} vertices; got {dim}")
