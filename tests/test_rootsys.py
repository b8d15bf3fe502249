from __future__ import annotations

import math
import re
import time
from fractions import Fraction

import pytest

from chevfiber import rootsys
from chevfiber.cli import main
from chevfiber._linalg import matmul, matvec, transpose
from chevfiber.polyring import Polynomial, parse_polynomial
from chevfiber.rootsys import (
    ConstructionError,
    build_root_system,
    fundamental_degrees,
    invariant_family,
    orbit_sum_invariant,
    orbit_vectors,
    simple_reflections,
    stabilizer_chain_order,
    weyl_group,
    weyl_order,
)

ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 2): 8,
    ("C", 3): 18,
    ("D", 4): 24,
    ("BC", 1): 4,
    ("BC", 2): 12,
    ("BC", 3): 24,
    ("G", 2): 12,
    ("F", 4): 48,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
}


@pytest.mark.parametrize("key", sorted(ROOT_COUNTS))
def test_root_counts(key):
    t, n = key
    rs = build_root_system(t, n)
    assert len(rs.roots) == ROOT_COUNTS[key]
    assert len(rs.simple_roots) == n
    assert len(rs.positive_roots()) * 2 == len(rs.roots)


def test_validation_errors():
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    with pytest.raises(ValueError):
        build_root_system("E", 5)
    with pytest.raises(ValueError):
        build_root_system("E", 9)
    with pytest.raises(ValueError):
        build_root_system("H", 2)
    with pytest.raises(ValueError):
        fundamental_degrees("D", 2)


# Humphreys, Reflection Groups and Coxeter Groups, Table 3.1; BC_n has the
# degrees of B_n
DEGREE_TABLE = {
    ("A", 1): (2,),
    ("A", 2): (2, 3),
    ("A", 3): (2, 3, 4),
    ("A", 4): (2, 3, 4, 5),
    ("A", 5): (2, 3, 4, 5, 6),
    ("B", 2): (2, 4),
    ("B", 3): (2, 4, 6),
    ("B", 4): (2, 4, 6, 8),
    ("C", 2): (2, 4),
    ("C", 3): (2, 4, 6),
    ("C", 4): (2, 4, 6, 8),
    ("D", 3): (2, 3, 4),
    ("D", 4): (2, 4, 4, 6),
    ("D", 5): (2, 4, 5, 6, 8),
    ("D", 6): (2, 4, 6, 6, 8, 10),
    ("BC", 1): (2,),
    ("BC", 2): (2, 4),
    ("BC", 3): (2, 4, 6),
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


@pytest.mark.parametrize("key", sorted(DEGREE_TABLE))
def test_fundamental_degrees(key):
    assert fundamental_degrees(*key) == DEGREE_TABLE[key]


@pytest.mark.parametrize("key", sorted(DEGREE_TABLE))
def test_orbit_count_is_the_degree_product(key):
    # two derivations of |W|: the fundamental-weight orbits down the
    # parabolic chain, and the table's degrees
    assert stabilizer_chain_order(build_root_system(*key)) == math.prod(DEGREE_TABLE[key])


GROUP_CASES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
    ("BC", 2), ("BC", 3),
)


@pytest.mark.parametrize("key", GROUP_CASES)
def test_orbit_count_is_the_enumerated_order(key):
    rs = build_root_system(*key)
    assert stabilizer_chain_order(rs) == len(weyl_group(rs)) == rs.order


WEYL_ORDERS = {
    ("A", 2): 6,
    ("A", 3): 24,
    ("B", 2): 8,
    ("B", 3): 48,
    ("C", 3): 48,
    ("D", 4): 192,
    ("BC", 2): 8,
    ("G", 2): 12,
    ("F", 4): 1152,
}


@pytest.mark.parametrize("key", sorted(WEYL_ORDERS))
def test_weyl_group_sizes(key):
    rs = build_root_system(*key)
    group = weyl_group(rs)
    assert len(group) == WEYL_ORDERS[key]
    assert weyl_order(*key) == WEYL_ORDERS[key]


def test_weyl_cap(monkeypatch):
    monkeypatch.setattr(rootsys, "WEYL_CAP", 7)
    rs = build_root_system("B", 3)
    with pytest.raises(ConstructionError, match="enumeration cap 7"):
        weyl_group(rs)


def test_roots_enumerates_no_weyl_group(monkeypatch, capsys):
    systems = ("A2", "B2", "BC3", "G2", "F4", "E6")
    formats = ("text", "json", "csv")
    expected = []
    for system in systems:
        for fmt in formats:
            assert main(["--format", fmt, "roots", system]) == 0
            expected.append(capsys.readouterr().out)

    def refuse(rs):
        raise AssertionError("roots enumerated the Weyl group")

    monkeypatch.setattr(rootsys, "weyl_group", refuse)
    for system in systems:
        for fmt in formats:
            assert main(["--format", fmt, "roots", system]) == 0
            assert capsys.readouterr().out == expected.pop(0)


def test_roots_exits_3_when_the_degrees_disagree_with_the_orbits(monkeypatch, capsys):
    # |W(A2)| = 6 from the orbits, but a wrong degree gives the product 8
    monkeypatch.setattr(rootsys.RootSystem, "degrees", property(lambda rs: (2, 4)))
    assert main(["roots", "A2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the orbit count gives |W| = 6, the degrees 8\n"


def test_weyl_matrices_preserve_form_and_roots():
    for key in (("B", 2), ("G", 2), ("A", 2)):
        rs = build_root_system(*key)
        group = weyl_group(rs)
        root_set = set(rs.roots)
        for w in group:
            assert matmul(matmul(transpose(w), rs.form), w) == tuple(
                tuple(row) for row in rs.form
            )
            for r in rs.roots:
                assert matvec(w, r) in root_set


def test_simple_reflections_are_involutions():
    rs = build_root_system("F", 4)
    for s in simple_reflections(rs):
        assert matmul(s, s) == tuple(
            tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)
        )


def test_orbit_and_stabilizer_weighting():
    rs = build_root_system("BC", 2)
    orb = orbit_vectors(rs, (1, -1))
    assert len(orb) == 4
    # stabilizer has order 2, so the group sum doubles the orbit sum
    p = orbit_sum_invariant(rs, (1, -1), 2)
    assert p == parse_polynomial("8*x1^2 + 8*x2^2", ("x1", "x2"))


def test_root_norm_sum_oracle():
    # sum of B(alpha, x)^2 over every root of BC2 comes to 14(x1^2 + x2^2)
    rs = build_root_system("BC", 2)
    acc = Polynomial.zero(rs.variables)
    for alpha in rs.roots:
        c = matvec(rs.form, alpha)
        lin = Polynomial(rs.variables, {(1, 0): c[0], (0, 1): c[1]})
        acc = acc + lin * lin
    assert acc == parse_polynomial("14*x1^2 + 14*x2^2", ("x1", "x2"))


def test_a1_family_oracle():
    fam = invariant_family(build_root_system("A", 1))
    assert fam.degrees == (2,)
    assert fam.polys[0] == parse_polynomial("2*x1^2", ("x1",))


def test_bc2_family_oracle():
    fam = invariant_family(build_root_system("BC", 2))
    assert fam.degrees == (2, 4)
    assert fam.polys[0] == parse_polynomial("20*x1^2 + 20*x2^2", ("x1", "x2"))
    assert fam.polys[1] == parse_polynomial(
        "68*x1^4 + 192*x1^2*x2^2 + 68*x2^4", ("x1", "x2")
    )
    j = fam.jacobian()
    assert j == parse_polynomial("4480*x1^3*x2 - 4480*x1*x2^3", ("x1", "x2"))
    assert j.homogeneous_degree() == sum(d - 1 for d in fam.degrees)


def test_family_certificate_is_a_proof():
    fam = invariant_family(build_root_system("B", 2))
    point, value = fam.certificate
    assert value != 0
    rows = [
        [p.derivative(x).eval_exact(point) for x in fam.variables]
        for p in fam.polys
    ]
    direct = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert direct == value


@pytest.mark.parametrize("key", [("A", 2), ("C", 2), ("G", 2), ("B", 3)])
def test_family_is_group_invariant(key):
    rs = build_root_system(*key)
    fam = invariant_family(rs)
    assert fam.degrees == fundamental_degrees(*key)
    for p, d in zip(fam.polys, fam.degrees):
        assert p.homogeneous_degree() == d
        for s in simple_reflections(rs):
            assert p.linear_change(s) == p


def test_family_jacobian_degree_law():
    # the Jacobian determinant is homogeneous of degree sum(m_i - 1)
    for key in (("A", 2), ("BC", 2), ("G", 2)):
        rs = build_root_system(*key)
        fam = invariant_family(rs)
        j = fam.jacobian()
        assert not j.is_zero
        assert j.homogeneous_degree() == sum(d - 1 for d in fam.degrees)


@pytest.mark.parametrize("key", [("E", 7), ("E", 8)])
def test_family_over_the_cap_closes_no_orbit(monkeypatch, key):
    # each regular orbit would have |W| points: 2,903,040 for E7
    rs = build_root_system(*key)

    def refuse(*args):
        raise AssertionError("an orbit was closed")

    monkeypatch.setattr(rootsys, "_regular_vectors", refuse)
    monkeypatch.setattr(rootsys, "orbit_vectors", refuse)
    start = time.perf_counter()
    message = f"each candidate orbit has |W| = {rs.order} points, over the cap 100000"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        invariant_family(rs)
    assert time.perf_counter() - start < 0.5


def test_family_is_deterministic():
    a = invariant_family(build_root_system("BC", 2))
    b = invariant_family(build_root_system("BC", 2))
    assert a.polys == b.polys
    assert a.certificate == b.certificate


def test_equal_polynomials_and_systems_hit_one_memo_entry():
    # a polynomial keeps its hash after the first call and a root system
    # hashes by type and rank; equal objects built apart hash alike, so
    # reflections_fix finds the verdict stored under the other
    rs, other = build_root_system("B", 2), build_root_system("B", 2)
    x1, x2 = (Polynomial.variable(rs.variables, x) for x in rs.variables)
    p = parse_polynomial("x1^2 + x2^2", rs.variables)
    q = (x2 + x1) ** 2 - x1 * x2 * 2
    assert list(p.terms) != list(q.terms) and p == q and hash(p) == hash(q)
    assert rs is not other and rs == other and hash(rs) == hash(other)
    rootsys.reflections_fix.cache_clear()
    assert rootsys.reflections_fix(rs, (p,), 0)
    assert rootsys.reflections_fix(other, (q,), 0)
    info = rootsys.reflections_fix.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_regular_vector_skipping():
    # (1, 1) pairs to zero against the root e1 - e2, so BC2 starts at (1, 2)
    assert next(rootsys._regular_vectors(build_root_system("BC", 2))) == (1, 2)
