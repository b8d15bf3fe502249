from __future__ import annotations

from fractions import Fraction

import pytest

from chevfiber import rootsys
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
        build_root_system("E", 7)
    with pytest.raises(ValueError):
        build_root_system("H", 2)
    with pytest.raises(ValueError):
        fundamental_degrees("D", 2)


DEGREE_TABLE = {
    ("A", 3): (2, 3, 4),
    ("B", 3): (2, 4, 6),
    ("C", 4): (2, 4, 6, 8),
    ("D", 4): (2, 4, 4, 6),
    ("BC", 2): (2, 4),
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
}


@pytest.mark.parametrize("key", sorted(DEGREE_TABLE))
def test_fundamental_degrees(key):
    assert fundamental_degrees(*key) == DEGREE_TABLE[key]


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


def test_family_is_deterministic():
    a = invariant_family(build_root_system("BC", 2))
    b = invariant_family(build_root_system("BC", 2))
    assert a.polys == b.polys
    assert a.certificate == b.certificate


def test_regular_vector_skipping():
    # (1, 1) pairs to zero against the root e1 - e2, so BC2 starts at (1, 2)
    assert next(rootsys._regular_vectors(build_root_system("BC", 2))) == (1, 2)
