from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cache
from math import prod

import pytest

from chevfiber.polyring import (
    Polynomial,
    jacobian_det,
    jacobian_matrix,
    parse_polynomial,
    parse_rational,
    polynomial_det,
)
from chevfiber.rootsys import build_root_system, invariant_family


def P(text: str, variables=("x1", "x2")) -> Polynomial:
    return parse_polynomial(text, variables)


def test_parse_roundtrip_canonical_order():
    p = P("3*x2^2 - x1*x2 + 2*x1^2 + 1/2")
    assert p.to_text() == "2*x1^2 - 1*x1^1*x2^1 + 3*x2^2 + 1/2"
    assert parse_polynomial(p.to_text(), ("x1", "x2")) == p


def test_zero_and_constant():
    z = Polynomial.zero(("x1",))
    assert z.is_zero and z.to_text() == "0"
    assert z.degree() == -1
    c = Polynomial.constant(("x1",), Fraction(-7, 3))
    assert c.to_text() == "-7/3"
    assert c.homogeneous_degree() == 0


def test_arithmetic_is_exact():
    # (1/3 + 1/3 + 1/3) x = x with no float drift
    x = Polynomial.variable(("x",), "x")
    third = Fraction(1, 3) * x
    assert third + third + third == x
    assert (x - x).is_zero


def test_product_and_power():
    x1 = Polynomial.variable(("x1", "x2"), "x1")
    x2 = Polynomial.variable(("x1", "x2"), "x2")
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2
    assert ((x1 - x2) * (x1 + x2)).to_text() == "1*x1^2 - 1*x2^2"


def test_eval_oracle():
    # x^4 + t^2 x^2 at (t, x) = (1, 2): 16 + 4 = 20
    p = parse_polynomial("x^4 + t^2*x^2", ("t", "x"))
    assert p.eval([1.0, 2.0]) == pytest.approx(20.0)
    assert p.eval_exact([1, 2]) == 20


def test_eval_complex():
    p = parse_polynomial("x^2 + 1", ("x",))
    assert abs(p.eval([1j])) < 1e-15


@cache
def family_members(name: str) -> tuple[Polynomial, ...]:
    if name == "sparse":
        return (P("2*x1^3*x2 - 5/7*x1*x2^2 + 4"),)
    return invariant_family(build_root_system(name[:-1], int(name[-1]))).polys


def term_size(p: Polynomial, point) -> float:
    """sum |c x^e| over the terms, the scale of any rounding error in eval"""
    return sum(
        abs(float(c)) * prod(abs(complex(z)) ** k for z, k in zip(point, e))
        for e, c in p.terms.items()
    )


@pytest.mark.parametrize("name", ["sparse", "G2", "A3", "D4", "F4"])
def test_eval_matches_exact_on_rationals(name):
    # dyadic coordinates are exact floats, so the only error is eval's own
    rng = random.Random(7)
    for p in family_members(name):
        for _ in range(5):
            pt = [Fraction(rng.randint(-64, 64), 16) for _ in p.variables]
            exact = p.eval_exact(pt)
            approx = p.eval([float(z) for z in pt])
            assert abs(approx - float(exact)) <= 1e-15 * term_size(p, pt)


@pytest.mark.parametrize("name", ["G2", "A3", "F4"])
def test_eval_does_not_depend_on_term_order(name):
    rng = random.Random(11)
    for p in family_members(name):
        flipped = Polynomial(p.variables, dict(reversed(list(p.terms.items()))))
        assert list(flipped.terms) != list(p.terms)
        for _ in range(5):
            pt = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in p.variables]
            assert repr(flipped.eval(pt)) == repr(p.eval(pt))


def test_eval_checks_the_point_arity():
    p = P("x1*x2 + 1")
    message = "point has 3 coordinates, polynomial has 2 variables"
    with pytest.raises(ValueError, match=message):
        p.eval([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=message):
        p.eval_exact([1, 2, 3])


def test_derivative_leibniz():
    f = P("x1^2*x2 + 3*x2^3")
    g = P("x1*x2 - 2")
    lhs = (f * g).derivative("x1")
    rhs = f.derivative("x1") * g + f * g.derivative("x1")
    assert lhs == rhs


def test_derivative_euler_identity():
    # homogeneous p of degree d satisfies sum x_i dp/dx_i = d p
    p = P("x1^4 + 2*x1^2*x2^2 + x2^4")
    assert p.homogeneous_degree() == 4
    x1 = Polynomial.variable(("x1", "x2"), "x1")
    x2 = Polynomial.variable(("x1", "x2"), "x2")
    assert x1 * p.derivative("x1") + x2 * p.derivative("x2") == 4 * p


def test_derivative_finite_difference():
    p = P("x1^3*x2^2 - 7*x1*x2")
    h = 1e-6
    at = [0.7, -1.3]
    fd = (p.eval([at[0] + h, at[1]]) - p.eval([at[0] - h, at[1]])) / (2 * h)
    assert fd == pytest.approx(p.derivative("x1").eval(at), rel=1e-6)


def test_homogeneous_degree():
    assert P("x1^2 + x2^2").homogeneous_degree() == 2
    assert P("x1^2 + x2").homogeneous_degree() is None
    with pytest.raises(ValueError):
        Polynomial.zero(("x1",)).homogeneous_degree()


def test_restrict_zero():
    p = parse_polynomial("x^4 + t^2*x^2 + 5*t", ("t", "x"))
    q = p.restrict_zero(["t"])
    assert q.variables == ("x",)
    assert q.to_text() == "1*x^4"
    with pytest.raises(ValueError):
        p.restrict_zero(["y"])


def test_substitute_linear_change():
    # u1 = t + x, u2 = -t + x turns u1^2 + u2^2 into 2t^2 + 2x^2
    p = P("x1^2 + x2^2")
    q = p.linear_change(((1, 1), (-1, 1)), ("t", "x"))
    assert q == parse_polynomial("2*t^2 + 2*x^2", ("t", "x"))


def test_linear_change_identity_is_noop():
    p = P("3*x1^3 - x1*x2 + 1/2*x2^2 + 7")
    q = p.linear_change(((1, 0), (0, 1)))
    assert q == p
    assert list(q.terms) == list(p.terms)


def test_linear_change_reflection_matches_substitute():
    # the reflection swapping x1 and x2, by hand (terms in the order of p's)
    # and as a matrix
    p = P("x1^3 + 2*x1*x2 - 5*x2")
    by_hand = P("x2^3 + 2*x2*x1 - 5*x1")
    q = p.linear_change(((0, 1), (1, 0)))
    assert q == by_hand == P("x2^3 + 2*x1*x2 - 5*x1")
    assert list(q.terms) == list(by_hand.terms)


def test_linear_change_to_new_variables():
    # u1 = t + x, u2 = -t + x, as in test_substitute_linear_change
    p = P("x1^2 + x2^2")
    q = p.linear_change(((1, 1), (-1, 1)), ("t", "x"))
    assert q == parse_polynomial("2*t^2 + 2*x^2", ("t", "x"))


def test_substitute_requires_all_used_variables():
    p = P("x1 + x2")
    with pytest.raises(ValueError):
        p.linear_change(((1,),), ("t",))


def test_linear_change_needs_one_row_per_variable():
    # too few rows: test_substitute_requires_all_used_variables
    p = P("x1^2 + x2")
    for matrix in (((1, 0), (0, 1), (1, 1)), ((1,), (0,))):
        with pytest.raises(ValueError):
            p.linear_change(matrix)


def test_floats_are_neither_coefficients_nor_scalars():
    # the one rational rule of _linalg._exact: ints and Fractions only
    with pytest.raises(TypeError):
        Polynomial(("x",), {(1,): 0.5})
    x = Polynomial.variable(("x",), "x")
    calls = (lambda: x * 0.5, lambda: 0.5 * x, lambda: x + 0.5, lambda: x - 0.5,
             lambda: x.eval_exact([0.5]), lambda: x.eval_exact(["1/2"]))
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), Fraction(2), "2"])
def test_exponents_must_be_integers(bad):
    # never truncated or parsed: x^1.5 is not x^1, "2" is not 2
    with pytest.raises(TypeError):
        Polynomial(("x",), {(bad,): 1})
    with pytest.raises(TypeError):
        Polynomial.variable(("x",), "x") ** bad


def test_integer_like_exponents_pass():
    np = pytest.importorskip("numpy")
    x2 = Polynomial(("x",), {(2,): 1})
    assert Polynomial(("x",), {(np.int64(2),): 1}) == x2
    assert Polynomial(("x", "y"), {(True, False): 1}).terms == {(1, 0): 1}
    assert all(type(k) is int for e in Polynomial(("x",), {(np.int32(2),): 1}).terms for k in e)


def test_variable_mismatch_rejected():
    a = Polynomial.variable(("x",), "x")
    b = Polynomial.variable(("y",), "y")
    with pytest.raises(ValueError):
        a + b


def test_jacobian_det_power_sums_a2_oracle():
    # p2 = x1^2 + x2^2 composed with the trace-zero slice, p3 likewise:
    # J = det [[2x1, 2x2], [3x1^2 - 3x2^2, -6x1x2]] = -6x1^2*x2 - 6x2^3 ... computed exactly
    p2 = P("2*x1^2 + 2*x1*x2 + 2*x2^2")
    p3 = P("-3*x1^2*x2 - 3*x1*x2^2")
    j = jacobian_det([p2, p3], ["x1", "x2"])
    # antisymmetric under swapping x1, x2 up to sign of the alternating factor
    sw = j.linear_change(((0, 1), (1, 0)))
    assert sw == -1 * j
    assert j.homogeneous_degree() == 1 + 2  # sum of (deg - 1) over the family


def test_jacobian_det_diagonal_oracle():
    p = [parse_polynomial("x1^2", ("x1", "x2")), parse_polynomial("x2^3", ("x1", "x2"))]
    j = jacobian_det(p, ["x1", "x2"])
    assert j == parse_polynomial("6*x1*x2^2", ("x1", "x2"))


def test_jacobian_matrix_shape():
    p2 = P("x1^2 + x2^2")
    m = jacobian_matrix([p2], ["x1", "x2"])
    assert len(m) == 1 and len(m[0]) == 2
    assert m[0][0] == P("2*x1")


def test_polynomial_det_matches_cofactor_3x3():
    vs = ("x1", "x2")
    entries = [
        ["x1", "x2", "1"],
        ["2*x1", "x1*x2", "0"],
        ["x2", "3", "x1"],
    ]
    m = [[parse_polynomial(e, vs) for e in row] for row in entries]
    det = polynomial_det(m)
    # cofactor expansion along the first row, assembled exactly
    def minor(i, j):
        rows = [r for k, r in enumerate(m) if k != i]
        return [
            [e for l, e in enumerate(row) if l != j]
            for row in rows
        ]

    def det2(mm):
        return mm[0][0] * mm[1][1] - mm[0][1] * mm[1][0]

    exp = m[0][0] * det2(minor(0, 0)) - m[0][1] * det2(minor(0, 1)) + m[0][2] * det2(minor(0, 2))
    assert det == exp


def test_pow_zero_and_rejections():
    x = Polynomial.variable(("x",), "x")
    assert (x**0).to_text() == "1"
    with pytest.raises(ValueError):
        x ** (-1)
    with pytest.raises(ValueError):
        parse_polynomial("", ("x",))


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1^", "malformed exponent in term 'x1^'"),
        ("x1^+2", "malformed exponent in term 'x1^'"),
        ("x1^-2", "malformed exponent in term 'x1^'"),
        ("3*x1^x2", "malformed exponent in term '3*x1^x2'"),
        ("x1^2.5", "malformed exponent in term 'x1^2.5'"),
        ("1/0*x1^2", "zero denominator in '1/0'"),
        ("x1^2 - 3/0", "zero denominator in '3/0'"),
    ],
)
def test_text_that_is_not_a_polynomial_is_refused(text, message):
    # never read as a nearby polynomial: x1^+2 is not x1 + 2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        P(text)


def test_decimal_exponent_sign_stays_in_its_coefficient():
    # the sign of 1e-3 is part of the number, not the start of a term
    p = P("1e-3*x1^2 + 2.5E+2*x2 - .5e-1")
    assert p.terms == {(2, 0): Fraction(1, 1000), (0, 1): Fraction(250), (0, 0): Fraction(-1, 20)}
    assert P("x1*1e+2 - 1e-2") == P("100*x1 - 1/100")


def test_variable_ending_in_e_still_splits_terms():
    # xe - 1 and 2*e - 1 are two terms each: the e is a variable, not an exponent
    assert P("xe-1", ("xe",)).terms == {(1,): Fraction(1), (0,): Fraction(-1)}
    assert P("2*e-1+x1e+1", ("e", "x1e")).terms == {(1, 0): Fraction(2), (0, 1): Fraction(1)}


def test_parse_rational():
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational("1." + "0" * 400 + "1") == Fraction(10**401 + 1, 10**401)
    with pytest.raises(ValueError, match="^zero denominator in '2/0'$"):
        parse_rational("2/0")
