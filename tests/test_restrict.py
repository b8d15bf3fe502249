from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from chevfiber import restrict
from chevfiber._linalg import det, matvec, rank as matrix_rank
from chevfiber.polyring import Polynomial, parse_polynomial
from chevfiber.restrict import (
    PairConfig,
    RestrictionError,
    SurjectivityReport,
    _product_exponents,
    adapt_coordinates,
    parse_pair_config,
    rank_d,
    restrict_family,
    split_config,
    surjectivity_check,
)
from chevfiber.rootsys import (
    InvariantFamily,
    _compositions,
    build_root_system,
    fundamental_degrees,
    invariant_family,
    reflections_fix,
    simple_reflections,
    weyl_group,
)

TOY_TEXT = """
# ambient B2 invariants restricted to the axis spanned by e2
name: toy-axis
ambient_type: B
ambient_rank: 2
little_type: A
little_rank: 1
embedding: 0; 1
"""


def toy_config() -> PairConfig:
    return parse_pair_config(TOY_TEXT)


def test_parse_pair_config():
    cfg = toy_config()
    assert cfg.name == "toy-axis"
    assert cfg.ambient_type == "B" and cfg.ambient_rank == 2
    assert cfg.embedding == ((Fraction(0),), (Fraction(1),))


def test_parse_rejects_unknown_and_malformed():
    with pytest.raises(ValueError):
        parse_pair_config(TOY_TEXT + "\ncolor: blue")
    with pytest.raises(ValueError):
        parse_pair_config("ambient_type B")
    with pytest.raises(ValueError):
        parse_pair_config("ambient_type: A\nambient_rank: 2\nlittle_type: A")
    with pytest.raises(ValueError):
        parse_pair_config(TOY_TEXT + "\nambient_rank: 3")


@pytest.mark.parametrize(
    "extra, line, message",
    [
        ("ambient_rank 3", 9, "malformed entry"),
        ("color: blue", 9, "unknown config key 'color'"),
        ("ambient_rank: 3", 9, "duplicate config key 'ambient_rank'"),
        ("\n# a comment\nname: again", 11, "duplicate config key 'name'"),
    ],
)
def test_parse_errors_name_the_line(extra, line, message):
    with pytest.raises(ValueError, match=f"^line {line}: {message}"):
        parse_pair_config(TOY_TEXT + extra)


@pytest.mark.parametrize("embedding, entry", [("1/0; 1", "1/0"), ("0; -2/0", "-2/0")])
def test_zero_denominator_in_embedding_is_refused(embedding, entry):
    text = "ambient_type: B\nambient_rank: 2\nlittle_type: A\nlittle_rank: 1\n"
    with pytest.raises(ValueError, match=f"^zero denominator in '{entry}'$"):
        parse_pair_config(text + f"embedding: {embedding}")


def test_parse_identity_embedding_default():
    cfg = parse_pair_config(
        "ambient_type: A\nambient_rank: 2\nlittle_type: A\nlittle_rank: 2"
    )
    assert cfg.embedding == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    with pytest.raises(ValueError):
        parse_pair_config(
            "ambient_type: B\nambient_rank: 2\nlittle_type: A\nlittle_rank: 1"
        )


def test_config_validation():
    with pytest.raises(ValueError):
        PairConfig("B", 2, "A", 1, ((Fraction(0),), (Fraction(0),)))
    with pytest.raises(ValueError):
        PairConfig("B", 2, "A", 3, ((Fraction(1),), (Fraction(0),)))


def test_adapt_coordinates_toy():
    cfg = toy_config()
    rs = build_root_system("B", 2)
    t_vars, x_vars, change = adapt_coordinates(cfg, rs.form)
    assert t_vars == ("t1",) and x_vars == ("x1",)
    # complement of span(e2) under the identity form is span(e1)
    assert change == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )


def test_adapt_coordinates_skew_subspace():
    cfg = PairConfig("B", 2, "A", 1, ((Fraction(1),), (Fraction(1),)))
    _, _, change = adapt_coordinates(cfg, build_root_system("B", 2).form)
    t_col = (change[0][0], change[1][0])
    x_col = (change[0][1], change[1][1])
    assert x_col == (1, 1)
    # orthogonal complement, cleared to a primitive integer vector
    assert t_col in ((1, -1), (-1, 1))


A3_OVER_A2 = (
    "ambient_type: A\nambient_rank: 3\nlittle_type: A\nlittle_rank: 2\n"
    "embedding: 1 0; 0 1; 0 0\n"
)


def test_adapt_coordinates_non_orthogonal_embedding():
    # the embedded A2 simple roots pair to -1 under the A3 form, so the
    # complement must be orthogonal to their span, not to each in turn
    form = build_root_system("A", 3).form
    _, _, change = adapt_coordinates(parse_pair_config(A3_OVER_A2), form)
    t_col, *x_cols = zip(*change)
    for x_col in x_cols:
        assert sum(a * b for a, b in zip(t_col, matvec(form, x_col))) == 0
    assert det(change) != 0


def test_restrict_toy_oracle():
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, toy_config())
    assert res.selected == (0,)
    assert res.d == 1
    assert res.restricted.polys[0] == parse_polynomial("20*x1^2", ("x1",))
    assert res.adapted[0] == parse_polynomial("20*t1^2 + 20*x1^2", ("t1", "x1"))
    assert res.restricted.degrees == (2,)
    point, value = res.restricted.certificate
    assert value != 0


def test_restrict_explicit_selection_gives_degree_two_fiber():
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, toy_config(), selection=(1,))
    assert res.restricted.degrees == (4,)
    assert res.d == 2
    assert res.restricted.polys[0] == parse_polynomial("68*x1^4", ("x1",))
    assert res.adapted[0] == parse_polynomial(
        "68*t1^4 + 192*t1^2*x1^2 + 68*x1^4", ("t1", "x1")
    )


def test_restrict_split_is_identity():
    fam = invariant_family(build_root_system("A", 2))
    res = restrict_family(fam, split_config("A", 2))
    assert res.t_vars == ()
    assert res.selected == (0, 1)
    assert res.d == 1
    assert res.restricted.polys == fam.polys


def test_restrict_rejects_mismatched_family():
    fam = invariant_family(build_root_system("A", 2))
    with pytest.raises(RestrictionError):
        restrict_family(fam, toy_config())


def test_restrict_rejects_incompatible_embedding():
    # a basis change that does not rescale the invariant form breaks
    # little-group invariance of the restricted polynomials
    fam = invariant_family(build_root_system("A", 2))
    cfg = PairConfig(
        "A", 2, "A", 2,
        ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))),
    )
    with pytest.raises(RestrictionError):
        restrict_family(fam, cfg)


def test_rank_d():
    assert rank_d((2, 4), (2, 4)) == 1
    assert rank_d((4,), (2,)) == 2
    assert rank_d((2, 6, 8, 12), (2, 4, 6, 8)) == 3
    with pytest.raises(RestrictionError):
        rank_d((3,), (2,))


def test_selection_validation():
    fam = invariant_family(build_root_system("B", 2))
    with pytest.raises(RestrictionError):
        restrict_family(fam, toy_config(), selection=(0, 1))
    with pytest.raises(RestrictionError):
        restrict_family(fam, toy_config(), selection=(5,))
    with pytest.raises(ValueError):
        restrict_family(fam, toy_config(), selection="last")


ZERO_OR_DEPENDENT = "restricted invariants are zero or dependent"


def test_repeated_index_is_dependent():
    fam = invariant_family(build_root_system("B", 2))
    with pytest.raises(RestrictionError, match=ZERO_OR_DEPENDENT):
        restrict_family(fam, split_config("B", 2), selection=(0, 0))


def test_member_restricting_to_zero_is_never_kept():
    # x1^2*x2^2 is B2-invariant and vanishes on the e2 axis of the toy pair
    fam = invariant_family(build_root_system("B", 2))
    vanishing = parse_polynomial("x1^2*x2^2", ("x1", "x2"))
    hand = InvariantFamily(polys=(vanishing, fam.polys[0]), group=fam.group)
    with pytest.raises(RestrictionError, match=ZERO_OR_DEPENDENT):
        restrict_family(hand, toy_config(), selection=(0,))
    res = restrict_family(hand, toy_config())
    assert res.selected == (1,)
    assert res.restricted == restrict_family(fam, toy_config()).restricted


def test_reversed_selection_keeps_its_order():
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, split_config("B", 2), selection=(1, 0))
    assert res.selected == (1, 0)
    assert res.restricted.degrees == (4, 2)
    assert res.restricted.polys == fam.polys[::-1]
    assert res.d == 1
    # swapping the two rows of the Jacobian flips the sign of its value
    point, value = fam.certificate
    assert res.restricted.certificate == (point, -value)


def test_members_after_the_last_kept_are_never_expanded():
    # a member over three variables cannot be adapted to a rank-2 change
    fam = invariant_family(build_root_system("B", 2))
    stray = parse_polynomial("y1 + y2 + y3", ("y1", "y2", "y3"))
    hand = InvariantFamily(polys=fam.polys + (stray,), group=fam.group)
    assert restrict_family(hand, toy_config()).selected == (0,)
    with pytest.raises(ValueError):
        restrict_family(hand, toy_config(), selection=(2,))


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("BC", 2)])
def test_surjectivity_holds_for_splits(key):
    rs = build_root_system(*key)
    fam = invariant_family(rs)
    report = surjectivity_check(fam, degree_bound=8)
    assert report.ok and report.failing_degree is None


def test_surjectivity_fails_for_quartic_only():
    # x^4 alone cannot produce the degree-2 invariant of the sign group
    rs = build_root_system("A", 1)
    fam = InvariantFamily(polys=(parse_polynomial("x1^4", ("x1",)),), group=rs)
    report = surjectivity_check(fam, degree_bound=12)
    assert not report.ok
    assert report.failing_degree == 2


def test_surjectivity_fails_via_restriction():
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, toy_config(), selection=(1,))
    report = surjectivity_check(res.restricted, degree_bound=12)
    assert not report.ok and report.failing_degree == 2


def test_surjectivity_toy_selection_passes():
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, toy_config())
    report = surjectivity_check(res.restricted, degree_bound=12)
    assert report.ok


def reynolds_surjectivity_check(family, degree_bound):
    """Reference check: Reynolds-average every monomial over the whole group.

    At each degree the averages span the invariants; surjectivity fails at
    the first degree where they leave the span of the family products.
    """
    little = family.group
    variables = family.variables
    group = weyl_group(little)
    for k in range(1, degree_bound + 1):
        monos = list(_compositions(k, len(variables)))
        index = {e: i for i, e in enumerate(monos)}

        def vec(p):
            row = [Fraction(0)] * len(monos)
            for e, c in p.terms.items():
                row[index[e]] = c
            return row

        inv_rows = []
        for e in monos:
            mono = Polynomial(variables, {e: 1})
            acc = Polynomial.zero(variables)
            for w in group:
                acc = acc + mono.linear_change(w)
            avg = acc * Fraction(1, len(group))
            if not avg.is_zero:
                inv_rows.append(vec(avg))
        if not inv_rows:
            continue
        product_rows = []
        for a in _product_exponents(family.degrees, k):
            prod = Polynomial.constant(variables, 1)
            for p, ai in zip(family.polys, a):
                prod = prod * p**ai
            product_rows.append(vec(prod))
        if matrix_rank(product_rows + inv_rows) != matrix_rank(product_rows):
            return SurjectivityReport(ok=False, failing_degree=k, degree_bound=degree_bound)
    return SurjectivityReport(ok=True, failing_degree=None, degree_bound=degree_bound)


def _reference_family(name):
    if name in ("toy", "quartic"):
        selection = (1,) if name == "quartic" else "first-by-degree"
        fam = invariant_family(build_root_system("B", 2))
        return restrict_family(fam, toy_config(), selection=selection).restricted
    if name == "x1^4":
        return InvariantFamily(
            polys=(parse_polynomial("x1^4", ("x1",)),), group=build_root_system("A", 1)
        )
    key = (name[:-1], int(name[-1]))
    fam = invariant_family(build_root_system(*key))
    return restrict_family(fam, split_config(*key)).restricted


@pytest.mark.parametrize(
    "name, bound",
    [(name, 12) for name in ("toy", "quartic", "x1^4", "A2", "B2", "C2", "BC2", "G2")]
    + [(name, 4) for name in ("A3", "B3", "C3")],
)
def test_surjectivity_matches_reynolds_reference(name, bound):
    family = _reference_family(name)
    want = reynolds_surjectivity_check(family, bound)
    assert surjectivity_check(family, degree_bound=bound) == want
    # the cases cover both verdicts
    assert want.ok == (name not in ("quartic", "x1^4"))


def _degree_verdicts(family, top):
    """Whether the family products span the invariants, at each degree
    1..top: the rank test run at every degree, with no stop."""
    little_degrees = fundamental_degrees(family.group.type_name, family.group.rank)
    verdicts = []
    for k in range(1, top + 1):
        products = []
        for a in _product_exponents(family.degrees, k):
            prod = Polynomial.constant(family.variables, 1)
            for p, ai in zip(family.polys, a):
                prod = prod * p**ai
            products.append(prod)
        monos = sorted({e for p in products for e in p.terms})
        rows = [[p.terms.get(e, 0) for e in monos] for p in products]
        verdicts.append(matrix_rank(rows) == len(_product_exponents(little_degrees, k)))
    return verdicts


STOP_CASES = ("toy", "quartic", "x1^4", "A2", "B2", "C2", "BC2", "G2", "A3", "B3", "C3")


@pytest.mark.parametrize("name", STOP_CASES)
def test_surjectivity_stop_agrees_with_every_degree(name):
    # the report is the one a test of every degree up to the bound gives
    family = _reference_family(name)
    verdicts = _degree_verdicts(family, 12)
    for bound in range(1, 13):
        failing = next((k for k in range(1, bound + 1) if not verdicts[k - 1]), None)
        want = SurjectivityReport(ok=failing is None, failing_degree=failing, degree_bound=bound)
        assert surjectivity_check(family, degree_bound=bound) == want
    # once every degree up to the top little degree passes, so does every
    # degree above it: the stop loses nothing
    top = max(fundamental_degrees(family.group.type_name, family.group.rank))
    assert all(verdicts) == all(verdicts[:top]) == (name not in ("quartic", "x1^4"))


@pytest.mark.parametrize("name", STOP_CASES)
def test_surjectivity_builds_no_product_above_the_top_little_degree(name, monkeypatch):
    family = _reference_family(name)
    top = max(fundamental_degrees(family.group.type_name, family.group.rank))
    built, ranked = [], []
    exponents = restrict._product_exponents
    monkeypatch.setattr(
        restrict, "_product_exponents",
        lambda degrees, k: built.append(k) or exponents(degrees, k),
    )
    monkeypatch.setattr(
        restrict, "matrix_rank", lambda rows: ranked.append(rows) or matrix_rank(rows)
    )
    for bound in range(1, 13):
        built.clear()
        ranked.clear()
        report = surjectivity_check(family, degree_bound=bound)
        stop = min(bound, top) if report.ok else report.failing_degree
        # each checked degree builds its products and the little count once,
        # and ranks one product matrix
        assert built == [k for k in range(1, stop + 1) for _ in range(2)]
        assert len(ranked) == stop
    # the failing families fail at the top little degree itself
    assert report.ok or report.failing_degree == top == 2


@pytest.mark.parametrize("bound", [0, -3])
def test_surjectivity_rejects_degree_bound_below_one(bound):
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, toy_config(), selection=(1,))
    with pytest.raises(ValueError, match="degree_bound must be at least 1"):
        surjectivity_check(res.restricted, degree_bound=bound)


def test_surjectivity_rejects_non_invariant_family():
    # x1^3 changes sign under the reflection of A1; no verdict on it is sound
    fam = InvariantFamily(
        polys=(parse_polynomial("x1^3", ("x1",)),), group=build_root_system("A", 1)
    )
    with pytest.raises(RestrictionError, match="not little-group invariant"):
        surjectivity_check(fam, degree_bound=12)


def test_surjectivity_tests_invariance_unless_restrict_family_did(monkeypatch):
    # restrict_family tests its restricted family once, and the memo keeps
    # the verdict, so surjectivity_check does not test it again; a copy with
    # a member swapped for a non-invariant one is tested afresh, and rejected.
    # The memo is process-wide: cleared, it holds no verdict an earlier test left
    reflections_fix.cache_clear()
    changes = []
    linear_change = Polynomial.linear_change
    monkeypatch.setattr(
        Polynomial, "linear_change",
        lambda p, *args: changes.append(p) or linear_change(p, *args),
    )
    fam = invariant_family(build_root_system("B", 2))
    changes.clear()
    res = restrict_family(fam, toy_config())
    # one member adapted, and its restriction tested against the one simple
    # reflection of A1
    assert changes == [fam.polys[0], res.restricted.polys[0]]
    assert res.restricted.invariant
    assert surjectivity_check(res.restricted).ok
    assert len(changes) == 2
    odd = dataclasses.replace(res.restricted, polys=(parse_polynomial("x1^3", ("x1",)),))
    with pytest.raises(RestrictionError, match="not little-group invariant"):
        surjectivity_check(odd)
    assert changes[2:] == list(odd.polys)


def test_surjectivity_rejects_inhomogeneous_member():
    # x1^4 + x1^2 is A1-invariant but has no degree, so the degree-k
    # products it would enter are not defined
    fam = InvariantFamily(
        polys=(parse_polynomial("x1^4 + x1^2", ("x1",)),), group=build_root_system("A", 1)
    )
    with pytest.raises(ValueError, match="family member 1 is not homogeneous"):
        surjectivity_check(fam, degree_bound=12)


def test_family_without_a_group_has_degrees_but_no_invariance_verdict():
    fam = InvariantFamily(polys=(parse_polynomial("x1^2", ("x1",)),), group=None)
    assert fam.degrees == (2,)
    with pytest.raises(ValueError, match="no root system attached"):
        fam.invariant


def test_invariance_is_proved_at_t_zero_only():
    # B2 on the line through (1, 2), keeping the quartic: its restriction is
    # fixed by the reflection x1 -> -x1 of A1, but the adapted member is not
    # fixed by (t1, x1) -> (t1, -x1), so `invariant` says nothing off t = 0
    cfg = parse_pair_config(
        "ambient_type: B\nambient_rank: 2\nlittle_type: A\nlittle_rank: 1\nembedding: 1; 2\n"
    )
    res = restrict_family(invariant_family(build_root_system("B", 2)), cfg, selection=(1,))
    (w,), (u,) = res.restricted.polys, res.adapted
    assert w == parse_polynomial("1924*x1^4", ("x1",))
    (s,) = simple_reflections(res.restricted.group)
    assert w.linear_change(s) == w
    assert res.restricted.invariant
    assert u == parse_polynomial(
        "1924*t1^4 - 672*t1^3*x1 + 3456*t1^2*x1^2 + 672*t1*x1^3 + 1924*x1^4", ("t1", "x1")
    )
    flip = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    assert u.linear_change(flip) != u
