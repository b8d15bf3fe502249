from __future__ import annotations

import dataclasses

import pytest

from chevfiber.pairdb import (
    EXCEPTIONAL_SIGNATURES,
    IntegrityError,
    PairRecord,
    b_exceptional_list,
    corrected_prop31,
    dual_of,
    is_b_exceptional,
    is_exceptional,
    is_split,
    load_database,
    parse_record,
    parse_sigma,
    verify_database,
)


@pytest.fixture(scope="module")
def db():
    return load_database()


def test_parse_sigma():
    assert parse_sigma("BC2") == ("BC", 2)
    assert parse_sigma("E6") == ("E", 6)
    assert parse_sigma("F4") == ("F", 4)
    with pytest.raises(ValueError):
        parse_sigma("Z9")
    with pytest.raises(ValueError):
        parse_sigma("BC")


def test_database_loads_35(db):
    assert len(db) == 35
    assert len(corrected_prop31(db)) == 35


def test_every_record_is_exceptional(db):
    assert all(is_exceptional(r) for r in db)


def test_exceptional_criterion_is_signature_set():
    rec = PairRecord(
        "g", "h", ("E", 6), None, ("BC", 2), None, False, "unverified-by-erratum"
    )
    assert is_exceptional(rec)
    rec2 = PairRecord(
        "g", "h", ("E", 6), None, ("BC", 1), None, False, "unverified-by-erratum"
    )
    assert not is_exceptional(rec2)
    rec3 = PairRecord(
        "g", "h", ("F", 4), None, ("BC", 1), None, False, "unverified-by-erratum"
    )
    assert not is_exceptional(rec3)


def test_b_exceptional_list_matches_named_rows(db):
    rows = b_exceptional_list(db)
    assert len(rows) == 10
    names = {(r.name_g, r.name_h) for r in rows}
    assert ("e6(-14)", "sp(2,2)") in names
    assert ("e6(-26)", "sp(3,1)") in names
    assert ("e7(-25)", "su(6,2)") in names
    assert ("e7(-25)", "su*(8)") in names
    assert ("e8(-24)", "so(12,4)") in names
    assert ("e8(-24)", "so*(16)") in names
    group_rows = [r for r in rows if r.is_group_case]
    assert len(group_rows) == 4
    assert all(is_b_exceptional(r) for r in rows)
    assert all(is_exceptional(r) for r in rows)


def test_replacements_present_removals_absent(db):
    names = {(r.name_g, r.name_h) for r in db}
    assert ("e6(C)", "so(10,C)+C") in names
    assert ("e6(C)", "f4(C)") in names
    assert ("e7(C)", "e6(C)+C") in names
    assert ("e8(C)", "e7(C)+sl(2,C)") in names
    assert ("e6(C)", "e6(-14)") not in names
    assert ("e6(C)", "e6(-26)") not in names
    assert ("e7(C)", "e7(-25)") not in names
    assert ("e8(C)", "e8(-24)") not in names


def test_provenance_split(db):
    confirmed = [r for r in db if r.provenance == "erratum-confirmed"]
    unverified = [r for r in db if r.provenance == "unverified-by-erratum"]
    assert len(confirmed) == 4
    assert len(unverified) == 31
    assert all(r.name_g.endswith("(C)") for r in confirmed)


def test_split_records(db):
    splits = [r for r in db if r.sigma_b is not None and is_split(r)]
    assert len(splits) == 17
    for r in splits:
        assert not is_b_exceptional(r)


def test_is_split_examples(db):
    riemannian = next(r for r in db if (r.name_g, r.name_h) == ("e6(-26)", "f4"))
    assert is_split(riemannian)
    bexc = next(r for r in db if (r.name_g, r.name_h) == ("e6(-14)", "sp(2,2)"))
    assert not is_split(bexc)
    # a group case built from a split g has b equal to a_q
    split_group = PairRecord(
        "gxg", "d(g)", ("E", 8), ("E", 8), ("E", 8), None, True,
        "unverified-by-erratum",
    )
    assert is_split(split_group)
    assert not is_exceptional(split_group)


def test_sigma_b_missing_raises(db):
    rec = next(r for r in db if r.sigma_b is None)
    with pytest.raises(ValueError):
        is_b_exceptional(rec)
    with pytest.raises(ValueError):
        is_split(rec)


def test_dual_links(db):
    complex_row = next(r for r in db if (r.name_g, r.name_h) == ("e7(C)", "e6(C)+C"))
    dual = dual_of(complex_row, db)
    assert dual.is_group_case
    assert dual.name_g == "e7(-25)xe7(-25)"
    assert dual_of(dual, db) == complex_row
    riemannian = next(r for r in db if (r.name_g, r.name_h) == ("e6(-26)", "f4"))
    assert dual_of(riemannian, db) == riemannian
    unlinked = next(r for r in db if r.dual_name is None)
    with pytest.raises(ValueError):
        dual_of(unlinked, db)


def test_dual_preserves_signature_and_verdict(db):
    for r in db:
        if r.dual_name is None:
            continue
        dual = dual_of(r, db)
        assert (dual.sigma_c, dual.sigma_aq) == (r.sigma_c, r.sigma_aq)
        assert is_exceptional(dual) == is_exceptional(r)
        assert dual_of(dual, db) == r


def test_no_exceptional_signature_is_split():
    # a split record has sigma_b == sigma_aq, so it is b-exceptional only if
    # an exceptional signature has equal components; verify_database relies
    # on there being none
    assert all(c != aq for c, aq in EXCEPTIONAL_SIGNATURES)


def test_verify_database_clean(db):
    assert verify_database(db) == []


def test_verify_catches_count_mismatch(db):
    problems = verify_database(db[:-1])
    assert any("34" in p for p in problems)


def test_parse_record_validation():
    with pytest.raises(ValueError):
        parse_record("a | b | E6 | - | BC2 | -")
    with pytest.raises(ValueError):
        parse_record("a | b | E6 | - | BC2 | - | group")
    with pytest.raises(ValueError):
        parse_record("a | b | E6 | - | BC2 | - | made-up-token")
    rec = parse_record(
        "gxg | d(g) | E8 | E8 | F4 | - | group,unverified-by-erratum"
    )
    assert rec.is_group_case and rec.sigma_b == ("E", 8)


def test_rank_monotonicity_enforced():
    with pytest.raises(ValueError):
        PairRecord(
            "g", "h", ("E", 6), ("A", 1), ("BC", 2), None, False,
            "unverified-by-erratum",
        )


def test_group_cases_marked(db):
    group_rows = [r for r in db if r.is_group_case]
    assert len(group_rows) == 4
    assert all("x" in r.name_g and r.name_h.startswith("d(") for r in group_rows)


def _edit(db, name, **changes):
    """The table with the record (name_g, name_h) = name replaced."""
    return [dataclasses.replace(r, **changes) if (r.name_g, r.name_h) == name else r for r in db]


@pytest.mark.parametrize(
    "name, changes, check, message",
    [
        (("e6(C)", "so(10,C)+C"), {"name_h": "so(10,C)"}, corrected_prop31,
         "missing corrected entry ('e6(C)', 'so(10,C)+C')"),
        (("e6(-14)", "f4(-20)"), {"name_g": "e6(C)", "name_h": "e6(-14)"}, corrected_prop31,
         "withdrawn entry ('e6(C)', 'e6(-14)') is present"),
        (("e6(6)", "sp(2,2)"), {"sigma_aq": ("B", 2)}, corrected_prop31,
         "non-exceptional record (e6(6), sp(2,2))"),
        (("e6(-14)", "sp(2,2)"), {"sigma_b": None}, b_exceptional_list,
         "expected 10 b-exceptional records, found 9"),
        (("e6(-14)", "sp(2,2)"), {"name_h": "sp(2,2)'"}, b_exceptional_list,
         "missing b-exceptional entry ('e6(-14)', 'sp(2,2)')"),
        (("e6(-14)xe6(-14)", "d(e6(-14))"), {"is_group_case": False}, b_exceptional_list,
         "missing group case for e6(-14)"),
    ],
    ids=["corrected", "withdrawn", "non-exceptional", "b-count", "b-named", "b-group"],
)
def test_table_checks_name_what_breaks(db, name, changes, check, message):
    broken = _edit(db, name, **changes)
    with pytest.raises(IntegrityError) as exc:
        check(broken)
    assert str(exc.value) == message
    assert message in verify_database(broken)


def test_broken_dual_links_are_reported(db):
    complex_row = ("e7(C)", "e6(C)+C")
    broken = _edit(db, complex_row, dual_name="e7(-25)/nothing")
    rec = next(r for r in broken if (r.name_g, r.name_h) == complex_row)
    with pytest.raises(IntegrityError, match=r"^dual link 'e7\(-25\)/nothing' resolves to 0 records$"):
        dual_of(rec, broken)
    # the group case still links back to the complex row, which no longer
    # links to it
    assert verify_database(broken) == [
        "dual link 'e7(-25)/nothing' resolves to 0 records",
        "dual link of e7(-25)xe7(-25)/d(e7(-25)) is not an involution",
    ]
    # a dual with another signature is refused
    shifted = _edit(db, ("e6(-26)", "f4"), sigma_c=("E", 7), dual_name="e6(-26)/f4(-20)")
    rec = next(r for r in shifted if (r.name_g, r.name_h) == ("e6(-26)", "f4"))
    with pytest.raises(IntegrityError, match=r"^dual of \(e6\(-26\), f4\) changes the signature$"):
        dual_of(rec, shifted)


def test_b_exceptional_row_that_is_not_exceptional_is_reported(db):
    broken = _edit(db, ("e6(-14)", "sp(2,2)"), sigma_c=("E", 7))
    problems = verify_database(broken)
    assert "non-exceptional record (e6(-14), sp(2,2))" in problems
    assert problems[-1] == "b-exceptional e6(-14)/sp(2,2) is not exceptional"

