"""Classification data for exceptional symmetric pairs.

A pair is exceptional when the restriction of invariants from the maximal
torus system Sigma(c) to the restricted system Sigma(a_q) fails to be
surjective, which happens exactly for the signatures (E6, BC2), (E6, A2),
(E7, C3), (E8, F4).  The b-exceptional condition is the same criterion read
on (Sigma(b), Sigma(a_q)).

The shipped table has 35 rows.  Four of them were corrected against the
published erratum and carry provenance "erratum-confirmed"; the other 31 are
taken from the original table and marked "unverified-by-erratum".  Queries
never mix the two silently: the provenance travels with each record.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from ._common import IntegrityError, _config_lines, parse_sigma

Sigma = tuple[str, int]

EXCEPTIONAL_SIGNATURES: frozenset[tuple[Sigma, Sigma]] = frozenset(
    {
        (("E", 6), ("BC", 2)),
        (("E", 6), ("A", 2)),
        (("E", 7), ("C", 3)),
        (("E", 8), ("F", 4)),
    }
)

PROVENANCE_TOKENS = ("erratum-confirmed", "unverified-by-erratum")

REPLACEMENT_PAIRS = (
    ("e6(C)", "so(10,C)+C"),
    ("e6(C)", "f4(C)"),
    ("e7(C)", "e6(C)+C"),
    ("e8(C)", "e7(C)+sl(2,C)"),
)

REMOVED_PAIRS = (
    ("e6(C)", "e6(-14)"),
    ("e6(C)", "e6(-26)"),
    ("e7(C)", "e7(-25)"),
    ("e8(C)", "e8(-24)"),
)


def format_sigma(sigma: Sigma | None) -> str:
    return "-" if sigma is None else f"{sigma[0]}{sigma[1]}"


@dataclass(frozen=True)
class PairRecord:
    name_g: str
    name_h: str
    sigma_c: Sigma
    sigma_b: Sigma | None
    sigma_aq: Sigma
    dual_name: str | None
    is_group_case: bool
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCE_TOKENS:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        ranks = [self.sigma_aq[1]]
        if self.sigma_b is not None:
            ranks.append(self.sigma_b[1])
        ranks.append(self.sigma_c[1])
        if ranks != sorted(ranks):
            raise ValueError(
                f"rank monotonicity violated for ({self.name_g}, {self.name_h})"
            )

    @property
    def label(self) -> str:
        return f"{self.name_g}/{self.name_h}"


def parse_record(line: str) -> PairRecord:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 7:
        raise ValueError(f"expected 7 fields, got {len(parts)}: {line!r}")
    name_g, name_h, c, b, aq, dual, flags = parts
    flag_set = {f.strip() for f in flags.split(",") if f.strip()}
    group = "group" in flag_set
    flag_set.discard("group")
    if len(flag_set) != 1:
        raise ValueError(f"record needs exactly one provenance token: {line!r}")
    return PairRecord(
        name_g=name_g,
        name_h=name_h,
        sigma_c=parse_sigma(c),
        sigma_b=None if b == "-" else parse_sigma(b),
        sigma_aq=parse_sigma(aq),
        dual_name=None if dual == "-" else dual,
        is_group_case=group,
        provenance=flag_set.pop(),
    )


def load_database(path=None) -> tuple[PairRecord, ...]:
    """Load pair records from a file, or the packaged table by default."""
    if path is None:
        text = (
            resources.files("chevfiber.data")
            .joinpath("exceptional_pairs.txt")
            .read_text(encoding="utf-8")
        )
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    records = []
    for lineno, line in _config_lines(text):
        try:
            records.append(parse_record(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return tuple(records)


def is_exceptional(rec: PairRecord) -> bool:
    """Restriction from Sigma(c) to Sigma(a_q) fails to be surjective."""
    return (rec.sigma_c, rec.sigma_aq) in EXCEPTIONAL_SIGNATURES


def is_b_exceptional(rec: PairRecord) -> bool:
    """Same four signatures, read on (Sigma(b), Sigma(a_q))."""
    if rec.sigma_b is None:
        raise ValueError(
            f"record ({rec.name_g}, {rec.name_h}) does not carry sigma_b"
        )
    return (rec.sigma_b, rec.sigma_aq) in EXCEPTIONAL_SIGNATURES


def is_split(rec: PairRecord) -> bool:
    """b equals a_q, so the identity restriction is trivially surjective."""
    if rec.sigma_b is None:
        raise ValueError(
            f"record ({rec.name_g}, {rec.name_h}) does not carry sigma_b"
        )
    return rec.sigma_b == rec.sigma_aq


def corrected_prop31(db: Iterable[PairRecord]) -> list[PairRecord]:
    """The corrected 35-entry table of exceptional pairs.

    Validates the count, the exceptional criterion on every row, and the
    four corrected entries (present) against the four withdrawn ones
    (absent) before returning the rows.
    """
    records = list(db)
    if len(records) != 35:
        raise IntegrityError(f"expected 35 records, found {len(records)}")
    names = {(r.name_g, r.name_h) for r in records}
    for pair in REPLACEMENT_PAIRS:
        if pair not in names:
            raise IntegrityError(f"missing corrected entry {pair}")
    for pair in REMOVED_PAIRS:
        if pair in names:
            raise IntegrityError(f"withdrawn entry {pair} is present")
    for r in records:
        if not is_exceptional(r):
            raise IntegrityError(f"non-exceptional record ({r.name_g}, {r.name_h})")
    return records


B_EXCEPTIONAL_NAMED = (
    ("e6(-14)", "sp(2,2)"),
    ("e6(-26)", "sp(3,1)"),
    ("e7(-25)", "su(6,2)"),
    ("e7(-25)", "su*(8)"),
    ("e8(-24)", "so(12,4)"),
    ("e8(-24)", "so*(16)"),
)

B_EXCEPTIONAL_GROUP_BASES = ("e6(-14)", "e6(-26)", "e7(-25)", "e8(-24)")


def b_exceptional_list(db: Iterable[PairRecord]) -> list[PairRecord]:
    """The 10 records failing surjectivity already from Sigma(b)."""
    out = [
        r for r in db if r.sigma_b is not None and is_b_exceptional(r)
    ]
    if len(out) != 10:
        raise IntegrityError(f"expected 10 b-exceptional records, found {len(out)}")
    names = {(r.name_g, r.name_h) for r in out}
    for pair in B_EXCEPTIONAL_NAMED:
        if pair not in names:
            raise IntegrityError(f"missing b-exceptional entry {pair}")
    group_bases = {
        r.name_g for r in out if r.is_group_case
    }
    for base in B_EXCEPTIONAL_GROUP_BASES:
        if f"{base}x{base}" not in group_bases:
            raise IntegrityError(f"missing group case for {base}")
    return out


def dual_of(rec: PairRecord, db: Iterable[PairRecord]) -> PairRecord:
    """Resolve the linked dual record; its signature must match."""
    if rec.dual_name is None:
        raise ValueError(f"({rec.name_g}, {rec.name_h}) has no recorded dual")
    matches = [r for r in db if r.label == rec.dual_name]
    if len(matches) != 1:
        raise IntegrityError(
            f"dual link {rec.dual_name!r} resolves to {len(matches)} records"
        )
    dual = matches[0]
    if (dual.sigma_c, dual.sigma_aq) != (rec.sigma_c, rec.sigma_aq):
        raise IntegrityError(
            f"dual of ({rec.name_g}, {rec.name_h}) changes the signature"
        )
    return dual


def verify_database(db: Iterable[PairRecord]) -> list[str]:
    """Run every stated invariant; returns the list of violations (empty = ok)."""
    records = list(db)
    problems: list[str] = []

    def check(fn, *args):
        try:
            return fn(*args)
        except (IntegrityError, ValueError) as exc:
            problems.append(str(exc))
            return None

    check(corrected_prop31, records)
    b_exceptional = check(b_exceptional_list, records) or []

    confirmed = [r for r in records if r.provenance == "erratum-confirmed"]
    if len(confirmed) != 4:
        problems.append(
            f"expected 4 erratum-confirmed records, found {len(confirmed)}"
        )

    for r in records:
        if r.dual_name is None:
            continue
        dual = check(dual_of, r, records)
        if dual is None:
            continue
        if dual.dual_name != r.label:
            problems.append(f"dual link of {r.label} is not an involution")

    for r in b_exceptional:
        if not is_exceptional(r):
            problems.append(f"b-exceptional {r.label} is not exceptional")

    return problems
