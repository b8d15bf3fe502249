"""Restriction of invariant families to a subspace with its own small group.

A PairConfig names an ambient root system, a little root system acting on a
subspace, and an embedding matrix whose columns express the subspace basis
in ambient coordinates.  Restriction substitutes adapted coordinates
u = [T | X](t; x), where T is an exact form-orthogonal complement of the
embedding, keeps a square subfamily whose restriction to t = 0 stays
algebraically independent, and certifies that independence at a rational
point.

The fiber degree d is the quotient of the products of the selected ambient
degrees by the little fundamental degrees; it must come out an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Collection, Sequence

from ._common import RestrictionError, _config_lines
from ._linalg import (
    Matrix,
    Vector,
    clear_denominators,
    matvec,
    rank as matrix_rank,
    to_fraction_rows,
)
from .polyring import Polynomial, parse_rational
from .rootsys import (
    InvariantFamily,
    _identity_form,
    _jacobian_certificate,
    _product_exponents,
    _validate,
    build_root_system,
)


@dataclass(frozen=True)
class PairConfig:
    ambient_type: str
    ambient_rank: int
    little_type: str
    little_rank: int
    embedding: Matrix  # ambient_rank rows, little_rank columns
    name: str = ""

    def __post_init__(self):
        _validate(self.ambient_type, self.ambient_rank)
        _validate(self.little_type, self.little_rank)
        if self.little_rank > self.ambient_rank:
            raise ValueError("little rank exceeds ambient rank")
        emb = tuple(map(tuple, to_fraction_rows(self.embedding)))
        if len(emb) != self.ambient_rank or any(
            len(row) != self.little_rank for row in emb
        ):
            raise ValueError(
                f"embedding must be {self.ambient_rank} rows of {self.little_rank} entries"
            )
        if matrix_rank(emb) != self.little_rank:
            raise ValueError("embedding columns are linearly dependent")
        object.__setattr__(self, "embedding", emb)


_PAIR_KEYS = {
    "name",
    "ambient_type",
    "ambient_rank",
    "little_type",
    "little_rank",
    "embedding",
}


def _read_config(
    text: str, keys: Collection[str], repeated: Collection[str] = ()
) -> dict[str, str | list[str]]:
    """Read `key: value` lines, `#` starting a comment, into a dict.

    A key in `repeated` maps to the list of its values in file order; any
    other key must appear at most once.  Malformed lines, keys outside
    `keys` and duplicates raise ValueError naming the line.
    """
    data: dict[str, str | list[str]] = {key: [] for key in repeated}
    for lineno, line in _config_lines(text):
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ValueError(f"line {lineno}: malformed entry {line!r}")
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in repeated:
            data[key].append(value)
        elif key in data:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        else:
            data[key] = value
    return data


def parse_pair_config(text: str) -> PairConfig:
    """Parse the key: value pair-config format.

    Lines are `key: value`; `#` starts a comment.  The embedding value lists
    rows separated by `;`, each row whitespace-separated rational entries.
    An omitted embedding means the identity (equal ranks only).
    """
    data = _read_config(text, _PAIR_KEYS)
    for required in ("ambient_type", "ambient_rank", "little_type", "little_rank"):
        if required not in data:
            raise ValueError(f"missing config key {required!r}")
    ambient_rank = int(data["ambient_rank"])
    little_rank = int(data["little_rank"])
    if "embedding" in data:
        rows = data["embedding"].split(";")
        embedding = tuple(tuple(map(parse_rational, row.split())) for row in rows)
    else:
        if ambient_rank != little_rank:
            raise ValueError("embedding may be omitted only when ranks agree")
        embedding = _identity_form(little_rank)
    return PairConfig(
        ambient_type=data["ambient_type"],
        ambient_rank=ambient_rank,
        little_type=data["little_type"],
        little_rank=little_rank,
        embedding=embedding,
        name=data.get("name", ""),
    )


def load_pair_config(path) -> PairConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pair_config(fh.read())


def adapt_coordinates(
    config: PairConfig, form: Matrix
) -> tuple[tuple[str, ...], tuple[str, ...], Matrix]:
    """Split ambient coordinates into (t; x) along the embedded subspace.

    Returns (t_vars, x_vars, change) where change has the complement columns
    first and the embedding columns last, so ambient u = change @ (t; x).
    One Gram-Schmidt pass under the invariant form runs over the embedding
    columns, which need not be orthogonal, then the unit vectors; the n - r
    nonzero unit-vector residues, scaled to primitive integer vectors, are
    the complement.
    """
    n, r = config.ambient_rank, config.little_rank
    columns: list[Vector] = [
        tuple(config.embedding[i][j] for i in range(n)) for j in range(r)
    ]

    def pairing(u, v):
        return sum(a * b for a, b in zip(u, matvec(form, v)))

    basis: list[Vector] = []
    complement: list[Vector] = []
    units = [[int(k == i) for k in range(n)] for i in range(n)]
    for v in columns + units:
        if len(complement) == n - r:
            break
        for b in basis:
            coeff = pairing(v, b) / pairing(b, b)
            v = [x - coeff * y for x, y in zip(v, b)]
        if len(basis) < r:
            basis.append(v)
        elif any(x != 0 for x in v):
            complement.append(clear_denominators(v))
            basis.append(complement[-1])
    t_vars = tuple(f"t{i + 1}" for i in range(n - r))
    x_vars = tuple(f"x{i + 1}" for i in range(r))
    ordered = complement + columns
    change = tuple(tuple(ordered[j][i] for j in range(n)) for i in range(n))
    return t_vars, x_vars, change


def _require_invariant(family: InvariantFamily) -> None:
    """Raise RestrictionError unless `family.invariant` holds."""
    if not family.invariant:
        raise RestrictionError(
            "restricted invariant is not little-group invariant; "
            "the embedding does not respect the little root system"
        )


def rank_d(selected_degrees: Sequence[int], little_degrees: Sequence[int]) -> int:
    """Generic fiber count d = prod(selected) / prod(little); must divide."""
    num, den = math.prod(selected_degrees), math.prod(little_degrees)
    d, rem = divmod(num, den)
    if rem:
        raise RestrictionError(
            f"degree products {num}/{den} do not divide; the pair is inconsistent"
        )
    return d


@dataclass(frozen=True)
class Restriction:
    """The ambient members `selected`, in adapted coordinates (t; x), and
    their restrictions to t = 0, a family of the little group
    `restricted.group`; d is the generic fiber degree."""

    config: PairConfig
    t_vars: tuple[str, ...]
    x_vars: tuple[str, ...]
    selected: tuple[int, ...]
    adapted: tuple[Polynomial, ...]
    restricted: InvariantFamily
    d: int


def restrict_family(
    family: InvariantFamily,
    config: PairConfig,
    selection: str | Sequence[int] = "first-by-degree",
) -> Restriction:
    """Restrict an ambient family along a pair configuration.

    The candidates are all members in order ("first-by-degree") or exactly
    little-rank many 0-based indices, in the order given.  One pass adapts,
    restricts and certifies each candidate once and keeps it when its
    restriction is nonzero and independent of those kept; it stops at
    little-rank many, so later members are never expanded.  Keeping fewer
    raises RestrictionError ("restricted invariants are zero or dependent").
    The restricted family must be little-group invariant (RestrictionError
    otherwise), which proves invariance at t = 0, not of the adapted members.
    """
    if family.group is None:
        raise RestrictionError("restriction needs a family with a root system attached")
    if (family.group.type_name, family.group.rank) != (
        config.ambient_type,
        config.ambient_rank,
    ):
        raise RestrictionError("family group does not match the config ambient type")
    little = build_root_system(config.little_type, config.little_rank)
    t_vars, x_vars, change = adapt_coordinates(config, family.group.form)

    r = config.little_rank
    if isinstance(selection, str):
        if selection != "first-by-degree":
            raise ValueError(f"unknown selection rule {selection!r}")
        candidates = range(len(family.polys))
    else:
        candidates = [int(i) for i in selection]
        if len(candidates) != r:
            raise RestrictionError(
                f"selection must pick exactly {r} invariants, got {len(candidates)}"
            )
        if any(i < 0 or i >= len(family.polys) for i in candidates):
            raise RestrictionError("selection index out of range")

    selected, adapted, w_polys = [], [], []
    for i in candidates:
        u = family.polys[i].linear_change(change, t_vars + x_vars)
        w = u.restrict_zero(t_vars)
        # a zero restriction has a zero Jacobian row, so it never certifies;
        # the last kept trial is the whole family, so its certificate is the
        # family's
        trial = _jacobian_certificate(w_polys + [w], x_vars)
        if trial is None:
            continue
        selected.append(i)
        adapted.append(u)
        w_polys.append(w)
        certificate = trial
        if len(selected) == r:
            break
    else:
        raise RestrictionError(
            "restricted invariants are zero or dependent; the Jacobian "
            "vanishes identically on the subspace"
        )

    restricted = InvariantFamily(polys=tuple(w_polys), group=little, certificate=certificate)
    _require_invariant(restricted)
    d = rank_d(restricted.degrees, little.degrees)
    return Restriction(
        config=config, t_vars=t_vars, x_vars=x_vars, selected=tuple(selected),
        adapted=tuple(adapted), restricted=restricted, d=d,
    )


@dataclass(frozen=True)
class SurjectivityReport:
    ok: bool
    failing_degree: int | None
    degree_bound: int


def surjectivity_check(
    family: InvariantFamily,
    degree_bound: int = 12,
) -> SurjectivityReport:
    """Decide whether the family generates all little-group invariants.

    Each member must be homogeneous (ValueError otherwise) and invariant
    under the little group (RestrictionError otherwise; `family.invariant`
    is cached, so a family from restrict_family is not tested again), so the
    degree-k products lie in the space Inv_k of degree-k invariants.  They
    span it exactly when their rank equals dim Inv_k, which Chevalley's
    theorem gives as the number of ways to write k as a sum of the little
    fundamental degrees.  The report names the first degree up to
    degree_bound where the rank falls short.

    Only the degrees up to min(degree_bound, max e_j), e_j the little
    fundamental degrees, are tested.  Every fundamental invariant has degree
    at most max e_j, so if the products span Inv_k for each k up to there,
    the subalgebra they generate holds a generating set of all invariants
    and spans every Inv_k; no higher degree can fail, and the report is the
    one the test of every degree up to degree_bound would give.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")
    little = family.group
    if little is None:
        raise ValueError("no little root system available")
    variables = family.variables
    if len(variables) != little.rank:
        raise ValueError("family variable count does not match the little rank")
    degrees = family.degrees
    _require_invariant(family)
    little_degrees = little.degrees

    @cache
    def family_power(i: int, a: int) -> Polynomial:
        return family.polys[i] ** a

    for k in range(1, min(degree_bound, max(little_degrees)) + 1):
        products = []
        for a in _product_exponents(degrees, k):
            prod = Polynomial.constant(variables, 1)
            for i, ai in enumerate(a):
                if ai:
                    prod = prod * family_power(i, ai)
            products.append(prod)
        monos = sorted({e for p in products for e in p.terms})
        rows = [[p.terms.get(e, 0) for e in monos] for p in products]
        if matrix_rank(rows) != len(_product_exponents(little_degrees, k)):
            return SurjectivityReport(ok=False, failing_degree=k, degree_bound=degree_bound)
    return SurjectivityReport(ok=True, failing_degree=None, degree_bound=degree_bound)


def split_config(type_name: str, rank: int) -> PairConfig:
    """The identity pair: little system equal to the ambient one."""
    return PairConfig(
        ambient_type=type_name,
        ambient_rank=rank,
        little_type=type_name,
        little_rank=rank,
        embedding=_identity_form(rank),
        name=f"{type_name}{rank}-split",
    )
