"""Root systems, Weyl groups, and invariant polynomial families.

Each system is realized in exactly rank-many rational coordinates so that
invariant families are square and Jacobians are well defined:

* B, C, D, BC, F4 live in orthonormal coordinates with the identity form.
* A1 is the pair {+-e1} with the identity form.
* A_n (n >= 2), G2, and E6 to E8 use simple-root coordinates, where the
  invariant form is the Gram matrix of the simple roots (E_n in Bourbaki's
  numbering, the branch at node 4).  An orthonormal realization in
  rank-many rational coordinates does not exist for these types, but every
  quantity here only ever consults the form.

BC_n is the non-reduced system {+-e_i, +-2e_i, +-e_i +- e_j}; its Weyl group
and fundamental degrees coincide with those of B_n.  No degree is tabulated:
they come from root heights (Kostant 1959, Macdonald 1972), see `degrees`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import chain, islice
from operator import add, getitem, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from ._common import ConstructionError
from ._linalg import (
    Matrix,
    Vector,
    _exact,
    det,
    integer_rows,
    inverse,
    rank as matrix_rank,
    transpose,
)
from .polyring import Polynomial, jacobian_det

WEYL_CAP = 100_000
# regular vectors tried per fundamental degree before the simple roots
_MAX_CANDIDATES = 25


@dataclass(frozen=True)
class RootSystem:
    """A root system's inputs; the roots and the integer data every closure
    reads are cached properties, computed once per object on first use (the
    frozen dataclass keeps a __dict__, where cached_property stores them)."""

    type_name: str
    rank: int
    simple_roots: Matrix
    form: Matrix

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.rank))

    @cached_property
    def _coordinates(self) -> list[tuple[int, ...]]:
        """The roots in integer simple-root coordinates, the simple roots
        first; BC's doubled roots are added to `roots` after the closure."""
        return _reflection_closure(self, _root_coordinates(self, self.simple_roots)[0])

    @cached_property
    def roots(self) -> tuple[Vector, ...]:
        """The sorted closure of the simple roots, with BC's doubled short roots."""
        return self._roots(self._coordinates)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """The fundamental degrees, ascending: one plus each exponent, the
        partition dual to the positive-root counts by height."""
        counts = Counter(h for h in map(sum, self._coordinates) if h > 0).values()
        return tuple(1 + sum(c >= i for c in counts) for i in range(self.rank, 0, -1))

    @cached_property
    def order(self) -> int:
        return math.prod(self.degrees)

    def __hash__(self) -> int:  # equal systems share these, and they hold no Fraction
        return hash((self.type_name, self.rank))

    @cached_property
    def _form_rows(self) -> tuple[list[list[int]], int]:
        return integer_rows(self.form)

    @cached_property
    def _simple_columns(self) -> tuple[list[list[int]], int]:
        """S, the simple roots as columns, as integer rows over one denominator."""
        return integer_rows(transpose(self.simple_roots))

    @cached_property
    def _sinv(self) -> tuple[list[list[int]], int]:
        """S^-1, S with the simple roots as columns, as integer rows over
        one denominator."""
        return integer_rows(inverse(transpose(self.simple_roots)))

    @cached_property
    def _cartan(self) -> list[tuple[int, ...]]:
        """Cartan integers 2 (alpha_i, alpha_j) / (alpha_i, alpha_i); every
        supported type is crystallographic, so each is an int.  The Gram
        matrix S F S^T is formed from integer rows of S and F, whose
        denominators cancel in the quotient."""
        simples = list(zip(*self._simple_columns[0]))
        form = self._form_rows[0]
        images = [[sum(map(mul, row, a)) for row in form] for a in simples]
        gram = [[sum(map(mul, a, b)) for b in images] for a in simples]
        return [tuple(2 * g // row[i] for g in row) for i, row in enumerate(gram)]

    @cached_property
    def _reflections(self) -> tuple[Matrix, ...]:
        """`simple_reflections`, from integer rows a of the simple roots and
        the form: entry (i, j) is (q delta_ij - a_i b_j) / q with b = 2 B a
        and q = (a, B a)."""
        form = self._form_rows[0]
        out = []
        for alpha in zip(*self._simple_columns[0]):
            b = [2 * sum(map(mul, row, alpha)) for row in form]
            q = sum(map(mul, alpha, b)) // 2
            out.append(tuple(
                tuple(Fraction(q * (i == j) - a * c, q) for j, c in enumerate(b))
                for i, a in enumerate(alpha)
            ))
        return tuple(out)

    def positive_roots(self) -> tuple[Vector, ...]:
        """Roots whose expansion over the simple roots is nonnegative."""
        return self._roots(x for x in self._coordinates if sum(x) > 0)

    def _roots(self, coords: Iterable[tuple[int, ...]]) -> tuple[Vector, ...]:
        """Roots in simple-root coordinates as sorted vectors, with BC's doubled short roots."""
        vectors, den = _from_coordinates(self, coords)
        if self.type_name == "BC":
            # BC has the identity form, so the short roots are the unit vectors
            vectors += [tuple(2 * x for x in v) for v in vectors if sum(map(mul, v, v)) == den * den]
        return _sorted_vectors(vectors, den)


# the least and the greatest supported rank of each type
_RANKS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None), "BC": (1, None),
          "G": (2, 2), "F": (4, 4), "E": (6, 8)}


def _validate(type_name: str, rank: int) -> None:
    if type_name not in _RANKS:
        raise ValueError(f"unknown type {type_name!r}")
    low, high = _RANKS[type_name]
    if rank < low:
        raise ValueError(f"type {type_name} requires rank >= {low}")
    if high is not None and rank > high:
        raise ValueError(f"type {type_name} requires rank <= {high}")


@cache
def fundamental_degrees(type_name: str, rank: int) -> tuple[int, ...]:
    """Degrees of a generating set of invariants, ascending with multiplicity:
    `RootSystem.degrees`, built once per type and rank."""
    return build_root_system(type_name, rank).degrees


def weyl_order(type_name: str, rank: int) -> int:
    return math.prod(fundamental_degrees(type_name, rank))


def _unit(n: int, i: int) -> Vector:
    return tuple(Fraction(int(j == i)) for j in range(n))


def _identity_form(n: int) -> Matrix:
    return tuple(_unit(n, i) for i in range(n))


def _gram(n: int, bonds: Sequence[tuple[int, int]]) -> Matrix:
    """Gram matrix of simply laced simple roots: 2 on the diagonal, -1 per bond."""
    rows = [[Fraction(2 * (i == j)) for j in range(n)] for i in range(n)]
    for i, j in bonds:
        rows[i][j] = rows[j][i] = Fraction(-1)
    return tuple(map(tuple, rows))


def _simple_roots_and_form(type_name: str, rank: int) -> tuple[Matrix, Matrix]:
    n = rank
    e = lambda i: _unit(n, i)
    step = lambda i: tuple(map(sub, e(i), e(i + 1)))
    if type_name == "A":
        if n == 1:
            return (e(0),), _identity_form(1)
        return tuple(e(i) for i in range(n)), _gram(n, [(i, i + 1) for i in range(n - 1)])
    if type_name in ("B", "BC", "C", "D"):
        # the chain e_i - e_(i+1), closed by e_n, by 2 e_n (C) or by e_(n-1) + e_n (D)
        last = {"C": tuple(2 * x for x in e(n - 1)), "D": tuple(map(add, e(n - 2), e(n - 1)))}
        return (*map(step, range(n - 1)), last.get(type_name, e(n - 1))), _identity_form(n)
    if type_name == "G":
        return (e(0), e(1)), ((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6)))
    if type_name == "F":
        half = Fraction(1, 2)
        return (step(1), step(2), e(3), (half, -half, -half, -half)), _identity_form(4)
    # E_n: nodes 1..n, bonds 1-3, 3-4, ..., (n-1)-n plus the branch 2-4
    return tuple(e(i) for i in range(n)), _gram(n, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)])


def build_root_system(type_name: str, rank: int) -> RootSystem:
    """Construct the root system and its full root set, by reflection
    closure of the simple roots."""
    _validate(type_name, rank)
    rs = RootSystem(type_name, rank, *_simple_roots_and_form(type_name, rank))
    rs.roots  # the closure runs here, once per system
    return rs


def simple_reflections(rs: RootSystem) -> tuple[Matrix, ...]:
    """Matrices of the reflections in the simple roots, acting on coordinates:
    s = I - alpha (2 B alpha)^T / B(alpha, alpha); built once per system."""
    return rs._reflections


@cache
def reflections_fix(rs: RootSystem, polys: tuple[Polynomial, ...], k: int) -> bool:
    """Whether each simple reflection of `rs`, acting on the variables after the first k, fixes
    each of `polys`: tested exactly once per key, so callers pass k positionally."""
    eye = [tuple(int(i == j) for j in range(k + rs.rank)) for i in range(k)]
    blocks = [eye + [(0,) * k + row for row in s] for s in simple_reflections(rs)]
    return all(p.linear_change(b) == p for p in polys for b in blocks)


def weyl_group(rs: RootSystem) -> tuple[Matrix, ...]:
    """Enumerate the Weyl group as coordinate matrices.

    A group larger than `WEYL_CAP` is refused before any element is built.
    Elements come from `_closure`, the breadth-first closure behind roots and
    orbits, of the simple reflections under composition, each tracked by
    where among the roots it sends the simple roots.  The count is checked
    against |W|, the product of the fundamental degrees.  Each matrix is img S^-1
    (images and simple roots as columns), summed in integers over one common
    denominator; each distinct row and entry becomes Fractions once.
    """
    expected = rs.order
    if expected > WEYL_CAP:
        raise ConstructionError(f"Weyl group exceeds enumeration cap {WEYL_CAP}")
    n, coords = rs.rank, rs._coordinates
    index = {x: k for k, x in enumerate(coords)}
    gens = [
        tuple(index[_reflect(x, i, row)] for x in coords)
        for i, row in enumerate(rs._cartan)
    ]
    # the simple roots lead `coords`; the first is tracked twice, so that
    # itemgetter returns a tuple at rank 1 too
    identity = (*range(n), 0)
    elements = _closure([identity], lambda p: map(itemgetter(*p), gens))
    if len(elements) != expected:
        raise ConstructionError(
            f"enumerated {len(elements)} elements, degree product gives {expected}"
        )

    roots, den = _from_coordinates(rs, coords)
    sinv, sinv_den = rs._sinv
    den *= sinv_den
    columns = tuple(zip(*sinv))
    entries = cache(lambda num: Fraction(num, den))
    rows = cache(lambda img_row: tuple([entries(sum(map(mul, img_row, c))) for c in columns]))
    return tuple(tuple(map(rows, zip(*map(roots.__getitem__, p[:n])))) for p in elements)


def _root_coordinates(rs: RootSystem, vectors: Sequence) -> tuple[list[tuple[int, ...]], int]:
    """Vectors in simple-root coordinates, as integer tuples over their
    least common denominator: integer rows of S^-1 times the integer rows
    of the vectors, reduced by the gcd of every entry and the denominator."""
    sinv, sinv_den = rs._sinv
    ints, den = integer_rows(vectors)
    rows = [tuple(sum(map(mul, s, v)) for s in sinv) for v in ints]
    den *= sinv_den
    g = math.gcd(den, *chain.from_iterable(rows))
    return [tuple(x // g for x in row) for row in rows], den // g


def _reflect(x: tuple[int, ...], i: int, cartan_row: tuple[int, ...]) -> tuple[int, ...]:
    """The reflection in simple root i, on simple-root coordinates: it
    changes coordinate i alone, by the pairing of x with the coroot."""
    return x[:i] + (x[i] - sum(map(mul, cartan_row, x)),) + x[i + 1 :]


def _closure(seeds: Sequence, neighbours: Callable[..., Iterable]) -> list:
    """The seeds and everything reachable from them, in breadth-first
    discovery order."""
    out = list(seeds)
    seen = set(out)
    for x in out:
        for y in neighbours(x):
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def _reflection_closure(rs: RootSystem, coords: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The smallest set of integer simple-root coordinates holding `coords`
    and closed under simple reflections, in discovery order."""
    cartan = list(enumerate(rs._cartan))
    return _closure(coords, lambda x: (_reflect(x, i, row) for i, row in cartan))


def _from_coordinates(rs: RootSystem, coords: Iterable[tuple[int, ...]], den: int = 1) -> tuple[list[tuple[int, ...]], int]:
    """Integer simple-root coordinates over den as integer vectors over one denominator."""
    simples, simples_den = rs._simple_columns
    return [tuple(sum(map(mul, row, x)) for row in simples) for x in coords], den * simples_den


def stabilizer_chain_order(rs: RootSystem) -> int:
    """|W| apart from the degrees, by orbit-stabilizer down the parabolic
    chain W_j = <s_0, ..., s_j>: W_(j-1) is the stabilizer of the fundamental
    weight w_j in W_j (Chevalley), so |W_j| = |W_j w_j| |W_(j-1)|.  Each orbit
    is closed in integer weight coordinates, where s_i subtracts a_i alpha_i,
    and alpha_i is column i of the Cartan integers."""
    n, alphas = rs.rank, list(zip(*rs._cartan))
    order = 1
    for j in range(n):
        reflect = lambda a: (tuple(x - a[i] * c for x, c in zip(a, alphas[i])) for i in range(j + 1) if a[i])
        order *= len(_closure([tuple(int(i == j) for i in range(n))], reflect))
    return order


def _sorted_vectors(vectors: Iterable[tuple[int, ...]], den: int) -> tuple[Vector, ...]:
    """Integer vectors over a positive denominator as sorted Fraction vectors;
    the integers sort as their quotients do."""
    entries = cache(lambda num: Fraction(num, den))
    return tuple(tuple(map(entries, v)) for v in sorted(vectors))


def _integer_orbit(rs: RootSystem, v: Sequence) -> tuple[list[tuple[int, ...]], int]:
    """The orbit of v as integer vectors over one denominator, closed in simple-root coordinates."""
    coords, den = _root_coordinates(rs, [tuple(map(_exact, v))])
    return _from_coordinates(rs, _reflection_closure(rs, coords), den)


def orbit_vectors(rs: RootSystem, v: Sequence) -> tuple[Vector, ...]:
    return _sorted_vectors(*_integer_orbit(rs, v))


def _product_exponents(degrees: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """Exponent tuples a with sum a_i * degrees_i == k, first entry slowest."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, acc: list[int]):
        if i == len(degrees):
            if remaining == 0:
                out.append(tuple(acc))
            return
        step = degrees[i]
        for a in range(remaining // step + 1):
            rec(i + 1, remaining - a * step, acc + [a])

    rec(0, k, [])
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the degree-`total` monomials in `parts` variables."""
    return _product_exponents((1,) * parts, total)


def orbit_sum_invariant(rs: RootSystem, v: Sequence, k: int) -> Polynomial:
    """Sum of B(w v, x)^k over the whole Weyl group, expanded exactly.

    Computed from the orbit of v, weighted by the stabilizer order, so the
    group itself is never enumerated.  The sums run in integers: the forms
    B u over one common denominator den, one division by den^k per monomial.
    """
    if k < 1:
        raise ValueError("power must be positive")
    return _orbit_sum(rs, *_integer_orbit(rs, v), k)


def _orbit_sum(rs: RootSystem, vectors: Sequence[tuple[int, ...]], den: int, k: int) -> Polynomial:
    """`orbit_sum_invariant` of a vector whose orbit is given as integer vectors over den."""
    mult, rem = divmod(rs.order, len(vectors))
    if rem:
        raise ConstructionError("orbit size does not divide the group order")
    form, form_den = rs._form_rows
    images = [[sum(map(mul, row, u)) for row in form] for u in vectors]
    # powers[j][e]: coordinate j of every image, to the e-th power
    powers = [[tuple(x**e for x in column) for e in range(k + 1)] for column in zip(*images)]
    # each monomial with its multinomial coefficient k! / prod(k_j!)
    top = math.factorial(k) * mult
    return Polynomial(rs.variables, {
        comp: Fraction(top // math.prod(map(math.factorial, comp))
                       * sum(reduce(partial(map, mul), map(getitem, powers, comp))),
                       (den * form_den) ** k)
        for comp in _compositions(k, rs.rank)
    })


@dataclass(frozen=True)
class InvariantFamily:
    """A square system of algebraically independent invariants.

    `certificate` records a rational point together with the exact nonzero
    Jacobian determinant value there, which proves independence.  `group`
    is the root system the polynomials are invariant under, or None for
    hand-built families.  `degrees` is read off the members once per
    object, `invariant` once per group and members.
    """

    polys: tuple[Polynomial, ...]
    group: RootSystem | None
    certificate: tuple[Vector, Fraction] | None = None

    @property
    def variables(self) -> tuple[str, ...]:
        return self.polys[0].variables

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """The degree of each member; ValueError if one is not homogeneous."""
        degrees = tuple(p.homogeneous_degree() for p in self.polys)
        if None in degrees:
            raise ValueError(f"family member {degrees.index(None) + 1} is not homogeneous")
        return degrees

    @property
    def invariant(self) -> bool:
        """Whether each simple reflection of `group` fixes each member (`reflections_fix`); a
        restricted family is invariant at t = 0 only, not the adapted members it came from."""
        if self.group is None:
            raise ValueError("no root system attached")
        return reflections_fix(self.group, self.polys, 0)

    def jacobian(self) -> Polynomial:
        """Exact symbolic Jacobian determinant of the family."""
        return jacobian_det(self.polys, self.variables)


def _regular_vectors(rs: RootSystem) -> Iterator[Vector]:
    """The vectors (1, j, j^2, ...), j = 1, 2, ..., paired with no root to 0: a root's pairing
    combines by its integer coordinates the simple roots', the integer rows of S^T B."""
    form, simples = rs._form_rows[0], zip(*rs._simple_columns[0])
    pair = [[sum(map(mul, alpha, col)) for col in zip(*form)] for alpha in simples]
    j = 1
    while True:
        v = [j**i for i in range(rs.rank)]
        pairings = [sum(map(mul, row, v)) for row in pair]
        if all(sum(map(mul, c, pairings)) for c in rs._coordinates):
            yield tuple(map(Fraction, v))
        j += 1


def _test_points(n: int) -> list[Vector]:
    return [tuple(Fraction(s**i) for i in range(n)) for s in (2, 3, 5, 7, 11)]


def _jacobian_certificate(
    polys: Sequence[Polynomial], gradients: dict[int, list[list[Fraction]]]
) -> tuple[Vector, Fraction | None] | None:
    """The first test point where the Jacobian of `polys` has full row rank.

    Returns (point, value), None if the rank falls short at every test
    point.  For a square family `value` is the exact Jacobian determinant
    there, nonzero, which proves algebraic independence; for fewer
    polynomials than variables it is None.  `gradients` keeps each test point's
    gradient rows of the leading members; the last one's stay if it certifies.
    """
    for i, point in enumerate(_test_points(len(polys[0].variables))):
        rows = gradients.setdefault(i, [])
        rows += [p.gradient_exact(point) for p in polys[len(rows):]]
        value = det(rows) if len(rows) == len(point) else None
        if value or value is None and matrix_rank(rows) == len(rows):
            return point, value
    for rows in gradients.values():
        del rows[len(polys) - 1:]
    return None


def invariant_family(rs: RootSystem) -> InvariantFamily:
    """Build one invariant per fundamental degree, proved independent.

    For each degree the candidates are Weyl-orbit power sums of a fixed
    sequence of regular rational vectors; a candidate is accepted once the
    Jacobian of the partial family reaches full rank at one of a fixed list
    of rational test points.  Orbit sums of the simple roots serve as a
    fallback before giving up.  Candidates are drawn lazily, and each one's
    orbit is built once per family and reused across degrees.  Each member's
    gradient rows are computed once per family (`_jacobian_certificate`).
    """
    if rs.order > WEYL_CAP:
        raise ConstructionError(f"each candidate orbit has |W| = {rs.order} points, over the cap {WEYL_CAP}")
    polys: list[Polynomial] = []
    orbits: dict[Vector, tuple[list[tuple[int, ...]], int]] = {}
    gradients: dict[int, list[list[Fraction]]] = {}
    for k in rs.degrees:
        for v in chain(islice(_regular_vectors(rs), _MAX_CANDIDATES), rs.simple_roots):
            if v not in orbits:
                orbits[v] = _integer_orbit(rs, v)
            u = _orbit_sum(rs, *orbits[v], k)
            if u.is_zero:
                continue
            # the last accepted trial is the whole square family, so its
            # certificate is the family's
            certificate = _jacobian_certificate(polys + [u], gradients)
            if certificate is not None:
                polys.append(u)
                break
        else:
            raise ConstructionError(
                f"no independent degree-{k} invariant found for "
                f"{rs.type_name}{rs.rank}"
            )
    return InvariantFamily(polys=tuple(polys), group=rs, certificate=certificate)
