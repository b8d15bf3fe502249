"""The integer kernels of the exact layer against Fraction references.

The functions prefixed `_ref` below are the Fraction implementations the
package used before its exact layer summed in integers: a reflection is a
`_ref_bilinear` call with a full matrix-vector product, every product and sum
re-wraps its entries in `Fraction`, the Weyl group is tracked as full
permutations of the root list, and the invariant family scans its
candidates eagerly for every degree.  The integer kernels must reproduce
them byte for byte: the same roots, the same simple reflections (built
by the coroot formula) and Weyl matrices, in the same order with the same
(numerator, denominator) per entry, and the same polynomial terms.  No code
reads term order, so the small orbit sums below compare terms in exponent
order; the families and the F4 orbit sum keep the references' insertion
order as well.

The F4 family and the E6 Weyl matrices take the references tens of seconds,
so they are pinned by digests recorded from the references instead.

The same holds for the two jobs each written once in the exact layer: the
one fraction-free elimination in ints behind `rank`, `det` and `inverse`
against the Fraction reduced row echelon form and determinant loop
(`_ref_rref`, `_ref_det`, `_ref_inverse`), on fixed and seeded random
matrices with entries up to 10^30, and `Polynomial.linear_change` against
the general substitution it used to call, term order included.  Ragged
rows, and a matrix that is not square for `det` and `inverse`, raise
ValueError.  `Polynomial.eval_exact`, which sums in ints, is checked
against the term-by-term Fraction sum, and `Polynomial.gradient_exact`
against `eval_exact` of each formal derivative.  The Jacobian certificates,
which the package builds from gradient rows, are checked against
`_ref_certificate`: the symbolic Jacobian matrix, evaluated entry by entry
at each test point in turn.

Polynomial products, powers and linear changes run in ints over packed
exponents; `_ref_mul` and `_ref_pow` are the Fraction loops they replaced,
and the substitution reference is built on them.  On seeded random
polynomials the kernels must give the same terms in the same insertion
order: a sum that cancels to 0 is deleted when it does, so a later term of
that exponent moves to the end.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from itertools import chain

import pytest

from chevfiber import rootsys
from chevfiber._linalg import (
    clear_denominators,
    det,
    inverse,
    matmul,
    matvec,
    rank,
    to_fraction_rows,
    transpose,
)
from chevfiber.polyring import Polynomial, jacobian_matrix, parse_polynomial
from chevfiber.restrict import (
    PairConfig,
    adapt_coordinates,
    parse_pair_config,
    restrict_family,
    split_config,
)
from chevfiber.rootsys import (
    RootSystem,
    build_root_system,
    invariant_family,
    orbit_sum_invariant,
    orbit_vectors,
    simple_reflections,
    weyl_group,
)

GROUP_CASES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
    ("BC", 2), ("BC", 3),
)
# the acceptance families; F4 is pinned by digest below
FAMILY_CASES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3),
    ("C", 2), ("C", 3),
    ("D", 4), ("G", 2),
    ("BC", 2), ("BC", 3),
)

# sha256 of `_family_key` and `_matrices_key`, recorded from the references
F4_FAMILY_DIGEST = "7e71301b0c16de561245a0c5a83ee3dd9db7161313bba6df5a8f28b467284d7d"
E6_WEYL_DIGEST = "e4fe303260f585f108d6041585993b4031edd0a15564f41cd5b27b55cac22161"


def _ref_matvec(a, v):
    return tuple(
        sum((Fraction(a[i][j]) * Fraction(v[j]) for j in range(len(v))), Fraction(0))
        for i in range(len(a))
    )


def _ref_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(
            sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(k)), Fraction(0))
            for j in range(m)
        )
        for i in range(n)
    )


def _ref_transpose(a):
    return tuple(tuple(Fraction(a[i][j]) for i in range(len(a))) for j in range(len(a[0])))


def _ref_bilinear(rs, u, v):
    return sum(
        Fraction(a) * b for a, b in zip(u, _ref_matvec(rs.form, [Fraction(x) for x in v]))
    )


def _ref_reflect(rs, v, alpha):
    v = tuple(Fraction(x) for x in v)
    scale = 2 * _ref_bilinear(rs, v, alpha) / _ref_bilinear(rs, alpha, alpha)
    return tuple(x - scale * a for x, a in zip(v, alpha))


def _ref_closure(rs, seeds):
    seen = set(seeds)
    queue = list(seen)
    while queue:
        u = queue.pop()
        for alpha in rs.simple_roots:
            w = _ref_reflect(rs, u, alpha)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _ref_roots(type_name, rank):
    """The sorted roots, by a Fraction closure of the simple roots."""
    simples, form = rootsys._simple_roots_and_form(type_name, rank)
    rs = RootSystem(type_name, rank, simples, form)
    seen = _ref_closure(rs, simples)
    if type_name == "BC":
        for r in list(seen):
            if _ref_bilinear(rs, r, r) == 1:
                seen.add(tuple(2 * x for x in r))
    return tuple(sorted(seen))


def _ref_weyl_group(rs):
    index = {r: k for k, r in enumerate(rs.roots)}
    gens = [
        tuple(index[_ref_reflect(rs, r, alpha)] for r in rs.roots)
        for alpha in rs.simple_roots
    ]
    identity = tuple(range(len(rs.roots)))
    seen = {identity}
    frontier = [identity]
    elements = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[k] for k in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    elements.append(q)
        frontier = nxt
    simple_idx = [index[a] for a in rs.simple_roots]
    in_root_coords = all(
        rs.simple_roots[i] == rootsys._unit(rs.rank, i) for i in range(rs.rank)
    )
    matrices = []
    if in_root_coords:
        for p in elements:
            matrices.append(_ref_transpose(tuple(rs.roots[p[i]] for i in simple_idx)))
    else:
        sinv = inverse(_ref_transpose(rs.simple_roots))
        for p in elements:
            img = _ref_transpose(tuple(rs.roots[p[i]] for i in simple_idx))
            matrices.append(_ref_matmul(img, sinv))
    return tuple(matrices)


def _ref_orbit_sum(rs, v, k):
    orbit = tuple(sorted(_ref_closure(rs, [tuple(Fraction(x) for x in v)])))
    mult, rem = divmod(rootsys.weyl_order(rs.type_name, rs.rank), len(orbit))
    assert rem == 0
    terms = [
        (comp, Fraction(math.factorial(k), math.prod(map(math.factorial, comp))))
        for comp in rootsys._compositions(k, rs.rank)
    ]
    acc = {}
    for u in orbit:
        c = _ref_matvec(rs.form, u)
        for comp, coeff in terms:
            for kj, cj in zip(comp, c):
                if kj:
                    if cj == 0:
                        break
                    coeff *= cj**kj
            else:
                acc[comp] = acc.get(comp, Fraction(0)) + coeff
    return rootsys.Polynomial(rs.variables, acc) * mult


def _ref_regular_vectors(rs):
    j = 1
    while True:
        v = tuple(Fraction(j**i) for i in range(rs.rank))
        if all(_ref_bilinear(rs, alpha, v) != 0 for alpha in rs.roots):
            yield v
        j += 1


def _ref_certificate(polys, variables):
    """The Jacobian's symbolic entries, evaluated at each test point in turn."""
    jac = jacobian_matrix(polys, variables)
    for point in rootsys._test_points(len(variables)):
        rows = [[q.eval_exact(point) for q in row] for row in jac]
        if len(rows) == len(variables):
            value = det(rows)
            if value != 0:
                return point, value
        elif rank(rows) == len(rows):
            return point, None
    return None


def _ref_family(rs):
    polys = []
    for k in rootsys.fundamental_degrees(rs.type_name, rs.rank):
        candidates = []
        gen = _ref_regular_vectors(rs)
        for _ in range(rootsys._MAX_CANDIDATES):
            candidates.append(next(gen))
        candidates.extend(rs.simple_roots)
        for v in candidates:
            u = _ref_orbit_sum(rs, v, k)
            if u.is_zero:
                continue
            certificate = _ref_certificate(polys + [u], rs.variables)
            if certificate is not None:
                polys.append(u)
                break
        else:
            raise AssertionError(f"no degree-{k} invariant")
    return polys, certificate


def _entries(rows):
    """Each entry as (type, numerator, denominator), rows kept apart."""
    return [[(type(x), x.numerator, x.denominator) for x in row] for row in rows]


def _terms(poly):
    """The terms in insertion order, each coefficient with its type,
    numerator and denominator; sort it to compare values alone."""
    return [(e, type(c), c.numerator, c.denominator) for e, c in poly.terms.items()]


def _family_key(polys, certificate):
    return repr(([_terms(p) for p in polys], certificate)).encode()


def _matrices_key(matrices):
    """Every entry in order, as text; the entry type and the shapes are
    checked here, since str(Fraction) omits them."""
    n = len(matrices[0])
    assert {len(m) for m in matrices} == {len(row) for m in matrices for row in m} == {n}
    flat = list(chain.from_iterable(chain.from_iterable(matrices)))
    assert set(map(type, flat)) == {Fraction}
    return " ".join(map(str, flat)).encode()


@pytest.mark.parametrize("type_name,rank", GROUP_CASES + (("E", 6),))
def test_roots_match_the_fraction_closure(type_name, rank):
    rs = build_root_system(type_name, rank)
    assert _entries(rs.roots) == _entries(_ref_roots(type_name, rank))


@pytest.mark.parametrize("type_name,rank", GROUP_CASES)
def test_weyl_matrices_match_the_fraction_enumeration(type_name, rank):
    rs = build_root_system(type_name, rank)
    new, ref = weyl_group(rs), _ref_weyl_group(rs)
    assert len(new) == len(ref) == rootsys.weyl_order(type_name, rank)
    assert [_entries(m) for m in new] == [_entries(m) for m in ref]


def test_e6_weyl_group_order_and_digest():
    matrices = weyl_group(build_root_system("E", 6))
    assert len(matrices) == 51840
    assert hashlib.sha256(_matrices_key(matrices)).hexdigest() == E6_WEYL_DIGEST


def _ref_simple_reflections(rs):
    """Column i of each matrix is the unit vector e_i reflected in the simple root."""
    n = rs.rank
    return tuple(
        _ref_transpose(tuple(_ref_reflect(rs, rootsys._unit(n, i), alpha) for i in range(n)))
        for alpha in rs.simple_roots
    )


@pytest.mark.parametrize("type_name,rank", GROUP_CASES + (("E", 6),))
def test_simple_reflections_match_the_fraction_reflection(type_name, rank):
    rs = build_root_system(type_name, rank)
    new, ref = simple_reflections(rs), _ref_simple_reflections(rs)
    assert [_entries(m) for m in new] == [_entries(m) for m in ref]


def test_weyl_group_over_the_cap_builds_no_element(monkeypatch):
    # |W(A8)| = 9! is over the cap, so not even the generators are built
    rs = build_root_system("A", 8)
    calls = []
    reflect = rootsys._reflect
    monkeypatch.setattr(rootsys, "_reflect", lambda *a: calls.append(a) or reflect(*a))
    with pytest.raises(rootsys.ConstructionError, match="enumeration cap 100000"):
        weyl_group(rs)
    assert calls == []


@pytest.mark.parametrize("type_name,rank", FAMILY_CASES)
def test_family_matches_the_eager_fraction_loop(type_name, rank):
    rs = build_root_system(type_name, rank)
    fam = invariant_family(rs)
    polys, certificate = _ref_family(rs)
    assert [_terms(p) for p in fam.polys] == [_terms(p) for p in polys]
    assert fam.certificate == certificate
    assert _entries([fam.certificate[0]]) == _entries([certificate[0]])


def test_f4_family_digest():
    fam = invariant_family(build_root_system("F", 4))
    key = _family_key(fam.polys, fam.certificate)
    assert hashlib.sha256(key).hexdigest() == F4_FAMILY_DIGEST


def test_f4_orbit_sum_matches_the_fraction_sum():
    rs = build_root_system("F", 4)
    new = orbit_sum_invariant(rs, (1, 2, 4, 8), 6)
    assert _terms(new) == _terms(_ref_orbit_sum(rs, (1, 2, 4, 8), 6))


@pytest.mark.parametrize("v,k", [((1, -1), 2), ((1, 0), 4), ((Fraction(1, 3), 2), 3)])
def test_orbit_sums_with_zero_and_rational_images(v, k):
    # vectors with zero coordinates and a vector with a denominator
    rs = build_root_system("B", 2)
    new, ref = orbit_sum_invariant(rs, v, k), _ref_orbit_sum(rs, v, k)
    assert sorted(_terms(new)) == sorted(_terms(ref))


# -- one elimination -----------------------------------------------------


def _ref_rref(rows):
    m = to_fraction_rows(rows)
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _ref_det(a):
    n = len(a)
    m = to_fraction_rows(a)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * result


def _ref_inverse(a):
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, pivots = _ref_rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(m[i][n:]) for i in range(n))


def _random_matrix(rng, rows, cols, big):
    """Rational entries with numerators in [-big, big] and denominators in
    [1, big]; at small `big` many entries are 0."""
    return tuple(
        tuple(Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(cols))
        for _ in range(rows)
    )


def _low_rank(rng, rows, cols, r, big):
    """A rows x cols product of rank at most r < min(rows, cols)."""
    return _ref_matmul(_random_matrix(rng, rows, r, big), _random_matrix(rng, r, cols, big))


_rng = random.Random(2500)
BIG = 10**30
half = Fraction(1, 2)
MATRICES = {
    "swap": ((0, 2, 1), (1, 1, 0), (3, half, 4)),
    "swap-late": ((1, 2, 3), (2, 4, 7), (0, 1, Fraction(-2, 3))),
    "singular": ((1, 2, 3), (2, 4, 6), (1, 0, 1)),
    "singular-column": ((0, 1), (0, 5)),
    "tall": ((1, 2), (2, 4), (5, half)),
    "wide": ((0, 1, 2, 3), (0, 2, 4, 7)),
    "one-row": ((1, 2),),
    "ragged": ((1, 2), (3, 4, 5)),
    "ragged-short": ((1, 2, 3), (4, 5), (6, 7, 8)),
    "zero": ((0, 0, 0), (0, 0, 0)),
    "zero-square": ((0, 0), (0, 0)),
    "one": ((Fraction(-3, 4),),),
    "one-zero": ((0,),),
    "empty": (),
    # seeded random rationals, up to 10^30 in numerator and denominator
    "random-square-small": _random_matrix(_rng, 5, 5, 3),
    "random-square-big": _random_matrix(_rng, 5, 5, BIG),
    "random-tall-big": _random_matrix(_rng, 6, 3, BIG),
    "random-wide-big": _random_matrix(_rng, 3, 6, BIG),
    "random-rank-2-square-big": _low_rank(_rng, 4, 4, 2, BIG),
    "random-rank-3-square-small": _low_rank(_rng, 5, 5, 3, 4),
    "random-rank-2-tall-big": _low_rank(_rng, 5, 3, 2, BIG),
    "random-rank-1-wide-big": _low_rank(_rng, 3, 5, 1, BIG),
}


@pytest.mark.parametrize("name", MATRICES)
def test_rank_det_inverse_match_the_reduced_echelon_references(name):
    a = MATRICES[name]
    if len({len(row) for row in a}) > 1:
        # ragged rows are refused, never truncated
        for call in (rank, det, inverse):
            with pytest.raises(ValueError):
                call(a)
        return
    assert rank(a) == len(_ref_rref(a)[1])
    if name.startswith("random-rank-"):
        assert rank(a) == int(name.split("-")[2])
    if any(len(row) != len(a) for row in a):
        # a wide matrix is not inverted by its leading block
        for call in (det, inverse):
            with pytest.raises(ValueError, match="matrix is not square"):
                call(a)
        return
    value = det(a)
    assert type(value) is Fraction and value == _ref_det(a)
    if value == 0:
        with pytest.raises(ValueError):
            _ref_inverse(a)
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(a)
        return
    inv = inverse(a)
    assert _entries(inv) == _entries(_ref_inverse(a))
    assert matmul(a, inv) == tuple(tuple(int(i == j) for j in range(len(a))) for i in range(len(a)))


# -- one substitution ----------------------------------------------------


def _ref_mul(p, q):
    """The Fraction product loop."""
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, Fraction(0)) + c1 * c2
            if acc[e] == 0:
                del acc[e]
    return Polynomial(p.variables, acc)


def _ref_pow(p, n):
    """Repeated squaring over `_ref_mul`."""
    result = Polynomial.constant(p.variables, 1)
    base = p
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _ref_linear_change(p, matrix, new_vars=None):
    """`linear_change` as it was: the row forms substituted as images."""
    new_vars = p.variables if new_vars is None else tuple(new_vars)
    images = {}
    for v, row in zip(p.variables, matrix):
        terms = {}
        for j, m in enumerate(row):
            if m != 0:
                terms[tuple(int(k == j) for k in range(len(new_vars)))] = m
        images[v] = Polynomial(new_vars, terms)
    out = Polynomial.zero(new_vars)
    for e, c in p.terms.items():
        term = Polynomial.constant(new_vars, c)
        for i, v in enumerate(p.variables):
            if e[i]:
                term = _ref_mul(term, _ref_pow(images[v], e[i]))
        out = out + term
    return out


@pytest.mark.parametrize("type_name,rank_", FAMILY_CASES[1:])
def test_linear_change_matches_substitution_on_simple_reflections(type_name, rank_):
    rs = build_root_system(type_name, rank_)
    for s in simple_reflections(rs):
        for p in invariant_family(rs).polys:
            assert _terms(p.linear_change(s)) == _terms(_ref_linear_change(p, s))


TOY = parse_pair_config(
    "ambient_type: B\nambient_rank: 2\nlittle_type: A\nlittle_rank: 1\nembedding: 0; 1"
)
CHANGE_CASES = {
    "toy": TOY,
    "skew": PairConfig("B", 2, "A", 1, ((1,), (1,))),
    "A3-line": PairConfig("A", 3, "A", 1, ((1,), (0,), (0,))),
    **{f"{t}{n}-split": split_config(t, n) for t, n in FAMILY_CASES[1:]},
}


@pytest.mark.parametrize("name", CHANGE_CASES)
def test_linear_change_matches_substitution_on_adapted_coordinates(name):
    config = CHANGE_CASES[name]
    rs = build_root_system(config.ambient_type, config.ambient_rank)
    t_vars, x_vars, change = adapt_coordinates(config, rs.form)
    for p in invariant_family(rs).polys:
        new = p.linear_change(change, t_vars + x_vars)
        assert _terms(new) == _terms(_ref_linear_change(p, change, t_vars + x_vars))


RESTRICTION_CASES = {
    "toy": (TOY, "first-by-degree"),
    "quartic": (TOY, (1,)),
    **{f"{t}{n}": (split_config(t, n), "first-by-degree") for t, n in (
        ("A", 2), ("B", 2), ("C", 2), ("BC", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3))},
}


@pytest.mark.parametrize("name", RESTRICTION_CASES)
def test_restriction_certificate_matches_the_symbolic_jacobian(name):
    config, selection = RESTRICTION_CASES[name]
    rs = build_root_system(config.ambient_type, config.ambient_rank)
    res = restrict_family(invariant_family(rs), config, selection=selection)
    certificate = _ref_certificate(res.restricted.polys, res.x_vars)
    assert res.restricted.certificate == certificate
    assert _entries([certificate[0]]) == _entries([res.restricted.certificate[0]])


# -- integer polynomial kernels ----------------------------------------

VARIABLES = ("x1", "x2", "x3", "x4")
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 10)


def _rational(rng, zero=False):
    while True:
        c = Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
        if c or zero:
            return c


def _random_poly(rng, n, terms=6, degree=4):
    """Up to `terms` monomials of mixed degree, mixed denominators."""
    acc = {}
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(0, degree) for _ in range(n))
        acc[e] = _rational(rng)
    return Polynomial(VARIABLES[:n], acc)


def _poly3(text):
    return parse_polynomial(text, VARIABLES[:3])


def _cancelling_pair(rng, n):
    """a + b and a - b: their product a^2 - b^2 cancels every cross term."""
    a, b = _random_poly(rng, n), _random_poly(rng, n)
    return a + b, a - b


def test_products_delete_a_cancelled_sum_when_it_reaches_zero():
    # x*y*z gets 1, then -1 (deleted), then 1 again: it moves to the end
    p = _poly3("x1 + x2 + x1*x2")
    q = _poly3("x2*x3 - x1*x3 + x3")
    new, ref = p * q, _ref_mul(p, q)
    assert _terms(new) == _terms(ref)
    assert list(new.terms)[-1] == (1, 1, 1)


@pytest.mark.parametrize("seed", range(12))
def test_products_and_powers_match_the_fraction_loops(seed):
    rng = random.Random(seed)
    n = 1 + seed % 4
    p, q = _random_poly(rng, n), _random_poly(rng, n)
    zero = Polynomial.zero(VARIABLES[:n])
    pairs = [(p, q), (q, p), _cancelling_pair(rng, n), (p, zero), (zero, p), (zero, zero)]
    for a, b in pairs:
        assert _terms(a * b) == _terms(_ref_mul(a, b))
    for base in (p, p - q, zero, Polynomial.constant(VARIABLES[:n], Fraction(-2, 3))):
        for k in range(6):
            assert _terms(base**k) == _terms(_ref_pow(base, k))


@pytest.mark.parametrize("seed", range(12))
def test_linear_change_matches_substitution_on_random_rational_matrices(seed):
    # n -> m variables, as restrict_family maps ambient to adapted ones;
    # zeros, mixed denominators, and inhomogeneous and zero polynomials
    rng = random.Random(100 + seed)
    n, m = 1 + seed % 4, 1 + rng.randrange(4)
    new_vars = tuple(f"y{j + 1}" for j in range(m))
    matrix = [[_rational(rng, zero=True) for _ in range(m)] for _ in range(n)]
    p = _random_poly(rng, n, terms=8)
    cases = [p, p * _random_poly(rng, n), Polynomial.zero(VARIABLES[:n])]
    for poly in cases:
        new = poly.linear_change(matrix, new_vars)
        assert _terms(new) == _terms(_ref_linear_change(poly, matrix, new_vars))
    if n == m:
        assert _terms(p.linear_change(matrix)) == _terms(_ref_linear_change(p, matrix))


def _ref_eval(p, point):
    """The term-by-term Fraction sum."""
    total = Fraction(0)
    for e, c in p.terms.items():
        for z, k in zip(point, e):
            c *= Fraction(z) ** k
        total += c
    return total


@pytest.mark.parametrize("seed", range(12))
def test_eval_exact_matches_the_fraction_sum(seed):
    # mixed degrees, points with denominators, zeros and plain ints
    rng = random.Random(300 + seed)
    n = 1 + seed % 4
    p = _random_poly(rng, n, terms=8)
    points = [tuple(_rational(rng, zero=True) for _ in range(n)) for _ in range(4)]
    points += [tuple(range(n)), (0,) * n, tuple(Fraction(-1, 3 + i) for i in range(n))]
    zero = Polynomial.zero(VARIABLES[:n])
    for poly in (p, p * _random_poly(rng, n), p - p, zero, Polynomial.constant(VARIABLES[:n], 3)):
        for point in points:
            value = poly.eval_exact(point)
            assert type(value) is Fraction and value == _ref_eval(poly, point)
    assert _entries([[zero.eval_exact(points[0])]]) == [[(Fraction, 0, 1)]]


@pytest.mark.parametrize("seed", range(12))
def test_gradient_exact_matches_each_derivative(seed):
    # one pass over the terms gives every partial derivative's value: mixed
    # degrees and denominators, points with denominators, negatives and zeros
    rng = random.Random(500 + seed)
    n = 1 + seed % 4
    variables = VARIABLES[:n]
    p = _random_poly(rng, n, terms=8)
    points = [tuple(_rational(rng, zero=True) for _ in range(n)) for _ in range(4)]
    points += [(0,) * n, tuple(Fraction(-2, 3 + i) for i in range(n))]
    polys = (p, p * _random_poly(rng, n), p - p, Polynomial.constant(variables, Fraction(-5, 6)))
    for poly in polys:
        for point in points:
            gradient = poly.gradient_exact(point)
            assert all(type(g) is Fraction for g in gradient)
            assert gradient == [poly.derivative(x).eval_exact(point) for x in variables]
        for point in ((1,) * (n + 1), (1,) * (n - 1)):
            with pytest.raises(ValueError, match="coordinates"):
                poly.gradient_exact(point)


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.0])
def test_linear_change_and_products_take_no_float(bad):
    p = _poly3("x1^2 + 1/2*x2*x3 - 3")
    rows = [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]]
    for i in range(3):
        matrix = [list(row) for row in rows]
        matrix[i][i] = bad
        with pytest.raises(TypeError):
            p.linear_change(matrix)
    with pytest.raises(TypeError):
        p * bad
    with pytest.raises(TypeError):
        bad * p
    for poly in (p, Polynomial.zero(VARIABLES[:3])):
        with pytest.raises(TypeError):
            poly.eval_exact((1, bad, Fraction(1, 2)))
        with pytest.raises(TypeError):
            poly.gradient_exact((1, bad, Fraction(1, 2)))


# -- exactness of _linalg -----------------------------------------------


@pytest.mark.parametrize("entry", [1, Fraction(1, 2)])
def test_products_return_fractions(entry):
    a = ((entry, 2), (3, entry))
    for result in (matvec(a, (entry, 1)), *matmul(a, a), *transpose(a)):
        assert all(type(x) is Fraction for x in result)
    assert matvec(a, (1, 1)) == (entry + 2, 3 + entry)
    assert matmul(a, ((1, 0), (0, 1))) == tuple(tuple(map(Fraction, row)) for row in a)


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.0, complex(1, 0)])
def test_floats_never_enter_an_exact_result(bad):
    exact = ((1, Fraction(1, 2)), (3, 4))
    with_bad = ((1, bad), (3, 4))
    with pytest.raises(TypeError):
        matvec(with_bad, (1, 1))
    with pytest.raises(TypeError):
        matvec(exact, (bad, 1))
    with pytest.raises(TypeError):
        matmul(exact, with_bad)
    with pytest.raises(TypeError):
        matmul(with_bad, exact)
    with pytest.raises(TypeError):
        transpose(with_bad)
    for call in (inverse, det, rank):
        with pytest.raises(TypeError):
            call(with_bad)
    with pytest.raises(TypeError):
        rank(((1, 2, bad),))
    with pytest.raises(TypeError):
        clear_denominators((1, bad))


B2 = build_root_system("B", 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: orbit_vectors(B2, v),
        lambda v: PairConfig("B", 2, "A", 1, ((v[0],), (v[1],))),
    ],
    ids=["orbit_vectors", "PairConfig"],
)
def test_exact_entry_points_take_the_linalg_float_rule(call):
    # the same rule as _linalg: rationals pass, a float or complex entry
    # raises instead of being converted
    call((Fraction(1, 2), 1))
    call((0, 1))
    for bad in (0.5, 1.0, complex(1, 0)):
        with pytest.raises(TypeError):
            call((bad, 1))
