"""Exact multivariate polynomial arithmetic over the rationals.

A Polynomial carries an ordered tuple of variable names and a sparse mapping
from exponent vectors to Fraction coefficients.  Ring operations, formal
derivatives, restriction, and linear substitution are all exact, and every
coefficient, scalar or `eval_exact` point must be an int or a Fraction
(`_linalg._exact`; a float raises TypeError).  Floating point enters in
exactly one place: `eval`, which converts each rational coefficient to a
float once, after all exact preprocessing, and sums the terms c*x^e in
exponent order, so its value does not depend on how the terms are stored.

Products, powers and linear changes run on Python ints: each operand's
coefficients become integer numerators over their least common denominator,
each exponent is packed into one int (so multiplying monomials adds ints),
the terms are multiplied and summed in ints, and each result coefficient
becomes a Fraction once, at the end.  A sum that reaches 0 is deleted at the
same moment as it would be in Fractions, so the terms keep the insertion
order of the Fraction arithmetic.

Canonical text form: terms in descending graded-lex order (total degree
first, then lexicographic comparison of exponent vectors), each term printed
as "coeff*x1^a1*x2^a2" with the coefficient a rational in lowest terms and
zero-exponent variables omitted.  A bare coefficient stands for the constant
term, and the zero polynomial prints as "0".
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, reduce
from operator import index
from typing import Mapping, Sequence

from ._linalg import _exact, integer_rows, to_fraction_rows

Exponent = tuple[int, ...]


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, object] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        clean: dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            e = tuple(map(index, exp))
            if len(e) != len(self.variables):
                raise ValueError("exponent length does not match variable count")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
            c = _exact(c)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        object.__setattr__(self, "terms", dict(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict) -> "Polynomial":
        """Wrap terms that are already clean: int-tuple exponents of the right
        length, nonzero Fraction coefficients.  For results of this class's
        own arithmetic, which `__init__` would only re-validate."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        return cls(variables, {tuple([0] * len(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        exp = tuple(int(i == idx) for i in range(len(variables)))
        return cls(variables, {exp: 1})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if inhomogeneous."""
        if not self.terms:
            raise ValueError("the zero polynomial has no homogeneous degree")
        degrees = {sum(e) for e in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    # -- ring operations -----------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValueError("polynomials live over different variable tuples")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        self._check_compatible(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c
            if acc[e] == 0:
                del acc[e]
        return Polynomial._trusted(self.variables, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            f = _exact(other)
            if f == 0:
                return Polynomial.zero(self.variables)
            return Polynomial._trusted(self.variables, {e: c * f for e, c in self.terms.items()})
        self._check_compatible(other)
        shift = _shift(self.degree() + other.degree())
        a, a_den = _numerators(self.terms, shift)
        b, b_den = _numerators(other.terms, shift)
        return _unpacked(self.variables, _product(a, b), a_den * b_den, shift)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = index(n)
        if n < 0:
            raise ValueError("negative power")
        shift = _shift(self.degree() * n)
        nums, den = _numerators(self.terms, shift)
        return _unpacked(self.variables, _power(nums, n), den**n, shift)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    # -- calculus ------------------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        """Exact formal partial derivative."""
        idx = self.variables.index(var)
        acc: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            new = list(e)
            new[idx] -= 1
            acc[tuple(new)] = c * e[idx]
        return Polynomial._trusted(self.variables, acc)

    # -- evaluation ----------------------------------------------------

    def eval(self, point: Sequence[complex]) -> complex:
        """Evaluate at a complex point: sum c*x^e over the terms in exponent order."""
        pt = [complex(z) for z in self._checked(point)]
        total = 0j
        for e, c in sorted(self.terms.items()):
            term = complex(c.numerator / c.denominator)
            for z, k in zip(pt, e):
                if k:
                    term *= z**k
            total += term
        return total

    def eval_exact(self, point: Sequence) -> Fraction:
        """Evaluate at a rational point, exactly, in ints.

        With the point as integers z over one denominator D and the
        coefficients as integers a_e over cden, the value is
        sum_e a_e z^e D^(top - |e|) over cden D^top: one Fraction at the end.
        """
        (pt,), den = integer_rows([[_exact(z) for z in self._checked(point)]])
        if not self.terms:
            return Fraction(0)
        (nums,), cden = integer_rows([self.terms.values()])
        top = self.degree()
        total = 0
        for e, c in zip(self.terms, nums):
            term = c * den ** (top - sum(e))
            for z, k in zip(pt, e):
                if k:
                    term *= z**k
            total += term
        return Fraction(total, cden * den**top)

    def _checked(self, point: Sequence) -> Sequence:
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has {len(self.variables)} variables"
            )
        return point

    # -- structural maps -------------------------------------------------

    def restrict_zero(self, dropped: Sequence[str]) -> "Polynomial":
        """Set the named variables to zero; the result lives over the rest."""
        dropped = tuple(dropped)
        for v in dropped:
            if v not in self.variables:
                raise ValueError(f"unknown variable {v!r}")
        keep = [i for i, v in enumerate(self.variables) if v not in dropped]
        acc: dict[Exponent, Fraction] = {}
        drop = [i for i in range(len(self.variables)) if i not in keep]
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                continue
            acc[tuple(e[i] for i in keep)] = c
        return Polynomial._trusted(tuple(self.variables[i] for i in keep), acc)

    def linear_change(
        self, matrix: Sequence[Sequence], new_vars: Sequence[str] | None = None
    ) -> "Polynomial":
        """Substitute u = M y: variable i becomes sum_j M[i][j] * new_vars[j].

        `new_vars` defaults to this polynomial's own variables, so a square
        matrix acting on coordinates (a reflection, say) maps p to p o M.
        The entries must be ints or Fractions.  M becomes an integer matrix
        over one denominator, and each monomial is expanded in ints over
        cached powers of its integer row forms; each result coefficient is
        divided once, at the end.
        """
        new_vars = self.variables if new_vars is None else tuple(new_vars)
        n = len(new_vars)
        if len(matrix) != len(self.variables) or any(len(row) != n for row in matrix):
            raise ValueError("matrix needs one row per variable and one column per new variable")
        # u = (R / den) y with R an integer matrix and p = sum_e (a_e / cden) u^e,
        # so the monomial u^e of degree |e| adds a_e den^(top - |e|) (R y)^e
        # to the numerators over cden den^top
        rows, den = integer_rows(to_fraction_rows(matrix))
        (nums,), cden = integer_rows([self.terms.values()])
        top = self.degree()
        shift = _shift(top)
        forms = [{1 << shift * j: m for j, m in enumerate(row) if m} for row in rows]

        @cache
        def power(i: int, k: int) -> dict[int, int]:
            return _power(forms[i], k)

        acc: dict[int, int] = {}
        for e, c in zip(self.terms, nums):
            weight = c * den ** (top - sum(e))
            factors = [power(i, k) for i, k in enumerate(e) if k]
            for f, d in (reduce(_product, factors) if factors else {0: 1}).items():
                total = acc.get(f, 0) + weight * d
                if total:
                    acc[f] = total
                else:
                    del acc[f]
        return _unpacked(new_vars, acc, cden * den ** max(top, 0), shift)

    # -- text form -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" for v, k in zip(self.variables, e) if k
            )
            body = f"{abs(c)}" if not mono else f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


# The integer kernels key each term by its exponent packed into one int,
# `shift` bits per variable, so that multiplying monomials adds two ints.


def _shift(degree: int) -> int:
    """Bits per variable that hold every entry of an exponent up to this
    total degree, so that adding packed exponents never carries."""
    return max(degree, 1).bit_length()


def _numerators(terms: Mapping[Exponent, Fraction], shift: int) -> tuple[dict[int, int], int]:
    """Coefficients as integer numerators over their least common
    denominator, keyed by packed exponent."""
    (nums,), den = integer_rows([terms.values()])
    return {sum(k << shift * i for i, k in enumerate(e)): c for e, c in zip(terms, nums)}, den


def _unpacked(variables: tuple[str, ...], terms: Mapping[int, int], den: int, shift: int) -> Polynomial:
    """The polynomial whose coefficients are `terms` over `den`, in their order."""
    mask = (1 << shift) - 1
    offsets = range(0, shift * len(variables), shift)
    return Polynomial._trusted(variables, {
        tuple(key >> o & mask for o in offsets): Fraction(c, den) for key, c in terms.items()
    })


def _product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two integer term maps.  A sum that reaches 0 is deleted
    there and then, as in Fractions, so a later term of that exponent is
    inserted anew."""
    acc: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            total = acc.get(e, 0) + c1 * c2
            if total:
                acc[e] = total
            else:
                del acc[e]
    return acc


def _power(terms: Mapping[int, int], n: int) -> Mapping[int, int]:
    """terms^n by repeated squaring."""
    result = None
    while n:
        if n & 1:
            # 1 * terms is terms, in the same order
            result = terms if result is None else _product(result, terms)
        terms = _product(terms, terms) if n > 1 else terms
        n >>= 1
    return {0: 1} if result is None else result


_MANTISSA = re.compile(r"(\d+\.?\d*|\.\d+)[eE]")


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse the canonical text form (signs, p/q or decimal coefficients, var^exp)."""
    variables = tuple(variables)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(variables)
    # split into signed terms
    terms: dict[Exponent, Fraction] = {}
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    pieces: list[tuple[int, str]] = []
    while i <= len(s):
        # a sign after the mantissa of a decimal like 1e-3 belongs to its exponent
        if i == len(s) or s[i] in "+-" and not _MANTISSA.fullmatch(s[start:i].rpartition("*")[2]):
            pieces.append((sign, s[start:i]))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
                start = i + 1
        i += 1
    for sg, piece in pieces:
        if not piece:
            raise ValueError(f"malformed term in {text!r}")
        coeff = Fraction(sg)
        exp = [0] * len(variables)
        for factor in piece.split("*"):
            if not factor:
                raise ValueError(f"malformed term {piece!r}")
            name, caret, power = factor.partition("^")
            if name in variables:
                if caret and not power.isdecimal():
                    raise ValueError(f"malformed exponent in term {piece!r}")
                exp[variables.index(name)] += int(power or 1)
            else:
                if power:
                    raise ValueError(f"unknown variable {name!r}")
                coeff *= parse_rational(factor)
        e = tuple(exp)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return Polynomial(variables, terms)


def parse_rational(text: str) -> Fraction:
    """Fraction(text), but a zero denominator is a ValueError naming the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def jacobian_matrix(polys: Sequence[Polynomial], xs: Sequence[str]) -> list[list[Polynomial]]:
    return [[p.derivative(x) for x in xs] for p in polys]


def polynomial_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a polynomial matrix by subset expansion.

    Processes rows in order against column subsets, skipping zero entries
    early; suited to the small (r <= 6) matrices used here.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    dp: dict[int, Polynomial] = {0: Polynomial.constant(variables, 1)}
    for r in range(n):
        ndp: dict[int, Polynomial] = {}
        for mask, det in dp.items():
            if det.is_zero:
                continue
            for j in range(n):
                if mask >> j & 1:
                    continue
                entry = matrix[r][j]
                if entry.is_zero:
                    continue
                piece = det * entry
                # assigning column j to row r inverts against every
                # previously chosen column with larger index
                if bin(mask >> (j + 1)).count("1") & 1:
                    piece = -piece
                key = mask | 1 << j
                ndp[key] = ndp[key] + piece if key in ndp else piece
        dp = ndp
        if not dp:
            return Polynomial.zero(variables)
    return dp.get((1 << n) - 1, Polynomial.zero(variables))


def jacobian_det(polys: Sequence[Polynomial], xs: Sequence[str]) -> Polynomial:
    """det [dp_i/dx_j], exact; polys and xs must have equal length."""
    if len(polys) != len(xs):
        raise ValueError("need as many polynomials as differentiation variables")
    if len(polys) > 6:
        raise ValueError("jacobian_det supports at most 6 polynomials")
    return polynomial_det(jacobian_matrix(polys, xs))
