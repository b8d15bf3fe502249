"""Small exact linear algebra helpers over the rationals.

Matrices are sequences of row sequences whose entries are ints or Fractions.
Everything here is exact; nothing ever touches floating point.  A float (or
any other non-rational) entry raises TypeError in `_exact`, the rule that
`polyring` shares; it is never converted, so an exact result cannot turn into
floats.  Products and sums run on the entries as given, and each result entry
becomes a Fraction once.  One forward elimination, `_echelon`, gives the
rank, the determinant and (with back-substitution) the inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _exact(value) -> Fraction:
    # a float anywhere in a sum makes the sum a float, so checking results
    # catches float inputs too
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact value must be an int or Fraction, got {type(value).__name__}")


def to_fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[_exact(x) for x in row] for row in rows]


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int], int]:
    """Forward elimination, pivoting on the first nonzero entry of a column.
    Returns the echelon rows, each pivot row's column, and (-1)^(row swaps)."""
    m = to_fraction_rows(rows)
    pivots: list[int] = []
    sign = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        inv = 1 / m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots, sign


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])


def det(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant: the signed product of the echelon pivots."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    m, pivots, sign = _echelon(a)
    if len(pivots) < n:
        return Fraction(0)
    return prod((m[i][i] for i in range(n)), start=Fraction(sign))


def inverse(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse: eliminate [A | I], then back-substitute."""
    n = len(a)
    aug = [[_exact(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, pivots, _ = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv: list[list[Fraction]] = [[]] * n
    for i in reversed(range(n)):
        row = m[i][n:]
        for j in range(i + 1, n):
            if m[i][j] != 0:
                row = [x - m[i][j] * y for x, y in zip(row, inv[j])]
        inv[i] = [x / m[i][i] for x in row]
    return tuple(map(tuple, inv))


def matvec(a: Sequence[Sequence], v: Sequence) -> Vector:
    return tuple(_exact(sum(map(mul, row, v))) for row in a)


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(_exact(sum(map(mul, row, col))) for col in cols) for row in a)


def transpose(a: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(map(_exact, col)) for col in zip(*a))


def integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Rational rows as integer rows over their least common denominator."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def clear_denominators(v: Sequence[Fraction]) -> Vector:
    """Scale a rational vector to a primitive integer vector (empty-safe)."""
    ints = integer_rows([[_exact(x) for x in v]])[0][0]
    g = gcd(*ints) or 1
    return tuple(Fraction(x // g) for x in ints)
