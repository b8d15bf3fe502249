"""Small exact linear algebra helpers over the rationals.

Matrices are sequences of row sequences whose entries are ints or Fractions.
Everything here is exact; nothing ever touches floating point.  A float (or
any other non-rational) entry raises TypeError, as in `polyring`; it is never
converted, so an exact result cannot turn into floats.  Products and sums run
on the entries as given, and each result entry becomes a Fraction once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    raise TypeError(f"matrix entry must be rational, got {type(value).__name__}")


def to_fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[_exact(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = to_fraction_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
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


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def det(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals, with
    row pivoting on the first nonzero entry."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
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


def inverse(a: Sequence[Sequence]) -> Matrix:
    n = len(a)
    aug = [[_exact(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(m[i][n:]) for i in range(n))


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
