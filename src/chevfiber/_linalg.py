"""Small exact linear algebra helpers over the rationals.

Matrices are sequences of row sequences whose entries are ints or Fractions.
Everything here is exact; nothing ever touches floating point.  A float (or
any other non-rational) entry raises TypeError in `_exact`, the rule that
`polyring` shares; it is never converted, so an exact result cannot turn into
floats.  Products and sums run on the entries as given, and each result entry
becomes a Fraction once.  One fraction-free elimination in ints,
`_eliminate`, gives the rank, the determinant and (with back-substitution)
the inverse; rows of different lengths raise ValueError there.
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
    raise TypeError(f"exact value must be an int or Fraction, got {type(value).__name__}")


def to_fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[_exact(x) for x in row] for row in rows]


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free forward elimination (Bareiss), pivoting on the first
    nonzero entry of a column.

    Each row is scaled to integers by the lcm of its denominators.  A row
    below pivot p is updated to (p x - a y) / q, with q the previous pivot;
    by Sylvester's identity the division is exact, and every entry is a
    minor of the scaled matrix, so the last pivot of a square matrix of full
    rank is its determinant up to the row swaps.  Returns the echelon rows,
    each pivot row's column, (-1)^(row swaps) and the product of the row
    scales.
    """
    m: list[list[int]] = []
    scale = 1
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("matrix rows differ in length")
        row = [_exact(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        p, top = m[r][c], m[r][c:]
        for i in range(r + 1, len(m)):
            a = m[i][c]
            m[i][c:] = [(p * x - a * y) // prev for x, y in zip(m[i][c:], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots, sign, scale


def rank(rows: Sequence[Sequence]) -> int:
    return len(_eliminate(rows)[1])


def _require_square(a: Sequence[Sequence]) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    return n


def det(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant: the signed last pivot over the row scales."""
    n = _require_square(a)
    if n == 0:
        return Fraction(1)
    m, pivots, sign, scale = _eliminate(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[-1][-1], scale)


def inverse(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse: eliminate [A | I], then back-substitute in ints.

    With d the last pivot, d A^-1 is an integer matrix (the adjugate of the
    scaled rows, times the row scales), so each back-substitution division
    is exact; each entry is divided by d once, at the end.
    """
    n = _require_square(a)
    m, pivots, _, _ = _eliminate([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    d = m[-1][n - 1] if n else 1
    inv: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        row = [d * x for x in m[i][n:]]
        for j in range(i + 1, n):
            if m[i][j]:
                row = [x - m[i][j] * y for x, y in zip(row, inv[j])]
        inv[i] = [x // m[i][i] for x in row]
    return tuple(tuple(Fraction(x, d) for x in row) for row in inv)


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
