"""Numerical fibers of deformed invariant systems.

A DeformedSystem holds square polynomial equations U_i(t; x) over deformation
variables t and fiber variables x.  Fixing t = zeta and a target vector a,
`solve_fiber` finds every solution of U_i(zeta; x) = a_i along the linear
homotopy H = (1 - s) g(x) + s (f(x) - a).  With a little group and d = 1
the fiber is one free W-orbit of the W-invariant U: one path from
g = conj(gamma) (f - a0), a0 = f(x0), on which f = (1 - tau) a0 + tau a (a
parameter homotopy; Sommese and Wampler, 2005, ch. 7), closed under the
simple reflections, gives it all.  Otherwise, or when a reflected point is
no root, g = gamma kappa (x^m - c) and every root of x_i^{m_i} = c_i is
tracked.  Each step predicts with RK4 and corrects with Newton, an
update accepted within 1e-8 max(1, |x|); ds doubles with no cap short of
s = 1 and halves on a failed correction, a path lost below 1e-7.  All paths
move as one numpy batch, each with its own s and step, as each would alone;
H, H_x and dH/ds are one power table and one product with [g | (f - a) - g].

A system whose equations are all homogeneous is solved at unit scale: with
U_i(lam t, lam x) = lam^m_i U_i(t, x), the paths are tracked at zeta / lam
and target a_i / lam^m_i for one weight lam set from |a| and the coefficient
sizes, and the solutions are multiplied by lam at the end.  So the count law
holds from lam = 1e-6 to 1e6 whatever the coefficients, and the radii below
apply at unit scale.  A system with an inhomogeneous equation is tracked as
given.  Points are sorted by their coordinates rounded to a
grid 1024 times finer than the merge radius, so float noise in a coordinate
that points share cannot reorder them and a fixed seed reproduces results
byte for byte, whatever order the terms of the equations are written in.
A returned fiber is complete -- no path lost, no two points within the
merge radius -- or the solve raises FiberSolveError.
d is derived, never declared, so a returned fiber has |W(little)| * d points.

The symbolic Jacobian determinant of the system in the x directions is
homogeneous of degree sum(m_i - 1) over the ambient grading -- the sum, not
the product.  Its zero locus is the ramification divisor; predicates below
test points against it numerically.  Orbit classes come from closing a
point under the simple reflections, with no element of W(little) built, and
distances are checked by a sweep over sorted keys.

No tolerance is an option: merge and orbit radius 1e-6 (max norm), singular
|det J| <= 1e-10 relative to coefficients and height (in logs), integrality 1e-8.
Every returned point meets one rule, as it stands: its residual is within
1e-12 max(1, |a|, the size of the terms summed into f), checked by one
evaluation of f (`_Numeric.accept`) at the tracked endpoints and at the
reflected images of a d = 1 fiber alike.  No endpoint is polished: the last
corrector at s = 1 is already Newton on f = a (Sommese and Wampler, 2005,
ch. 2).  `local_inverse_psi` runs Newton, at most 30 steps, to that bound.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._common import (
    FiberSolveError,
    InconsistentClusteringError,
    NewtonDivergenceError,
    RamifiedPointError,
    SingularJacobianError,
    _to_json,
)
from ._linalg import matvec
from .polyring import Polynomial, jacobian_det
from .restrict import Restriction
from .rootsys import RootSystem, simple_reflections, weyl_order


_CLUSTER_RADIUS = 1e-6
_SINGULAR_TOL = 1e-10
_INT_TOL = 1e-8
_NEWTON_STEPS = 30
_MAX_RETRIES = 3


@dataclass(frozen=True)
class DeformedSystem:
    """U_i(t; x) = a_i with t frozen at zeta.

    `little`, whose rank must be the number of x variables, gives the
    expected fiber structure: a generic fiber has |W(little)| * d points.
    d is never declared: with `little` it is the degree quotient
    prod(x degrees) / prod(little degrees), ValueError where that is no
    integer, so |W(little)| * d is the number
    of total-degree start paths (a d = 1 fiber tracks one); without `little` it is None.
    """

    polys: tuple[Polynomial, ...]
    t_vars: tuple[str, ...]
    x_vars: tuple[str, ...]
    zeta: tuple[complex, ...]
    target: tuple[complex, ...]
    little: RootSystem | None = None
    d: int | None = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        object.__setattr__(self, "t_vars", tuple(self.t_vars))
        object.__setattr__(self, "x_vars", tuple(self.x_vars))
        object.__setattr__(self, "zeta", tuple(complex(z) for z in self.zeta))
        object.__setattr__(self, "target", tuple(complex(z) for z in self.target))
        if not self.polys:
            raise ValueError("empty system")
        if len(self.polys) != len(self.x_vars):
            raise ValueError("system must be square in the x variables")
        if len(self.zeta) != len(self.t_vars):
            raise ValueError(
                f"zeta has {len(self.zeta)} entries, the system has {len(self.t_vars)} t variables"
            )
        if len(self.target) != len(self.polys):
            raise ValueError(
                f"target has {len(self.target)} entries, the system has {len(self.polys)} equations"
            )
        for name in ("zeta", "target"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} entries must be finite")
        allvars = self.t_vars + self.x_vars
        repeated = [v for i, v in enumerate(allvars) if v in allvars[:i]]
        if repeated:
            raise ValueError(f"variable {repeated[0]!r} is named more than once")
        for i, p in enumerate(self.polys, start=1):
            if p.variables != allvars:
                raise ValueError("every polynomial must use the t + x variable tuple")
            if p.is_zero:
                raise ValueError(f"equation {i} is the zero polynomial")
            # a coefficient that rounds to 0 or overflows would drop out of the
            # evaluator or break unit scale
            try:
                rounds = all(map(float, p.terms.values()))
            except OverflowError:
                rounds = False
            if not rounds:
                raise ValueError(f"equation {i} has a coefficient beyond float range")
        degs = self.x_degrees()
        if 0 in degs:
            raise ValueError(f"equation {degs.index(0) + 1} has no x term")
        d = None
        if self.little is not None:
            name, rank = self.little.type_name, self.little.rank
            if rank != len(self.x_vars):
                raise ValueError(f"little rank {rank} does not match {len(self.x_vars)} x variables")
            d, rem = divmod(math.prod(degs), weyl_order(name, rank))
            if rem:
                raise ValueError(
                    f"x degrees {', '.join(map(str, degs))} multiply to {math.prod(degs)},"
                    f" which |W({name}{rank})| = {weyl_order(name, rank)} does not divide"
                )
        object.__setattr__(self, "d", d)

    @classmethod
    def from_restriction(
        cls, res: Restriction, zeta: Sequence[complex], target: Sequence[complex]
    ) -> "DeformedSystem":
        return cls(
            polys=res.adapted,
            t_vars=res.t_vars,
            x_vars=res.x_vars,
            zeta=tuple(zeta),
            target=tuple(target),
            little=res.little,
        )

    def x_degrees(self) -> tuple[int, ...]:
        """Top degree of each equation in the x variables alone."""
        k = len(self.t_vars)
        out = []
        for p in self.polys:
            out.append(max(sum(e[k:]) for e in p.terms))
        return tuple(out)

    def expected_count(self) -> int | None:
        if self.d is None:
            return None
        return weyl_order(self.little.type_name, self.little.rank) * self.d

    def restricted_polys(self) -> tuple[Polynomial, ...]:
        return tuple(p.restrict_zero(self.t_vars) for p in self.polys)


def jacobian_J(system: DeformedSystem) -> Polynomial:
    """Exact Jacobian determinant det[dU_i/dx_j] as a polynomial in (t; x).

    Setting t = 0 here agrees exactly with the Jacobian determinant of the
    restricted family.
    """
    return jacobian_det(system.polys, system.x_vars)


class _Numeric:
    """The system at t = zeta, by default its own, as one batched evaluator.

    Every monomial of f and of df/dx is collected once, with the columns 1,
    x_i^m_i and x_i^(m_i - 1) of the start system for the x degrees m_i, so
    a batch of points X (P, r) costs one power table and one product with a
    block over those columns (`evaluate`): with C = [f | J], `mono @ C`
    gives f (P, r) and the Jacobian (P, r, r) side by side.  Terms are read
    sorted by exponent and each coefficient is rounded once, as in
    `Polynomial.eval`, so f, J and the column layout depend on the
    polynomials' values alone.
    """

    def __init__(self, system: DeformedSystem, zeta: Sequence[complex] | None = None):
        zeta = system.zeta if zeta is None else zeta
        k = len(system.t_vars)
        r = len(system.x_vars)
        self.r = r
        self.degrees = system.x_degrees()
        column: dict[tuple[int, ...], int] = {}
        terms, scales = [], []
        for i, p in enumerate(system.polys):
            acc: dict[tuple[int, ...], complex] = {}
            for e, c in sorted(p.terms.items()):
                z = complex(c.numerator / c.denominator)
                for j in range(k):
                    if e[j]:
                        z *= zeta[j] ** e[j]
                ex = e[k:]
                acc[ex] = acc.get(ex, 0j) + z
            for ex, z in acc.items():
                terms.append((column.setdefault(ex, len(column)), i, z))
                for j in range(r):
                    if ex[j]:
                        dx = ex[:j] + (ex[j] - 1,) + ex[j + 1 :]
                        terms.append((column.setdefault(dx, len(column)), r + i * r + j, z * ex[j]))
            scales.append(max(abs(z) for z in acc.values()))

        # the start system's columns: x_j^m, and 1 as x_0^0
        def power(j: int, m: int) -> int:
            return column.setdefault(tuple(m if i == j else 0 for i in range(r)), len(column))

        self.one = power(0, 0)
        self.top = np.array([power(j, m) for j, m in enumerate(self.degrees)])
        self.below = np.array([power(j, m - 1) for j, m in enumerate(self.degrees)])
        M = np.array(list(column), dtype=np.int64).reshape(len(column), r)
        # x_j^e sits at offset j * depth + e of the flattened power table
        self.depth = int(M.max()) + 1
        self.flat = np.arange(r) * self.depth + M
        self.C = np.zeros((len(column), r + r * r), dtype=np.complex128)
        for row, col, z in terms:
            self.C[row, col] = z
        self.abs_f = np.abs(self.C[:, :r])
        self.poly_scale = np.array(scales)
        self.coeff_scale = float(np.max(self.poly_scale))

    def evaluate(self, X: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The monomials (P, columns) at the points X (P, r), by one power table and one gather,
        and their product with `block`.  A power that overflows gives a row of inf or nan, which
        the tracker and `accept` reject, and the caller's np.errstate keeps it from warning."""
        table = np.empty((len(X), self.r, self.depth), dtype=np.complex128)
        table[:, :, 0] = 1
        table[:, :, 1:] = X[:, :, None]
        np.cumprod(table, axis=2, out=table)
        mono = table.reshape(len(X), self.r * self.depth)[:, self.flat].prod(axis=2)
        return mono, mono @ block

    def shifted(self, a: np.ndarray) -> np.ndarray:
        """The block C with a taken from f's column of 1: a product with it gives f - a and J."""
        K = self.C.copy()
        K[self.one, : self.r] -= a
        return K

    def split(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocks (P, r) and (P, r, r) of a product with C."""
        return Y[:, : self.r], Y[:, self.r :].reshape(len(Y), self.r, self.r)

    def __call__(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f (P, r) and the Jacobian (P, r, r) at the points X (P, r)."""
        return self.split(self.evaluate(X, self.C)[1])

    def bound(self, mono: np.ndarray, a: np.ndarray) -> np.ndarray:
        """(P,) the residual |f - a| an accepted point may have: 1e-12 max(1, |a|, term size),
        the term size the largest sum of |term| over the equations at the monomials `mono`, so
        the bound stays above the float floor of f where large terms cancel to a small target."""
        size = (np.abs(mono) @ self.abs_f).max(axis=1)
        return 1e-12 * np.maximum(max(1.0, float(np.max(np.abs(a)))), size)

    def accept(self, X: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The residuals |f_i - a_i| (P, r) at the points X (P, r), by one evaluation of f alone,
        and the mask of the points within `bound`: the rule every returned point meets."""
        mono, F = self.evaluate(X, self.C[:, : self.r])
        residual = np.abs(F - a)
        return residual, residual.max(axis=1) <= self.bound(mono, a)


def _unit_circle(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _solve_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Solve A[p] y[p] = b[p] for every p; where A[p] is singular, y[p] is nan and p is listed
    (the batched call raises, so the batch is then solved member by member)."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], []
    except np.linalg.LinAlgError:
        y, singular = np.full_like(b, np.nan), []
        for p in range(len(A)):
            try:
                y[p] = np.linalg.solve(A[p], b[p])
            except np.linalg.LinAlgError:
                singular.append(p)
        return y, singular


def _points(name: str, points, r: int) -> np.ndarray:
    """The points as a (P, r) complex array; ValueError unless each has r finite coordinates."""
    try:
        X = np.array(points, dtype=np.complex128)
        ok = X.ndim == 2 and X.shape[1] == r and np.isfinite(X).all()
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must have {r} finite coordinates")
    return X


def _near_pairs(X: np.ndarray):
    """Yield index arrays (i, j), i < j, of the rows of X (P, r) within the merge radius.

    Rows sorted on a key, Re and Im x weighted by cos(1), cos(2), ... (independent over Q) over
    the sum of |weights|, meet the k-th row after them, min(P - 1, 2^14 / P) values of k at a
    time, until no keys k apart lie within the radius: keys differ by at most the max-norm
    distance."""
    w = np.cos(np.arange(1, 2 * X.shape[1] + 1))
    key = np.concatenate([X.real, X.imag], axis=1) @ (w / np.abs(w).sum())
    order = np.argsort(key, kind="stable")
    key = np.append(key[order], np.inf)  # past the last row
    rows, block = np.arange(len(X))[:, None], max(1, min(len(X) - 1, 2**14 // len(X)))
    for k in range(1, len(X), block):
        i, j = np.broadcast_arrays(rows, np.minimum(rows + np.arange(k, k + block), len(X)))
        close = key[j] - key[i] < _CLUSTER_RADIUS
        if not close.any():
            return
        i, j = order[i[close]], order[j[close]]
        near = np.abs(X[i] - X[j]).max(axis=1) < _CLUSTER_RADIUS
        yield np.minimum(i, j)[near], np.maximum(i, j)[near]


def _merged(X: np.ndarray) -> int:
    """How many rows of X (P, r) lie within the merge radius of an earlier row."""
    return len(set().union(*(j.tolist() for _, j in _near_pairs(X))))


def _start_system(num: _Numeric, gamma: complex, cs: np.ndarray) -> np.ndarray:
    """The total-degree start block g = gamma kappa (x^m - c) and g_x over the columns of `num`,
    kappa matching its size to the target equations' so neither end dominates."""
    r = num.r
    g = gamma * num.poly_scale
    G = np.zeros_like(num.C)
    G[num.top, np.arange(r)] = g
    G[num.one, :r] -= g * cs
    G[num.below, r + np.arange(r) * (r + 1)] = g * np.array(num.degrees)
    return G


def _homotopy(num: _Numeric, a: np.ndarray, start: np.ndarray):
    """The kernel (X, s) -> (H, H_x, dH/ds) of H = (1 - s) g + s (f - a).

    The start system g and g_x are the block `start` over the columns of
    `num`, as f - a and J are `num.shifted(a)`.  With K = [g | (f - a) - g]
    built once and Y = mono K = [Y_g | Y_d], (H, H_x) = Y_g + s Y_d and
    dH/ds is Y_d's first r columns: a batch is one power table and product.
    """
    width = num.r + num.r * num.r
    K = np.hstack([start, num.shifted(a) - start])

    def kernel(X: np.ndarray, s: np.ndarray):
        Y = num.evaluate(X, K)[1]
        H, Hx = num.split(Y[:, :width] + s[:, None] * Y[:, width:])
        return H, Hx, Y[:, width : width + num.r]

    return kernel


def _track_paths(
    num: _Numeric, a: np.ndarray, homotopy, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Track the start points (P, r) along the kernel `homotopy` to f(x) = a as one batch.

    Every path keeps its own s, step ds and fate, and takes the steps it
    would take alone: an RK4 predictor, at most 4 Newton corrections, each
    step accepted once its update is within 1e-8 max(1, |x|), ds doubled
    after a correction in at most 2 iterations and halved after a failed
    one, the path lost below ds = 1e-7.  A step never passes s = 1, and no
    Newton runs after it: an endpoint is accepted as it stands when its
    residual is within `_Numeric.bound` (`_Numeric.accept`).  Returns the
    endpoints, the residuals |f_i(x) - a_i| (P, r) of each equation (inf on
    a lost path), and the mask of paths that reached the target within the
    bound.  `solve_fiber` calls it at unit scale, and its np.errstate keeps a
    row that overflows from warning: like a singular H_x's nan row, it fails as not finite.
    """
    x = starts.astype(np.complex128)
    s = np.zeros(len(x))
    ds = np.full(len(x), 0.05)
    lost = np.zeros(len(x), dtype=bool)
    while True:
        idx = np.flatnonzero(~lost & (s < 1.0))
        if not idx.size:
            break
        step = np.minimum(ds[idx], 1.0 - s[idx])
        # classical RK4 on dx/ds = -Hx^-1 dH/ds, each stage at x0 + c step k of the
        # last; a row whose prediction is not finite is predicted at x itself
        x0, s0 = x[idx], s[idx]
        xs, ss, slope = x0, s0, 0
        for weight, c in ((1, 0.5), (2, 0.5), (2, 1.0), (1, 0.0)):
            _, Hx, hs = homotopy(xs, ss)
            k = _solve_rows(Hx, -hs)[0]
            slope = slope + weight * k
            if c:
                xs, ss = x0 + (c * step)[:, None] * k, s0 + c * step
        xn = x0 + (step / 6)[:, None] * slope
        bad = ~np.isfinite(xn).all(axis=1)
        xn[bad] = x0[bad]
        s_next = s0 + step
        # the corrections (at most 4) each row converged in, 5 where it did not
        took = np.full(len(idx), 5)
        k = np.arange(len(idx))
        for it in range(1, 5):
            H, Hx, _ = homotopy(xn[k], s_next[k])
            delta = _solve_rows(Hx, -H)[0]
            xk = xn[k] + delta
            finite = np.isfinite(xk).all(axis=1)
            k, delta, xk = k[finite], delta[finite], xk[finite]
            xn[k] = xk
            done = np.abs(delta).max(axis=1) <= 1e-8 * np.maximum(1.0, np.abs(xk).max(axis=1))
            took[k[done]] = it
            k = k[~done]
            if not k.size:
                break
        converged = took <= 4
        moved = idx[converged]
        x[moved] = xn[converged]
        s[moved] = s_next[converged]
        ds[idx[took <= 2]] *= 2
        shrink = idx[~converged]
        ds[shrink] /= 2
        lost[shrink[ds[shrink] < 1e-7]] = True
    ok = ~lost
    residual = np.full(x.shape, np.inf)
    residual[ok], ok[ok] = num.accept(x[ok], a)
    return x, residual, ok


@dataclass(frozen=True)
class FiberResult:
    seed: int
    zeta: tuple[complex, ...]
    target: tuple[complex, ...]
    solutions: tuple[tuple[complex, ...], ...]
    residuals: tuple[float, ...]
    path_stats: dict
    orbit_classes: tuple[tuple[int, ...], ...] | None

    @property
    def count(self) -> int:
        return len(self.solutions)

    def to_json(self) -> str:
        # the field order above is the payload's key order
        return _to_json(vars(self))


def _check_seed(seed) -> None:
    # before any work: numpy's own error for a negative seed names no argument
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _unit_scale(system: DeformedSystem) -> tuple[float, np.ndarray, tuple, np.ndarray]:
    """The weight lam, the powers lam^m_i, and zeta and the target at unit scale.

    When every equation is homogeneous, U_i(lam t, lam x) = lam^m_i U_i(t, x)
    with m_i its total degree, so x solves the system at (zeta, a) exactly
    when x / lam solves it at (zeta / lam, a_i / lam^m_i).  Equation and
    variable scaling (Morgan, 1987) picks lam = exp(mean_i log(|a_i| / c_i)
    / m_i) over the nonzero a_i, c_i the largest |coefficient| of equation i
    before zeta is substituted, so that the fiber lies near unit size; when
    a = 0, lam is the geometric mean of the nonzero |zeta_j|.  When both are
    zero the fiber is the origin alone, and FiberSolveError names the target
    non-generic.  A system with an inhomogeneous equation keeps lam = 1.
    """
    m = [p.homogeneous_degree() for p in system.polys]
    a = np.array(system.target)
    if None in m:
        return 1.0, np.ones(len(m)), system.zeta, a
    logs = [
        math.log(abs(a) / float(max(map(abs, p.terms.values())))) / m_i
        for p, m_i, a in zip(system.polys, m, system.target)
        if a
    ]
    logs = logs or [math.log(abs(z)) for z in system.zeta if z]
    if not logs:
        raise FiberSolveError(
            "non-generic target: target and zeta are zero, so the fiber is the origin"
            f" with multiplicity {math.prod(m)}"
        )
    lam = math.exp(sum(logs) / len(logs))
    powers = np.array([lam**m_i for m_i in m])
    return lam, powers, tuple(z / lam for z in system.zeta), a / powers


def _attempts(attempt):
    """Call attempt() until the failure it returns with what it found is None, at most 4 times."""
    for n in range(1, _MAX_RETRIES + 2):
        found, failure = attempt()
        if failure is None:
            return found
    raise FiberSolveError(f"{failure} after {n} attempts")


def _total_degree(num: _Numeric, a: np.ndarray, rng: np.random.Generator):
    """One attempt of the total-degree homotopy: prod(m_i) start paths, none lost or merged."""
    degrees, total = num.degrees, math.prod(num.degrees)
    # start point `flat` takes root (flat // prod(degrees[:i])) % degrees[i] of equation i
    digits = np.unravel_index(np.arange(total), degrees, order="F")
    gamma = _unit_circle(rng)
    cs = np.array([_unit_circle(rng) for _ in degrees], dtype=np.complex128)
    roots = [c ** (1.0 / m) * np.exp(2j * np.pi * k / m) for m, c, k in zip(degrees, cs, digits)]
    kernel = _homotopy(num, a, _start_system(num, gamma, cs))
    X, residual, ok = _track_paths(num, a, kernel, np.stack(roots, axis=1))
    failed = total - int(ok.sum())
    if failed:
        return None, f"{failed} of {total} paths failed"
    merged = _merged(X)
    return (X, residual), f"{merged} endpoints merged" if merged else None


def _orbit(num: _Numeric, a: np.ndarray, little: RootSystem, order: int, rng: np.random.Generator):
    """One attempt at a d = 1 fiber: one path, closed under W(little) into `order` points.

    A complex normal x0 times mu = exp(mean_i log(|a_i| / |f_i(x0)|) / m_i) over the nonzero
    a_i, so that a0 = f(x0) has the size of a, is tracked from g = conj(gamma) (f - a0): H
    vanishes where f = (1 - tau) a0 + tau a, tau = gamma s / (1 + (gamma - 1) s), the gamma
    trick on the line through a0 and a.  The closure of the accepted endpoint is the fiber, and
    each image must meet the endpoint's rule, `_Numeric.accept`.  An image off the bound means U
    is not W-invariant, and the attempt finds None and no failure.
    """
    x0, gamma = rng.standard_normal(num.r) + 1j * rng.standard_normal(num.r), _unit_circle(rng)
    a0 = num(x0[None])[0][0]
    logs = [math.log(abs(ai) / abs(bi)) / m for ai, bi, m in zip(a, a0, num.degrees) if ai and bi]
    x0 *= math.exp(sum(logs) / len(logs)) if logs else 1.0
    a0 = num(x0[None])[0][0]
    kernel = _homotopy(num, a, np.conj(gamma) * num.shifted(a0))
    x, _, ok = _track_paths(num, a, kernel, x0[None])
    if not ok[0]:
        return None, "1 of 1 paths failed"
    X = _orbit_points(x[0], little, order)
    if len(X) != order:
        return None, f"the orbit closure has {len(X)} of {order} points"
    residual, ok = num.accept(X, a)
    if not ok.all():
        return None, None
    merged = _merged(X)
    return (X, residual), f"{merged} endpoints merged" if merged else None


@np.errstate(over="ignore", invalid="ignore")
def solve_fiber(system: DeformedSystem, seed: int = 0) -> FiberResult:
    """Return the complete, sorted fiber.

    With a little group and d = 1 one path is tracked and reflected onto its orbit, one class
    (`_orbit`); otherwise, or if a reflected image misses the residual bound (U is not
    W-invariant), all prod(m_i) total-degree paths are, and `orbit_partition` splits them.
    `path_stats["tracked"]` counts the paths.  Points are checked, sorted and classed at unit
    scale (`_unit_scale`), and each meets `_Numeric.accept`'s bound as it stands.  An attempt
    with a lost path, a tracked endpoint off the bound, an orbit closure of the wrong size or two
    points within the merge radius (a path jump, or a target off the generic locus) is made
    again from the same generator stream; after three retries the solve raises FiberSolveError.
    """
    _check_seed(seed)
    lam, powers, zeta, a = _unit_scale(system)
    num = _Numeric(system, zeta)
    rng = np.random.default_rng(seed)
    found = None
    if system.d == 1:
        found = _attempts(lambda: _orbit(num, a, system.little, system.expected_count(), rng))
    X, residual = found or _attempts(lambda: _total_degree(num, a, rng))

    # Distinct points differ by at least the merge radius, so keys on a grid
    # 1024 times finer still tell them apart, while float noise in a shared
    # coordinate can no longer decide the order.
    keys = np.round(np.stack([X.real, X.imag], axis=2) / (_CLUSTER_RADIUS / 1024))
    order = sorted(range(len(X)), key=lambda i: tuple(keys[i].ravel()))
    solutions = tuple(tuple(complex(z) for z in lam * X[i]) for i in order)
    # equation i's residual grows by lam^m_i on the way back to the caller's frame
    residuals = tuple(float(r) for r in (residual[order] * powers).max(axis=1))

    orbit_classes = None
    if found:
        orbit_classes = (tuple(range(len(X))),)
    elif system.little is not None:
        orbit_classes = orbit_partition(X[order], system.little)

    return FiberResult(
        seed=seed,
        zeta=system.zeta,
        target=system.target,
        solutions=solutions,
        residuals=residuals,
        path_stats={"tracked": 1 if found else math.prod(num.degrees), "failed": 0, "merged": 0},
        orbit_classes=orbit_classes,
    )


def _orbit_points(x: np.ndarray, little: RootSystem, order: int) -> np.ndarray:
    """The orbit of x (r,) under the simple reflections of `little`, x first, or more than
    `order` points: each round keeps the images whose coordinates, rounded to the sort grid
    (1024 cells per merge radius), no earlier point has, and reflects them in every simple root."""
    # every S^T side by side, S a simple reflection's matrix: row x @ side lists x's images
    side = np.array(simple_reflections(little), dtype=float).transpose(2, 0, 1).reshape(len(x), -1)
    X, images, seen = np.empty((0, len(x)), dtype=np.complex128), x[None], set()
    while len(images) and len(X) <= order:
        cells = np.round(np.hstack([images.real, images.imag]) / (_CLUSTER_RADIUS / 1024))
        new = images[[c not in seen and not seen.add(c) for c in map(tuple, cells.tolist())]]
        X = np.concatenate([X, new])
        images = (new @ side).reshape(-1, len(x))
    return X


def orbit_partition(
    points: Sequence[Sequence[complex]],
    little: RootSystem,
) -> tuple[tuple[int, ...], ...]:
    """Group fiber points into orbits of the Weyl group of `little`.

    The least point with no class yet is closed under the simple reflections
    (`_orbit_points`), and its class is every point within the merge radius
    of an image, found in one sweep over the images and the points.  Classes
    are ascending, ordered by smallest member.  Two points within the radius,
    a closure of more than |W| points, and nearness that is not transitive
    (a point near the orbits of two classes, or two points near one image)
    raise InconsistentClusteringError.
    """
    if not len(points):
        return ()
    pts = _points("every point", points, little.rank)
    near = [min(zip(i.tolist(), j.tolist())) for i, j in _near_pairs(pts) if i.size]
    if near:
        i, j = min(near)
        raise InconsistentClusteringError(f"points {i} and {j} lie within {_CLUSTER_RADIUS}")
    order = weyl_order(little.type_name, little.rank)
    label = np.full(len(pts), -1)
    for i in range(len(pts)):
        if label[i] >= 0:
            continue
        images = _orbit_points(pts[i], little, order)
        n = len(images)
        if n > order:
            raise InconsistentClusteringError(f"the orbit of point {i} has over {order} points")
        # the (image, point) pairs; rows n and on of the sweep are the points
        pairs = np.hstack([np.stack(p) for p in _near_pairs(np.concatenate([images, pts]))])
        image, point = pairs[:, (pairs[0] < n) & (pairs[1] >= n)] - [[0], [n]]
        twice = np.flatnonzero(np.bincount(image, minlength=n) > 1)
        if twice.size:
            j, k = sorted(point[image == twice[0]])[:2]
            raise InconsistentClusteringError(f"points {j} and {k} lie near one image of point {i}")
        taken = point[label[point] >= 0]
        if taken.size:
            j = taken.min()
            raise InconsistentClusteringError(
                f"point {j} lies near the orbits of points {label[j]} and {i}"
            )
        label[point] = i
    return tuple(tuple(np.flatnonzero(label == i).tolist()) for i in sorted(set(label.tolist())))


@np.errstate(over="ignore", invalid="ignore")
def _unramified(system: DeformedSystem, num: _Numeric, X: np.ndarray) -> np.ndarray:
    """Mask of the points X (P, r) where |det J| at (zeta; x) > 1e-10 coeff_scale height^deg_J,
    in logs so neither side overflows; ValueError names a point where J is not finite."""
    J = num(X)[1]
    bad = ~np.isfinite(J).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"the Jacobian at {tuple(map(complex, X[bad][0]))} is not finite")
    deg_j = sum(d - 1 for d in num.degrees)
    height = np.maximum(max([1.0] + [abs(z) for z in system.zeta]), np.abs(X).max(axis=1))
    bound = math.log(_SINGULAR_TOL * num.coeff_scale) + deg_j * np.log(height)
    return np.linalg.slogdet(J)[1] > bound


def _generic(system: DeformedSystem, X: np.ndarray) -> np.ndarray:
    """Mask of the points X (P, r) that are unramified and pair integrally with no root."""
    little = system.little
    if little is None:
        raise ValueError("genericity needs a little root system")
    # X times the rows B v of the little form pairs X with each root v
    pairing = X @ np.array([[float(c) for c in matvec(little.form, v)] for v in little.roots]).T
    integral = (np.abs(pairing.imag) <= _INT_TOL) & (
        np.abs(pairing.real - np.round(pairing.real)) <= _INT_TOL
    )
    return _unramified(system, _Numeric(system), X) & ~integral.any(axis=1)


def is_unramified(system: DeformedSystem, point: Sequence[complex]) -> bool:
    """Whether the Jacobian in x is numerically nonzero at (zeta; point)."""
    X = _points("point", [point], len(system.x_vars))
    return bool(_unramified(system, _Numeric(system), X)[0])


def is_generic(system: DeformedSystem, point: Sequence[complex]) -> bool:
    """Unramified, and no little-system root pairs integrally with the point."""
    return bool(_generic(system, _points("point", [point], len(system.x_vars)))[0])


def is_generic_fiber(system: DeformedSystem, result: FiberResult) -> bool:
    """Whether every fiber point is generic; an empty fiber is."""
    if not result.solutions:
        return True
    return bool(_generic(system, np.array(result.solutions, dtype=np.complex128)).all())


def solve_lambda_xi(system: DeformedSystem, xi: Sequence[complex], seed: int = 0) -> FiberResult:
    """Solve U(0; lambda) = U(zeta; xi) for lambda.

    The target is the exact polynomial evaluated at (zeta; xi); the fiber is
    then taken in the undeformed system.  A nonempty solution list exhibits
    the lambda points attached to xi.
    """
    _check_seed(seed)
    at = list(system.zeta) + list(_points("xi", [xi], len(system.x_vars))[0])
    target = tuple(p.eval(at) for p in system.polys)
    base = replace(system, zeta=tuple(0j for _ in system.t_vars), target=target)
    return solve_fiber(base, seed=seed)


@np.errstate(over="ignore", invalid="ignore")
def local_inverse_psi(
    system: DeformedSystem,
    target: Sequence[complex],
    start: Sequence[complex],
) -> tuple[complex, ...]:
    """Newton-invert the specialized map near an unramified start point.

    Newton stops at the first iterate within `_Numeric.bound`, the rule a
    fiber point meets.  Raises RamifiedPointError if the start sits on the
    ramification divisor, SingularJacobianError if the iteration hits a
    numerically singular Jacobian, and NewtonDivergenceError if a step is
    not finite or 30 steps do not converge.
    """
    r = len(system.x_vars)
    x = _points("start", [start], r)
    a = _points("target", [target], r)[0]
    num = _Numeric(system)
    if not _unramified(system, num, x)[0]:
        raise RamifiedPointError("start point lies on the ramification divisor")
    for _ in range(_NEWTON_STEPS):
        mono, Y = num.evaluate(x, num.C)
        F, J = num.split(Y)
        res = F - a
        if np.abs(res).max() <= num.bound(mono, a)[0]:
            return tuple(complex(z) for z in x[0])
        delta, singular = _solve_rows(J, -res)
        if singular:
            raise SingularJacobianError("the Jacobian became singular")
        if not np.isfinite(delta).all():
            raise NewtonDivergenceError("iterates left the finite plane")
        x += delta
    raise NewtonDivergenceError(f"no convergence in {_NEWTON_STEPS} iterations")
