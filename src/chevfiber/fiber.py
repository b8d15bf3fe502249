"""Numerical fibers of deformed invariant systems.

A DeformedSystem holds square polynomial equations U_i(t; x) over deformation
variables t and fiber variables x.  Fixing t = zeta and a target vector a,
`solve_fiber` finds every solution of U_i(zeta; x) = a_i by a total-degree
homotopy: start solutions of x_i^{d_i} = c_i are tracked to the target system
along H(x, s) = (1 - s) gamma g(x) + s (f(x) - a) with an Euler predictor and
a Newton corrector on an adaptive step.  Endpoints are polished, filtered by
residual, merged by proximity, and returned in a canonical order, so a fixed
seed reproduces results byte for byte.

The symbolic Jacobian determinant of the system in the x directions is
homogeneous of degree sum(m_i - 1) over the ambient grading -- the sum, not
the product.  Its zero locus is the ramification divisor; predicates below
test points against it numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._linalg import matvec
from .polyring import Polynomial, jacobian_det
from .restrict import Restriction, rank_d
from .rootsys import RootSystem, fundamental_degrees, weyl_group, weyl_order


class FiberSolveError(RuntimeError):
    """Path tracking could not produce a trustworthy fiber."""


class RamifiedPointError(FiberSolveError):
    """A local inverse was requested at a ramification point."""


class NewtonDivergenceError(FiberSolveError):
    """Newton iteration failed to converge."""


class SingularJacobianError(FiberSolveError):
    """The Jacobian became numerically singular during iteration."""


class InconsistentClusteringError(FiberSolveError):
    """A group element matched one fiber point to several others."""


DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_CLUSTER_RADIUS = 1e-6
DEFAULT_SINGULAR_TOL = 1e-10
DEFAULT_INT_TOL = 1e-8
_MAX_RETRIES = 3
_FAILURE_RATE_LIMIT = 0.05


@dataclass(frozen=True)
class DeformedSystem:
    """U_i(t; x) = a_i with t frozen at zeta.

    `little` and `d` describe the expected fiber structure: the solution
    count of a generic fiber is |W(little)| * d.  When `little` is given and
    `d` is not, d is derived from the degree quotient.
    """

    polys: tuple[Polynomial, ...]
    t_vars: tuple[str, ...]
    x_vars: tuple[str, ...]
    zeta: tuple[complex, ...]
    target: tuple[complex, ...]
    little: RootSystem | None = None
    d: int | None = None

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
            raise ValueError("zeta length must match the t variables")
        if len(self.target) != len(self.polys):
            raise ValueError("target length must match the system")
        allvars = self.t_vars + self.x_vars
        for i, p in enumerate(self.polys, start=1):
            if p.variables != allvars:
                raise ValueError("every polynomial must use the t + x variable tuple")
            if p.is_zero:
                raise ValueError(f"equation {i} is the zero polynomial")
        if self.d is not None and self.d < 1:
            raise ValueError(f"fiber degree d must be at least 1, got {self.d}")
        if self.little is not None and self.d is None:
            degs = self.x_degrees()
            object.__setattr__(
                self,
                "d",
                rank_d(
                    degs,
                    fundamental_degrees(self.little.type_name, self.little.rank),
                ),
            )

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
            d=res.d,
        )

    def x_degrees(self) -> tuple[int, ...]:
        """Top degree of each equation in the x variables alone."""
        k = len(self.t_vars)
        out = []
        for p in self.polys:
            out.append(max(sum(e[k:]) for e in p.terms))
        return tuple(out)

    def expected_count(self) -> int | None:
        if self.little is None or self.d is None:
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
    """Arrays for fast evaluation of the specialized system and Jacobian."""

    def __init__(self, system: DeformedSystem):
        k = len(system.t_vars)
        r = len(system.x_vars)
        self.r = r
        self.E: list[np.ndarray] = []
        self.C: list[np.ndarray] = []
        for p in system.polys:
            acc: dict[tuple[int, ...], complex] = {}
            for e, c in p.terms.items():
                z = complex(c.numerator) / complex(c.denominator)
                for j in range(k):
                    if e[j]:
                        z *= system.zeta[j] ** e[j]
                ex = e[k:]
                acc[ex] = acc.get(ex, 0j) + z
            exps = sorted(acc)
            self.E.append(np.array(exps, dtype=np.int64).reshape(len(exps), r))
            self.C.append(np.array([acc[e] for e in exps], dtype=np.complex128))
        self.JE: list[list[np.ndarray]] = []
        self.JC: list[list[np.ndarray]] = []
        for E, C in zip(self.E, self.C):
            row_e, row_c = [], []
            for j in range(r):
                mask = E[:, j] > 0
                Ed = E[mask].copy()
                Cd = C[mask] * Ed[:, j]
                Ed[:, j] -= 1
                row_e.append(Ed)
                row_c.append(Cd)
            self.JE.append(row_e)
            self.JC.append(row_c)
        self.poly_scale = np.array(
            [float(np.max(np.abs(C))) if C.size else 1.0 for C in self.C]
        )
        self.coeff_scale = float(np.max(self.poly_scale))

    def f(self, x: np.ndarray) -> np.ndarray:
        return np.array(
            [np.prod(x**E, axis=1) @ C for E, C in zip(self.E, self.C)],
            dtype=np.complex128,
        )

    def jac(self, x: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.E), self.r), dtype=np.complex128)
        for i in range(len(self.E)):
            for j in range(self.r):
                E, C = self.JE[i][j], self.JC[i][j]
                out[i, j] = np.prod(x**E, axis=1) @ C if len(C) else 0j
        return out


def _unit_circle(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _track_one(
    num: _Numeric,
    a: np.ndarray,
    gamma: complex,
    degrees: Sequence[int],
    cs: np.ndarray,
    start: np.ndarray,
    residual_tol: float,
) -> tuple[np.ndarray, float] | None:
    d = np.array(degrees, dtype=np.int64)
    # match the start equations to the coefficient size of the target
    # equations so neither homotopy endpoint dominates the other
    kappa = num.poly_scale

    def g(x):
        return kappa * (x**d - cs)

    def gx(x):
        return np.diag(kappa * d * x ** (d - 1))

    def H(x, s):
        return (1 - s) * gamma * g(x) + s * (num.f(x) - a)

    def Hx(x, s):
        return (1 - s) * gamma * gx(x) + s * num.jac(x)

    x = start.astype(np.complex128)
    s = 0.0
    ds = 0.05
    while s < 1.0:
        step = min(ds, 1.0 - s)
        try:
            hs = (num.f(x) - a) - gamma * g(x)
            v = np.linalg.solve(Hx(x, s), -hs)
            xp = x + v * step
        except np.linalg.LinAlgError:
            xp = x
        s_next = s + step
        xn = xp
        converged = False
        iterations = 0
        for it in range(4):
            iterations = it + 1
            try:
                delta = np.linalg.solve(Hx(xn, s_next), -H(xn, s_next))
            except np.linalg.LinAlgError:
                break
            xn = xn + delta
            if not np.all(np.isfinite(xn)):
                break
            if np.max(np.abs(delta)) <= 1e-10 * max(1.0, float(np.max(np.abs(xn)))):
                converged = True
                break
        if converged:
            x = xn
            s = s_next
            if iterations <= 2:
                ds = min(0.1, ds * 2)
        else:
            ds /= 2
            if ds < 1e-4:
                return None
    # endpoint polish against the plain target system
    for _ in range(30):
        res = num.f(x) - a
        if np.max(np.abs(res)) <= 1e-12 * max(1.0, float(np.max(np.abs(a)))):
            break
        try:
            delta = np.linalg.solve(num.jac(x), -res)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        x = x + delta
    residual = float(np.max(np.abs(num.f(x) - a)))
    if not np.isfinite(residual) or residual > residual_tol:
        return None
    return x, residual


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
        return _result_json(self)


def _fmt_float(v: float) -> str:
    return "%.17g" % v


def _fmt_pair(z: complex) -> str:
    return "[%s,%s]" % (_fmt_float(z.real), _fmt_float(z.imag))


def _result_json(r: FiberResult) -> str:
    parts = []
    parts.append('"seed":%d' % r.seed)
    parts.append('"zeta":[%s]' % ",".join(_fmt_pair(z) for z in r.zeta))
    parts.append('"target":[%s]' % ",".join(_fmt_pair(z) for z in r.target))
    sols = ",".join(
        "[%s]" % ",".join(_fmt_pair(z) for z in point) for point in r.solutions
    )
    parts.append('"solutions":[%s]' % sols)
    parts.append('"residuals":[%s]' % ",".join(_fmt_float(v) for v in r.residuals))
    parts.append(
        '"path_stats":{"tracked":%d,"failed":%d,"merged":%d}'
        % (
            r.path_stats["tracked"],
            r.path_stats["failed"],
            r.path_stats["merged"],
        )
    )
    if r.orbit_classes is None:
        parts.append('"orbit_classes":null')
    else:
        parts.append(
            '"orbit_classes":[%s]'
            % ",".join("[%s]" % ",".join(str(i) for i in cls) for cls in r.orbit_classes)
        )
    return "{%s}" % ",".join(parts)


def solve_fiber(
    system: DeformedSystem,
    seed: int = 0,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
) -> FiberResult:
    """Track every start path and return the merged, sorted fiber.

    Retries with a fresh gamma (same generator stream) when more than five
    percent of paths are lost; after three retries the solve is abandoned.
    """
    num = _Numeric(system)
    degrees = system.x_degrees()
    if any(d < 1 for d in degrees):
        raise FiberSolveError("system has a constant equation in x")
    a = np.array(system.target, dtype=np.complex128)
    rng = np.random.default_rng(seed)

    total = math.prod(degrees)
    attempt = 0
    while True:
        gamma = _unit_circle(rng)
        cs = np.array([_unit_circle(rng) for _ in degrees], dtype=np.complex128)
        roots = []
        for d_i, c_i in zip(degrees, cs):
            base = c_i ** (1.0 / d_i)
            roots.append(
                [base * np.exp(2j * np.pi * k / d_i) for k in range(d_i)]
            )
        starts = []
        idx = [0] * len(degrees)
        for flat in range(total):
            rem = flat
            for i, d_i in enumerate(degrees):
                idx[i] = rem % d_i
                rem //= d_i
            starts.append(
                np.array([roots[i][idx[i]] for i in range(len(degrees))])
            )
        outcomes = [_track_one(num, a, gamma, degrees, cs, x0, residual_tol) for x0 in starts]
        accepted = [o for o in outcomes if o is not None]
        failed = total - len(accepted)
        if failed <= _FAILURE_RATE_LIMIT * total:
            break
        attempt += 1
        if attempt > _MAX_RETRIES:
            raise FiberSolveError(
                f"{failed} of {total} paths failed after {attempt} attempts"
            )

    # merge endpoints that landed on the same point
    near = (
        (i, j)
        for i in range(len(accepted))
        for j in range(i + 1, len(accepted))
        if float(np.max(np.abs(accepted[i][0] - accepted[j][0]))) < cluster_radius
    )
    reps = []
    for members in _components(len(accepted), near):
        best = min(members, key=lambda i: accepted[i][1])
        reps.append(accepted[best])
    merged = len(accepted) - len(reps)

    reps.sort(key=lambda pr: tuple((z.real, z.imag) for z in pr[0]))
    solutions = tuple(tuple(complex(z) for z in x) for x, _ in reps)
    residuals = tuple(res for _, res in reps)

    orbit_classes = None
    if system.little is not None:
        matrices = _float_group(system.little)
        orbit_classes = orbit_partition(solutions, matrices, radius=cluster_radius)

    return FiberResult(
        seed=seed,
        zeta=system.zeta,
        target=system.target,
        solutions=solutions,
        residuals=residuals,
        path_stats={"tracked": total, "failed": failed, "merged": merged},
        orbit_classes=orbit_classes,
    )


def _components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on range(n), by union-find.

    Each component is ascending and the list is ordered by smallest member.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


_FLOAT_GROUP_CACHE: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}


def _float_group(rs: RootSystem) -> tuple[np.ndarray, ...]:
    key = (rs.type_name, rs.rank)
    if key not in _FLOAT_GROUP_CACHE:
        _FLOAT_GROUP_CACHE[key] = tuple(
            np.array([[float(v) for v in row] for row in w]) for w in weyl_group(rs)
        )
    return _FLOAT_GROUP_CACHE[key]


def orbit_partition(
    points: Sequence[Sequence[complex]],
    matrices: Sequence[np.ndarray],
    radius: float = DEFAULT_CLUSTER_RADIUS,
) -> tuple[tuple[int, ...], ...]:
    """Group fiber points into orbits of the given matrix group.

    Each image of a point must match at most one fiber point within the
    radius; several matches mean the clustering radius was inconsistent with
    the point spacing.
    """
    pts = [np.array(p, dtype=np.complex128) for p in points]

    def edges():
        for i, p in enumerate(pts):
            for m in matrices:
                image = m @ p
                matches = [
                    j
                    for j, q in enumerate(pts)
                    if float(np.max(np.abs(image - q))) < radius
                ]
                if len(matches) > 1:
                    raise InconsistentClusteringError(
                        f"point {i} maps within {radius} of {len(matches)} fiber points"
                    )
                if matches:
                    yield i, matches[0]

    return tuple(tuple(c) for c in _components(len(pts), edges()))


def is_unramified(
    system: DeformedSystem,
    point: Sequence[complex],
    singular_tol: float = DEFAULT_SINGULAR_TOL,
) -> bool:
    """Whether the Jacobian in x is numerically nonzero at (zeta; point)."""
    num = _Numeric(system)
    x = np.array(point, dtype=np.complex128)
    detval = abs(np.linalg.det(num.jac(x)))
    deg_j = sum(d - 1 for d in system.x_degrees())
    height = max([1.0] + [abs(z) for z in system.zeta] + [abs(z) for z in x])
    scale = num.coeff_scale * height**deg_j
    return detval > singular_tol * scale


def is_generic(
    system: DeformedSystem,
    point: Sequence[complex],
    singular_tol: float = DEFAULT_SINGULAR_TOL,
    int_tol: float = DEFAULT_INT_TOL,
) -> bool:
    """Unramified, and no little-system root pairs integrally with the point."""
    if system.little is None:
        raise ValueError("genericity needs a little root system")
    if not is_unramified(system, point, singular_tol=singular_tol):
        return False
    x = np.array(point, dtype=np.complex128)
    for alpha in system.little.roots:
        coeffs = matvec(system.little.form, alpha)
        pairing = complex(sum(float(c) * z for c, z in zip(coeffs, x)))
        if (
            abs(pairing.imag) <= int_tol
            and abs(pairing.real - round(pairing.real)) <= int_tol
        ):
            return False
    return True


def is_generic_fiber(system: DeformedSystem, result: FiberResult, **kw) -> bool:
    return all(is_generic(system, p, **kw) for p in result.solutions)


def solve_lambda_xi(
    system: DeformedSystem,
    xi: Sequence[complex],
    seed: int = 0,
    **solver_kw,
) -> FiberResult:
    """Solve U(0; lambda) = U(zeta; xi) for lambda.

    The target is the exact polynomial evaluated at (zeta; xi); the fiber is
    then taken in the undeformed system.  A nonempty solution list exhibits
    the lambda points attached to xi.
    """
    at = list(system.zeta) + [complex(z) for z in xi]
    target = tuple(p.eval(at) for p in system.polys)
    base = DeformedSystem(
        polys=system.polys,
        t_vars=system.t_vars,
        x_vars=system.x_vars,
        zeta=tuple(0j for _ in system.t_vars),
        target=target,
        little=system.little,
        d=system.d,
    )
    return solve_fiber(base, seed=seed, **solver_kw)


def local_inverse_psi(
    system: DeformedSystem,
    target: Sequence[complex],
    start: Sequence[complex],
    tol: float = 1e-12,
    max_iter: int = 50,
    singular_tol: float = DEFAULT_SINGULAR_TOL,
) -> tuple[complex, ...]:
    """Newton-invert the specialized map near an unramified start point.

    Raises RamifiedPointError if the start sits on the ramification divisor,
    SingularJacobianError if the iteration hits a numerically singular
    Jacobian, and NewtonDivergenceError if it fails to converge.
    """
    if not is_unramified(system, start, singular_tol=singular_tol):
        raise RamifiedPointError("start point lies on the ramification divisor")
    num = _Numeric(system)
    x = np.array(start, dtype=np.complex128)
    a = np.array(target, dtype=np.complex128)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_iter):
        res = num.f(x) - a
        if float(np.max(np.abs(res))) <= tol * scale:
            return tuple(complex(z) for z in x)
        j = num.jac(x)
        try:
            delta = np.linalg.solve(j, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from None
        x = x + delta
        if not np.all(np.isfinite(x)):
            raise NewtonDivergenceError("iterates left the finite plane")
    raise NewtonDivergenceError(f"no convergence in {max_iter} iterations")
