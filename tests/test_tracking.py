"""The batched tracker and orbit partition against one-at-a-time references.

`_track_one` below is a scalar path tracker that takes the batched
tracker's steps (an RK4 predictor, a corrector that accepts an update
within 1e-8 max(1, |x|), and ds doubled with no cap short of the path's
end) one path at a time, evaluating each equation and each Jacobian entry
on its own.
Batched BLAS sums in another order, so the two agree to a tolerance, not bit
for bit.  A d = 1 fiber is solved by one path and its orbit closure, which
the oracle checks against all total-degree paths of the same system.  A sweep
over scales checks the count law from lam = 1e-6 to 1e6.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chevfiber import fiber
from chevfiber.fiber import (
    DeformedSystem,
    InconsistentClusteringError,
    orbit_partition,
    solve_fiber,
)
from chevfiber.polyring import parse_polynomial
from chevfiber.restrict import parse_pair_config, restrict_family, split_config
from chevfiber.rootsys import build_root_system, invariant_family, weyl_group, weyl_order

TOY_TEXT = """
ambient_type: B
ambient_rank: 2
little_type: A
little_rank: 1
embedding: 0; 1
"""


class _ScalarNumeric:
    """Per-point evaluation of the specialized system and its Jacobian."""

    def __init__(self, system: DeformedSystem):
        k = len(system.t_vars)
        r = len(system.x_vars)
        self.r = r
        self.E, self.C = [], []
        for p in system.polys:
            acc: dict[tuple[int, ...], complex] = {}
            for e, c in p.terms.items():
                z = complex(c.numerator) / complex(c.denominator)
                for j in range(k):
                    if e[j]:
                        z *= system.zeta[j] ** e[j]
                acc[e[k:]] = acc.get(e[k:], 0j) + z
            exps = sorted(acc)
            self.E.append(np.array(exps, dtype=np.int64).reshape(len(exps), r))
            self.C.append(np.array([acc[e] for e in exps], dtype=np.complex128))
        self.JE, self.JC = [], []
        for E, C in zip(self.E, self.C):
            row_e, row_c = [], []
            for j in range(r):
                mask = E[:, j] > 0
                Ed = E[mask].copy()
                row_c.append(C[mask] * Ed[:, j])
                Ed[:, j] -= 1
                row_e.append(Ed)
            self.JE.append(row_e)
            self.JC.append(row_c)
        self.poly_scale = np.array([float(np.max(np.abs(C))) for C in self.C])

    def f(self, x):
        return np.array([np.prod(x**E, axis=1) @ C for E, C in zip(self.E, self.C)])

    def term_size(self, x):
        return max(float(np.abs(np.prod(x**E, axis=1)) @ np.abs(C)) for E, C in zip(self.E, self.C))

    def jac(self, x):
        out = np.empty((len(self.E), self.r), dtype=np.complex128)
        for i in range(len(self.E)):
            for j in range(self.r):
                E, C = self.JE[i][j], self.JC[i][j]
                out[i, j] = np.prod(x**E, axis=1) @ C if len(C) else 0j
        return out


def _track_one(num, a, gamma, degrees, cs, start):
    d = np.array(degrees, dtype=np.int64)
    kappa = num.poly_scale

    def g(x):
        return kappa * (x**d - cs)

    def H(x, s):
        return (1 - s) * gamma * g(x) + s * (num.f(x) - a)

    def Hx(x, s):
        return (1 - s) * gamma * np.diag(kappa * d * x ** (d - 1)) + s * num.jac(x)

    def tangent(x, s):
        # dx/ds = -Hx^-1 dH/ds
        return np.linalg.solve(Hx(x, s), -((num.f(x) - a) - gamma * g(x)))

    x = start.astype(np.complex128)
    s = 0.0
    ds = 0.05
    while s < 1.0:
        step = min(ds, 1.0 - s)
        # classical RK4; a failed stage or a non-finite prediction keeps x
        try:
            k1 = tangent(x, s)
            k2 = tangent(x + step / 2 * k1, s + step / 2)
            k3 = tangent(x + step / 2 * k2, s + step / 2)
            k4 = tangent(x + step * k3, s + step)
            xp = x + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        except np.linalg.LinAlgError:
            xp = x
        if not np.all(np.isfinite(xp)):
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
            if np.max(np.abs(delta)) <= 1e-8 * max(1.0, float(np.max(np.abs(xn)))):
                converged = True
                break
        if converged:
            x = xn
            s = s_next
            if iterations <= 2:
                ds *= 2
        else:
            ds /= 2
            if ds < 1e-7:
                return None
    # the endpoint is accepted when its polish converges within 30 steps,
    # relative to the size of |a| and of the terms summed into f
    floor = max(1.0, float(np.max(np.abs(a))))
    for _ in range(30):
        res = num.f(x) - a
        if np.max(np.abs(res)) <= 1e-12 * max(floor, num.term_size(x)):
            return x, np.abs(res)
        try:
            delta = np.linalg.solve(num.jac(x), -res)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        x = x + delta
    return None


def _scalar_tracker(system):
    """A stand-in for `fiber._track_paths` that tracks one path at a time.

    `solve_fiber` tracks the system at unit scale, so the evaluator is built
    at that system's zeta, as the batched one is.  It evaluates the system on
    its own, so the kernel it is passed is the start system's gamma and c
    (`_scalar_start`), which `_homotopy` hands through unchanged.
    """
    scalar = _ScalarNumeric(replace(system, zeta=fiber._unit_scale(system)[2]))
    degrees = system.x_degrees()

    def track(num, a, kernel, starts):
        gamma, cs = kernel
        X = starts.astype(np.complex128)
        residual = np.full(X.shape, np.inf)
        for p, x0 in enumerate(starts):
            out = _track_one(scalar, a, gamma, degrees, cs, x0)
            if out is not None:
                X[p], residual[p] = out
        return X, residual, np.isfinite(residual).all(axis=1)

    return track


def _scalar_start(num, gamma, cs):
    # the start system's gamma and c, read by `_scalar_tracker`
    return gamma, cs


def _restriction(name):
    if name in ("toy", "quartic"):
        fam = invariant_family(build_root_system("B", 2))
        selection = (1,) if name == "quartic" else "first-by-degree"
        return restrict_family(fam, parse_pair_config(TOY_TEXT), selection=selection)
    kind, rank = name[:-1], int(name[-1])
    fam = invariant_family(build_root_system(kind, rank))
    return restrict_family(fam, split_config(kind, rank))


def _complex_normal(rng, k):
    return tuple(complex(a, b) for a, b in rng.standard_normal((k, 2)))


def _inhomogeneous_system(rng):
    # a constant term shares the start system's column 1, and the degree-1
    # second equation puts x2^1 and x2^0 among its start columns
    variables = ("t1", "x1", "x2")
    polys = tuple(
        parse_polynomial(text, variables)
        for text in ("x1^3 + t1*x1*x2^2 - 2", "x2 + 1/2*x1 + 3*t1")
    )
    return DeformedSystem(
        polys=polys,
        t_vars=variables[:1],
        x_vars=variables[1:],
        zeta=_complex_normal(rng, 1),
        target=(0, 0),
    )


@pytest.mark.parametrize("name", ["toy", "quartic", "A2", "G2", "A3", "inhomogeneous"])
def test_homotopy_kernel_matches_per_entry_reference(name):
    # the fused kernel's H, H_x and dH/ds against each equation, each
    # Jacobian entry and the start system evaluated on their own, at points
    # with one coordinate exactly 0, for both start blocks: the total-degree
    # g = kappa (x^m - c) times gamma, and the pushed-forward conj(gamma) (f - a0)
    rng = np.random.default_rng(3)
    if name == "inhomogeneous":
        system = _inhomogeneous_system(rng)
    else:
        res = _restriction(name)
        zeta = _complex_normal(rng, len(res.t_vars))
        system = DeformedSystem.from_restriction(res, zeta, (0,) * len(res.x_vars))
    r = len(system.x_vars)
    a = np.array(_complex_normal(rng, r))
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    cs = np.exp(2j * np.pi * rng.random(r))
    X = np.array([_complex_normal(rng, r) for _ in range(8)])
    X[np.arange(8), rng.integers(r, size=8)] = 0
    s = rng.random(8)
    a0 = np.array(_complex_normal(rng, r))
    num = fiber._Numeric(system)
    starts = (fiber._start_system(num, gamma, cs), np.conj(gamma) * num.shifted(a0))
    outputs = [fiber._homotopy(num, a, start)(X, s) for start in starts]

    scalar = _ScalarNumeric(system)
    d = np.array(system.x_degrees())
    kappa = scalar.poly_scale
    for p, x in enumerate(X):
        f, J = scalar.f(x) - a, scalar.jac(x)
        references = (
            (gamma * kappa * (x**d - cs), gamma * np.diag(kappa * d * x ** (d - 1))),
            (np.conj(gamma) * (f + a - a0), np.conj(gamma) * J),
        )
        for (H, Hx, Hs), (g, gx) in zip(outputs, references):
            expected = (
                (H[p], (1 - s[p]) * g + s[p] * f),
                (Hx[p], (1 - s[p]) * gx + s[p] * J),
                (Hs[p], f - g),
            )
            for got, want in expected:
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), (p, want)


@pytest.mark.parametrize("name", ["B2", "A3"])
def test_orbit_kernel_keeps_the_parameter_path(name, monkeypatch):
    # the kernel of the orbit path, H = (1 - s) conj(gamma) (f - a0) + s (f - a)
    # with a0 = f(x0), is ((1 - s) conj(gamma) + s) (f - (1 - tau) a0 - tau a),
    # tau = gamma s / (1 + (gamma - 1) s): it vanishes on the gamma trick's
    # path from a0 to a along their complex line
    res = _restriction(name)
    rng = np.random.default_rng(11)
    zeta = _complex_normal(rng, len(res.t_vars))
    x0 = _complex_normal(rng, len(res.x_vars))
    system = DeformedSystem.from_restriction(
        res, zeta, tuple(p.eval(list(zeta + x0)) for p in res.adapted)
    )
    calls = []
    homotopy, track = fiber._homotopy, fiber._track_paths
    monkeypatch.setattr(fiber, "_homotopy", lambda *args: calls.append(args) or homotopy(*args))
    monkeypatch.setattr(fiber, "_track_paths", lambda *args: calls.append(args[3]) or track(*args))
    assert solve_fiber(system, seed=5).path_stats["tracked"] == 1
    (num, a, start), starts = calls
    # the attempt draws x0's real and imaginary parts, then gamma
    draws = np.random.default_rng(5)
    draws.standard_normal(num.r), draws.standard_normal(num.r)
    gamma = fiber._unit_circle(draws)
    a0 = num(starts)[0][0]

    X = np.array([_complex_normal(rng, num.r) for _ in range(8)])
    s = rng.random(8)
    H = homotopy(num, a, start)(X, s)[0]
    scalar = _ScalarNumeric(replace(system, zeta=fiber._unit_scale(system)[2]))
    for p, x in enumerate(X):
        tau = gamma * s[p] / (1 + (gamma - 1) * s[p])
        want = ((1 - s[p]) * np.conj(gamma) + s[p]) * (scalar.f(x) - (1 - tau) * a0 - tau * a)
        assert np.abs(H[p] - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), (p, want)


@pytest.mark.parametrize("name", ["toy", "quartic", "A2", "B2", "C2", "BC2", "A3"])
def test_batched_tracker_matches_scalar_oracle(name, monkeypatch):
    # A3 draws 1 and 4 end near the residual rounding floor (|a| reaches
    # 1e6); the batched tracker accepts an endpoint as it stands once its
    # residual is within 1e-12 max(1, |a|, term size), the oracle once its
    # polish converges to that bound, so they agree there too.  Only the
    # quartic has d = 2 and tracks total-degree paths itself; every other
    # system is one orbit path and its closure, and the oracle tracks all
    # prod(m_i) paths of it without its little group.
    res = _restriction(name)
    for draw in (0, 1, 4, 7, 9) if name == "A3" else (0, 7):
        rng = np.random.default_rng(draw)
        zeta = _complex_normal(rng, len(res.t_vars))
        x0 = _complex_normal(rng, len(res.x_vars))
        target = tuple(p.eval(list(zeta + x0)) for p in res.adapted)
        system = DeformedSystem.from_restriction(res, zeta, target)
        seed = int(rng.integers(2**31))
        batched = solve_fiber(system, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(fiber, "_track_paths", _scalar_tracker(system))
            m.setattr(fiber, "_start_system", _scalar_start)
            m.setattr(fiber, "_homotopy", lambda num, a, start: start)
            scalar = solve_fiber(system if system.d > 1 else replace(system, little=None), seed=seed)
        assert scalar.path_stats["tracked"] == system.expected_count()
        if system.d > 1:
            assert batched.path_stats == scalar.path_stats
            assert batched.orbit_classes == scalar.orbit_classes
        else:
            assert batched.path_stats["tracked"] == 1
        assert batched.count == scalar.count == system.expected_count()
        for p, q in zip(batched.solutions, scalar.solutions):
            size = max(1.0, max(abs(z) for z in q))
            assert max(abs(x - y) for x, y in zip(p, q)) <= 1e-10 * size
        order = weyl_order(system.little.type_name, system.little.rank)
        assert sorted(map(len, batched.orbit_classes)) == [order] * system.d


@pytest.mark.parametrize(
    "name", ["toy", "quartic", "A2", "B2", "C2", "BC2", "G2", "A3", "B3", "C3"]
)
def test_count_law_holds_over_scales(name):
    # zeta and x0 scaled by lam, so the fiber scales with them; each system
    # is solved at unit scale, whatever lam and its coefficient sizes
    res = _restriction(name)
    for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for draw in range(2):
            rng = np.random.default_rng(draw)
            zeta = tuple(lam * z for z in _complex_normal(rng, len(res.t_vars)))
            x0 = tuple(lam * z for z in _complex_normal(rng, len(res.x_vars)))
            target = tuple(p.eval(list(zeta + x0)) for p in res.adapted)
            system = DeformedSystem.from_restriction(res, zeta, target)
            out = solve_fiber(system, seed=draw)
            assert out.count == system.expected_count(), (lam, draw)
            assert np.abs(np.array(out.solutions) - x0).max(axis=1).min() <= 1e-6 * lam
            order = weyl_order(system.little.type_name, system.little.rank)
            assert sorted(map(len, out.orbit_classes)) == [order] * system.d


def _loop_orbit_partition(points, matrices, radius):
    """The reference orbit partition: every group matrix applied to every point."""
    pts = np.array(points, dtype=np.complex128)
    edges = []
    for i, p in enumerate(pts):
        for m in matrices:
            matches = np.flatnonzero(np.abs(pts - m @ p).max(axis=1) < radius).tolist()
            if len(matches) > 1:
                raise InconsistentClusteringError(
                    f"point {i} maps within {radius} of {len(matches)} fiber points"
                )
            if matches:
                edges.append((i, matches[0]))
    classes = {i: {i} for i in range(len(pts))}
    for i, j in edges:
        if classes[i] is not classes[j]:
            merged = classes[i] | classes[j]
            for k in merged:
                classes[k] = merged
    return tuple(sorted({tuple(sorted(c)) for c in classes.values()}))


def _seed(rng, rs, kind):
    """A complex normal point; "real" and "imaginary" keep one part, "wall"
    moves the real part onto the wall of a random simple root, and "fixed"
    both parts, so that the reflection in that root fixes the point."""
    x = np.array(_complex_normal(rng, rs.rank))
    if kind == "real":
        return x.real + 0j
    if kind == "imaginary":
        return 1j * x.imag
    if kind in ("wall", "fixed"):
        form = np.array(rs.form, dtype=float)
        alpha = np.array(rs.simple_roots[int(rng.integers(rs.rank))], dtype=float)
        y = x.real if kind == "wall" else x
        x -= (y @ form @ alpha) / (alpha @ form @ alpha) * alpha
    return x


@pytest.mark.parametrize(
    "key", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("A", 1), ("C", 2), ("BC", 2)]
)
def test_orbit_partition_matches_loop(key):
    rs = build_root_system(*key)
    matrices = [np.array(w, dtype=float) for w in weyl_group(rs)]
    rng = np.random.default_rng(7)
    kinds = ["complex"] * 3 + ["real", "imaginary", "wall", "fixed"] + ["complex"] * 3
    for trial, kind in enumerate(kinds):
        seeds = [_seed(rng, rs, kind) for _ in range(3)]
        # whole orbits, a partial one, and a stray point, in shuffled order
        points = [m @ p for p in seeds[:2] for m in matrices]
        points += [m @ seeds[2] for m in matrices[:3]] + [seeds[2] * 1.5]
        points = [points[i] for i in rng.permutation(len(points))]
        unique = []
        for p in points:
            if all(np.max(np.abs(p - q)) >= 1e-6 for q in unique):
                unique.append(p)
        assert orbit_partition(unique, rs) == _loop_orbit_partition(unique, matrices, 1e-6)
        if trial < 6:
            continue
        # a near twin makes some image match two points in the loop; for
        # orbit_partition it is two input points within the radius
        j = int(rng.integers(len(unique)))
        at = int(rng.integers(len(unique) + 1))
        unique.insert(at, unique[j] + 1e-9)
        pair = sorted((at, j + (j >= at)))
        with pytest.raises(InconsistentClusteringError, match="^point .* fiber points$"):
            _loop_orbit_partition(unique, matrices, 1e-6)
        with pytest.raises(
            InconsistentClusteringError,
            match=f"^points {pair[0]} and {pair[1]} lie within 1e-06$",
        ):
            orbit_partition(unique, rs)


def test_orbit_partition_wall_orbit():
    # (3, 2) z is fixed by the reflection in alpha_1, so its G2 orbit has 6
    # points, each on a wall, where the float noise of the group matrices
    # decides on which side of the wall a point lies
    g2 = build_root_system("G", 2)
    x = np.array([3, 2]) * (0.3 + 0.9j)
    form = np.array(g2.form, dtype=float)
    assert x @ form @ np.array(g2.simple_roots[0], dtype=float) == 0
    points = []
    for w in weyl_group(g2):
        p = np.array(w, dtype=float) @ x
        if all(np.abs(p - q).max() >= 1e-6 for q in points):
            points.append(p)
    assert len(points) == 6
    assert orbit_partition(points, g2) == (tuple(range(6)),)


@pytest.mark.parametrize("r", [1, 2, 4])
def test_near_pairs_match_every_pair(r):
    # three tight clusters spread over about the merge radius, half of them
    # sharing Re x_1, so pairs lie on both sides of the radius and the sweep
    # takes several blocks of offsets; it must yield each pair once
    rng = np.random.default_rng(r)
    centers = rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r))
    X = centers[rng.integers(3, size=600)]
    X = X + 5e-7 * (rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape))
    X[::2, 0] = 0.5 + 1j * X[::2, 0].imag
    pairs = [p for i, j in fiber._near_pairs(X) for p in zip(i.tolist(), j.tolist())]
    near = np.abs(X[:, None, :] - X[None, :, :]).max(axis=2) < 1e-6
    want = set(zip(*np.nonzero(np.triu(near, 1))))
    assert len(pairs) == len(set(pairs)) and set(pairs) == {(int(i), int(j)) for i, j in want}
    assert 1000 < len(want) < 600 * 599 // 2 - 1000


def _labelled_orbits(rng, matrices, seeds, partial):
    """The orbits of the seeds, the last one cut to `partial` points, shuffled,
    with the classes their seed labels give."""
    points = [m @ s for s in seeds[:-1] for m in matrices]
    points += [m @ seeds[-1] for m in matrices[:partial]]
    labels = np.repeat(np.arange(len(seeds)), [len(matrices)] * (len(seeds) - 1) + [partial])
    order = rng.permutation(len(points))
    labels = labels[order]
    classes = sorted(tuple(np.flatnonzero(labels == k).tolist()) for k in range(len(seeds)))
    return [points[i] for i in order], tuple(classes)


def test_orbit_partition_rank_four():
    rng = np.random.default_rng(11)
    d4 = build_root_system("D", 4)
    matrices = [np.array(w, dtype=float) for w in weyl_group(d4)]
    seeds = [np.array(_complex_normal(rng, 4)) for _ in range(2)]
    points, classes = _labelled_orbits(rng, matrices, seeds, len(matrices))
    assert len(points) == 384
    assert orbit_partition(points, d4) == classes

    f4 = build_root_system("F", 4)
    matrices = [np.array(w, dtype=float) for w in weyl_group(f4)]
    seeds = [np.array(_complex_normal(rng, 4)) for _ in range(2)]
    points, classes = _labelled_orbits(rng, matrices, seeds, 3)
    assert len(points) == 1155
    # the distance checks sweep sorted keys and build no (P, P, r) array,
    # which for these points takes over 100 MB
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert orbit_partition(points, f4) == classes
        assert time.perf_counter() - start < 2.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
