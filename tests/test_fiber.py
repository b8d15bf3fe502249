from __future__ import annotations

import functools
import json
import math
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chevfiber import fiber
from chevfiber.fiber import (
    DeformedSystem,
    FiberSolveError,
    InconsistentClusteringError,
    NewtonDivergenceError,
    RamifiedPointError,
    SingularJacobianError,
    is_generic,
    is_generic_fiber,
    is_unramified,
    jacobian_J,
    local_inverse_psi,
    orbit_partition,
    solve_fiber,
    solve_lambda_xi,
)
from chevfiber.polyring import Polynomial, jacobian_det, parse_polynomial
from chevfiber.restrict import parse_pair_config, restrict_family, split_config
from chevfiber.rootsys import build_root_system, invariant_family, weyl_order

TOY_TEXT = """
name: toy-axis
ambient_type: B
ambient_rank: 2
little_type: A
little_rank: 1
embedding: 0; 1
"""


def toy_system(zeta=(0.3 + 0.1j,), target=(4.0,)):
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, parse_pair_config(TOY_TEXT))
    return DeformedSystem.from_restriction(res, zeta, target)


def quartic_system(zeta=(0.5,), target=(3.0,)):
    fam = invariant_family(build_root_system("B", 2))
    res = restrict_family(fam, parse_pair_config(TOY_TEXT), selection=(1,))
    return DeformedSystem.from_restriction(res, zeta, target)


def bare_square_system():
    # x^2 = 4 with no deformation variables at all
    p = parse_polynomial("x1^2", ("x1",))
    rs = build_root_system("A", 1)
    return DeformedSystem(
        polys=(p,), t_vars=(), x_vars=("x1",), zeta=(), target=(4.0,), little=rs
    )


def test_system_validation():
    p = parse_polynomial("x1^2", ("t1", "x1"))
    with pytest.raises(ValueError, match="zeta has 0 entries, the system has 1 t variables"):
        DeformedSystem(polys=(p,), t_vars=("t1",), x_vars=("x1",), zeta=(), target=(1,))
    with pytest.raises(ValueError, match="target has 2 entries, the system has 1 equations"):
        DeformedSystem(
            polys=(p,), t_vars=("t1",), x_vars=("x1",), zeta=(0.1,), target=(1, 2)
        )
    q = parse_polynomial("x1^2", ("x1",))
    with pytest.raises(ValueError):
        DeformedSystem(
            polys=(q,), t_vars=("t1",), x_vars=("x1",), zeta=(0.1,), target=(1,)
        )
    with pytest.raises(ValueError, match="empty system"):
        DeformedSystem(polys=(), t_vars=(), x_vars=(), zeta=(), target=())
    r = parse_polynomial("x1*x2", ("x1", "x2"))
    with pytest.raises(ValueError, match="system must be square in the x variables"):
        DeformedSystem(polys=(r,), t_vars=(), x_vars=("x1", "x2"), zeta=(), target=(1,))


def test_zero_equation_rejected():
    zero = parse_polynomial("0", ("x1",))
    with pytest.raises(ValueError, match="equation 1 is the zero polynomial"):
        DeformedSystem(
            polys=(zero,), t_vars=(), x_vars=("x1",), zeta=(), target=(1,),
            little=build_root_system("A", 1),
        )


@pytest.mark.parametrize(
    "terms",
    [
        {(2,): Fraction(10**400), (0,): Fraction(10**400, 3)},
        {(2,): Fraction(1, 10**400), (0,): Fraction(1, 3 * 10**400)},
        {(2,): Fraction(1, 10**400), (1,): Fraction(1), (0,): Fraction(1)},
    ],
    ids=["huge", "tiny", "one-tiny"],
)
def test_coefficient_beyond_float_range_rejected(terms):
    # every coefficient must round to a finite nonzero float: an overflow
    # breaks unit scale, and a coefficient read as 0.0 drops its term, so a
    # root near -1e400 would be tracked as a path jump
    p = Polynomial(("x1",), terms)
    with pytest.raises(ValueError, match="^equation 1 has a coefficient beyond float range$"):
        DeformedSystem(polys=(p,), t_vars=(), x_vars=("x1",), zeta=(), target=(1,))


def test_long_exact_coefficient_is_rounded_once():
    # (10^400 + 1) / 10^400 has a numerator and denominator beyond float range
    p = Polynomial(("x1",), {(2,): Fraction(10**400 + 1, 10**400)})
    system = DeformedSystem(
        polys=(p,), t_vars=(), x_vars=("x1",), zeta=(), target=(4,),
        little=build_root_system("A", 1),
    )
    out = solve_fiber(system, seed=0)
    assert out.count == 2
    assert sorted(round(x[0].real, 12) for x in out.solutions) == [-2.0, 2.0]


@pytest.mark.parametrize(
    "x_vars, little, rank",
    [(("x1", "x2"), ("A", 1), 1), (("x1",), ("B", 2), 2)],
    ids=["A1-on-two-x", "B2-on-one-x"],
)
def test_little_rank_must_match_x_variables(x_vars, little, rank):
    # rejected up front, before the degree quotient or any tracking
    polys = tuple(parse_polynomial(f"{x}^2", x_vars) for x in x_vars)
    with pytest.raises(ValueError, match=f"little rank {rank} does not match {len(x_vars)} x"):
        DeformedSystem(
            polys=polys, t_vars=(), x_vars=x_vars, zeta=(), target=(1,) * len(x_vars),
            little=build_root_system(*little),
        )


def test_expected_count_derivation():
    sys_ = toy_system()
    assert sys_.d == 1
    assert sys_.expected_count() == 2
    q = quartic_system()
    assert q.d == 2
    assert q.expected_count() == 4


def test_bare_square_roots():
    result = solve_fiber(bare_square_system(), seed=11)
    assert result.count == 2
    xs = sorted(z.real for (z,) in result.solutions)
    assert xs == pytest.approx([-2.0, 2.0], abs=1e-10)
    assert all(abs(z.imag) < 1e-10 for (z,) in result.solutions)


def test_toy_fiber_count_and_residuals():
    result = solve_fiber(toy_system(), seed=3)
    assert result.count == 2
    assert all(r < 1e-8 for r in result.residuals)
    # d = 1: one path, reflected onto the other point
    assert result.path_stats["tracked"] == 1
    assert result.path_stats["failed"] == 0
    # solutions are sorted by real, then imaginary parts
    keys = [tuple((z.real, z.imag) for z in p) for p in result.solutions]
    assert keys == sorted(keys)


def test_quartic_fiber_and_orbit_classes():
    result = solve_fiber(quartic_system(), seed=5)
    assert result.count == 4
    assert result.orbit_classes is not None
    assert len(result.orbit_classes) == 2
    covered = sorted(i for cls in result.orbit_classes for i in cls)
    assert covered == [0, 1, 2, 3]


def test_split_fiber_counts():
    for key, expected in ((("A", 2), 6), (("B", 2), 8), (("BC", 2), 8)):
        fam = invariant_family(build_root_system(*key))
        res = restrict_family(fam, split_config(*key))
        system = DeformedSystem.from_restriction(
            res, (), tuple(1.5 + 0.25j * (i + 1) for i in range(len(res.x_vars)))
        )
        out = solve_fiber(system, seed=7)
        assert out.count == expected, key
        assert all(r < 1e-8 for r in out.residuals)


def test_deformed_two_variable_system():
    # B3 invariants restricted to the coordinate plane of the first two axes
    fam = invariant_family(build_root_system("B", 3))
    cfg = parse_pair_config(
        "ambient_type: B\nambient_rank: 3\nlittle_type: B\nlittle_rank: 2\n"
        "embedding: 1 0; 0 1; 0 0"
    )
    res = restrict_family(fam, cfg)
    assert res.d == 1
    system = DeformedSystem.from_restriction(res, (0.4 - 0.2j,), (2.0, 5.0 + 1.0j))
    out = solve_fiber(system, seed=1)
    assert out.count == 8
    assert all(r < 1e-8 for r in out.residuals)


@functools.cache
def _a3_over_a2():
    cfg = parse_pair_config(
        "ambient_type: A\nambient_rank: 3\nlittle_type: A\nlittle_rank: 2\n"
        "embedding: 1 0; 0 1; 0 0"
    )
    return restrict_family(invariant_family(build_root_system("A", 3)), cfg)


@pytest.mark.parametrize("draw", range(4))
def test_non_orthogonal_embedding_gives_one_free_orbit(draw):
    # W(A2) fixes the t axis only when it is form-orthogonal to the embedded
    # plane, whose simple roots are not orthogonal; then a pushed-forward
    # fiber is one free orbit of 6 points, x0 among them
    rng = np.random.default_rng(draw)
    x0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    zeta = (complex(rng.standard_normal(), rng.standard_normal()),)
    res = _a3_over_a2()
    target = tuple(p.eval([*zeta, *x0]) for p in res.adapted)
    out = solve_fiber(DeformedSystem.from_restriction(res, zeta, target), seed=draw)
    assert out.count == 6
    assert out.orbit_classes == ((0, 1, 2, 3, 4, 5),)
    assert np.abs(np.array(out.solutions) - x0).max(axis=1).min() < 1e-9


def test_jacobian_restriction_law():
    system = quartic_system()
    j = jacobian_J(system)
    restricted = j.restrict_zero(system.t_vars)
    direct = jacobian_det(system.restricted_polys(), system.x_vars)
    assert restricted == direct
    assert j.homogeneous_degree() == sum(d - 1 for d in system.x_degrees())


def test_json_is_deterministic_and_valid():
    a = solve_fiber(toy_system(), seed=9).to_json()
    b = solve_fiber(toy_system(), seed=9).to_json()
    assert a == b
    data = json.loads(a)
    assert data["seed"] == 9
    assert set(data) == {
        "seed",
        "zeta",
        "target",
        "solutions",
        "residuals",
        "path_stats",
        "orbit_classes",
    }
    assert len(data["solutions"]) == 2


@functools.cache
def _split(kind, rank):
    return restrict_family(invariant_family(build_root_system(kind, rank)), split_config(kind, rank))


@pytest.mark.parametrize("draw", range(3))
@pytest.mark.parametrize("kind, rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_fiber_bytes_do_not_depend_on_term_order(kind, rank, draw):
    # the same system with every equation's terms stored in reverse order
    res = _split(kind, rank)
    rng = np.random.default_rng(draw)
    x0 = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    system = DeformedSystem.from_restriction(res, (), [p.eval(list(x0)) for p in res.adapted])
    flipped = replace(system, polys=tuple(
        Polynomial(p.variables, dict(reversed(list(p.terms.items())))) for p in system.polys
    ))
    assert flipped.polys == system.polys
    assert [list(p.terms) for p in flipped.polys] != [list(p.terms) for p in system.polys]
    assert solve_fiber(flipped, seed=draw).to_json() == solve_fiber(system, seed=draw).to_json()


def test_json_differs_for_different_seed_only_in_stats():
    a = solve_fiber(toy_system(), seed=1)
    b = solve_fiber(toy_system(), seed=2)
    # same fiber, possibly different path bookkeeping
    for p, q in zip(a.solutions, b.solutions):
        assert max(abs(x - y) for x, y in zip(p, q)) < 1e-8


def test_unramified_predicates():
    system = toy_system()
    result = solve_fiber(system, seed=0)
    for p in result.solutions:
        assert is_unramified(system, p)
    assert not is_unramified(system, (0.0,))


def test_genericity():
    system = toy_system(zeta=(0.0,), target=(20.0,))
    # solutions are exactly +-1, which pair integrally with the roots
    result = solve_fiber(system, seed=0)
    assert result.count == 2
    assert not is_generic_fiber(system, result)
    generic = toy_system(zeta=(0.3 + 0.1j,), target=(4.0,))
    out = solve_fiber(generic, seed=0)
    assert is_generic_fiber(generic, out)


@pytest.mark.parametrize("scale", [1e20, 1e60, 1e80])
def test_far_points_are_judged_without_overflow(scale):
    # at 1e60 det J and the bound 1e-10 coeff_scale height^deg_J overflow,
    # but log |det J| = 860.1 > 819.6, so the point is unramified; at 1e80
    # the x^4 column overflows and J is nan, which is no verdict at all
    res = restrict_family(invariant_family(build_root_system("A", 3)), split_config("A", 3))
    x0 = [0.3 + 0.1j, -0.2 + 0.5j, 0.7 - 0.4j]
    system = DeformedSystem.from_restriction(res, (), [p.eval(x0) for p in res.adapted])
    p = (scale, -scale / 2, 0.3 * scale + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale == 1e80:
            for call in (is_unramified, is_generic):
                with pytest.raises(ValueError, match="Jacobian at"):
                    call(system, p)
            with pytest.raises(ValueError, match="Jacobian at"):
                local_inverse_psi(system, system.target, p)
            return
        assert is_unramified(system, p)
        # the real parts are float integers, so p pairs integrally with a root
        assert not is_generic(system, p)
        with pytest.raises(NewtonDivergenceError, match="no convergence"):
            local_inverse_psi(system, system.target, p)


def test_generic_needs_little_group():
    p = parse_polynomial("x1^2", ("x1",))
    system = DeformedSystem(
        polys=(p,), t_vars=(), x_vars=("x1",), zeta=(), target=(4.0,)
    )
    with pytest.raises(ValueError):
        is_generic(system, (2.0,))


def test_lambda_solutions_exist_and_split_into_orbits():
    system = quartic_system(zeta=(0.6,), target=(0.0,))
    out = solve_lambda_xi(system, xi=(0.7,), seed=13)
    assert out.count == 4
    # undeformed residual: U(0; lambda) must hit the deformed target value
    restricted = system.restricted_polys()
    at = list(system.zeta) + [0.7]
    want = [p.eval(at) for p in system.polys]
    for lam in out.solutions:
        got = [p.eval(list(lam)) for p in restricted]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10
    assert len(out.orbit_classes) >= 2


def test_local_inverse_round_trip():
    system = toy_system()
    result = solve_fiber(system, seed=2)
    x_true = result.solutions[0]
    start = tuple(z + 1e-3 for z in x_true)
    back = local_inverse_psi(system, system.target, start)
    assert max(abs(a - b) for a, b in zip(back, x_true)) < 1e-10


def test_local_inverse_ramified_abort():
    system = toy_system()
    with pytest.raises(RamifiedPointError):
        local_inverse_psi(system, system.target, (0.0,))


def test_local_inverse_divergence():
    # real Newton for x^2 = -1 never leaves the real line, so from x = 0.5
    # it wanders for all 30 steps without reaching either root +-i
    system = bare_square_system()
    with pytest.raises(NewtonDivergenceError, match="no convergence"):
        local_inverse_psi(system, (-1.0,), (0.5,))


def test_local_inverse_singular_mid_iteration():
    # Newton for x^2 = -1 from x = 1 lands exactly on x = 0
    system = bare_square_system()
    with pytest.raises(SingularJacobianError):
        local_inverse_psi(system, (-1.0,), (1.0,))


def test_local_inverse_leaves_the_finite_plane():
    # 1e-200 x^2 = 1 from x = 1e-5: the first step lands near 5e204, whose
    # square overflows, so the next step is not finite
    p = parse_polynomial("1e-200*x1^2", ("x1",))
    system = DeformedSystem(polys=(p,), t_vars=(), x_vars=("x1",), zeta=(), target=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDivergenceError, match="^iterates left the finite plane$"):
            local_inverse_psi(system, (1.0,), (1e-5,))


def test_orbit_partition_inconsistency():
    a1 = build_root_system("A", 1)
    with pytest.raises(InconsistentClusteringError, match="points 0 and 1 lie within 1e-06"):
        orbit_partition([(0.0,), (1e-9,)], a1)
    # the orbit {1, -1} of point 0 reaches point 1, whose distance 8e-7 from -1 puts
    # it near the orbit {1 + 1.6e-6, -1 - 1.6e-6} of point 2 too: nearness is not transitive
    with pytest.raises(
        InconsistentClusteringError, match="^point 1 lies near the orbits of points 0 and 2$"
    ):
        orbit_partition([(1.0,), (-1.0 - 8e-7,), (1.0 + 1.6e-6,)], a1)
    # -1 - 8e-7 and -1 + 8e-7 lie 1.6e-6 apart, both near the image -1 of point 0
    with pytest.raises(
        InconsistentClusteringError, match="^points 1 and 2 lie near one image of point 0$"
    ):
        orbit_partition([(1.0,), (-1.0 - 8e-7,), (-1.0 + 8e-7,)], a1)


def test_orbit_partition_identity_only():
    # only the identity relates 1 and 5; the sign flip relates 5 and -5
    a1 = build_root_system("A", 1)
    assert orbit_partition([(1.0,), (5.0,)], a1) == ((0,), (1,))
    assert orbit_partition([(5.0,), (-5.0,)], a1) == ((0, 1),)


def test_orbit_partition_closure_is_capped():
    # B2's reflections labelled as A2: the closure of a generic point has 8
    # points, more than |W(A2)| = 6; the origin, point 0, closes on itself
    fake = replace(build_root_system("B", 2), type_name="A")
    assert weyl_order("A", 2) == 6
    with pytest.raises(
        InconsistentClusteringError, match="^the orbit of point 1 has over 6 points$"
    ):
        orbit_partition([(0.0, 0.0), (0.3 + 0.1j, 1.7 - 0.4j)], fake)


def test_constant_equation_rejected():
    p = parse_polynomial("t1^2", ("t1", "x1"))
    with pytest.raises(ValueError, match="equation 1 has no x term"):
        DeformedSystem(
            polys=(p,), t_vars=("t1",), x_vars=("x1",), zeta=(0.5,), target=(1.0,)
        )


def test_constant_equation_rejected_before_deriving_d():
    # with a little group the degree quotient would give d = 0
    p = parse_polynomial("t1^2", ("t1", "x1"))
    with pytest.raises(ValueError, match="equation 1 has no x term"):
        DeformedSystem(
            polys=(p,), t_vars=("t1",), x_vars=("x1",), zeta=(0.5,),
            target=(1.0,), little=build_root_system("A", 1),
        )


def a2_system():
    fam = invariant_family(build_root_system("A", 2))
    res = restrict_family(fam, split_config("A", 2))
    x0 = (0.3 + 0.8j, -1.1 + 0.2j)
    target = tuple(p.eval(list(x0)) for p in res.adapted)
    return DeformedSystem.from_restriction(res, (), target)


def _nudged(X, ulps):
    """X with the real and imaginary part of row i moved ulps[i] floats."""
    parts = [X.real.copy(), X.imag.copy()]
    for part in parts:
        for i, n in enumerate(ulps):
            for _ in range(abs(n)):
                part[i] = np.nextafter(part[i], np.inf if n > 0 else -np.inf)
    return parts[0] + 1j * parts[1]


def test_order_ignores_last_bit_noise(monkeypatch):
    # the six points of this A2 fiber share first coordinates in pairs, so a
    # sort on raw floats lets the last bits decide the order of each pair;
    # the noise goes into the orbit closure, whose images are returned as they stand
    system = a2_system()
    base = solve_fiber(system, seed=3)
    closure = fiber._orbit_points
    for sign in (1, -1):

        def noisy(*args):
            X = closure(*args)
            return _nudged(X, [sign * (3 if i % 2 else -3) for i in range(len(X))])

        monkeypatch.setattr(fiber, "_orbit_points", noisy)
        out = solve_fiber(system, seed=3)
        assert out.orbit_classes == base.orbit_classes
        moved = np.abs(np.array(out.solutions) - np.array(base.solutions))
        assert moved.max() < 1e-14


def test_a3_hand_typed_target():
    # the A3 coefficients reach 913776, so this order-1 target has fiber
    # points of size 1e-2; tracked at unit scale, no path is lost
    fam = invariant_family(build_root_system("A", 3))
    res = restrict_family(fam, split_config("A", 3))
    system = DeformedSystem.from_restriction(
        res, (), (0.7 + 0.2j, -1.1 + 0.4j, 0.5 - 0.9j)
    )
    out = solve_fiber(system, seed=0)
    assert out.count == system.expected_count() == 24
    assert sorted(map(len, out.orbit_classes)) == [24] * system.d


@pytest.mark.parametrize(
    "zeta, target, name",
    [
        ((float("nan"),), (4.0,), "zeta"),
        ((complex(1, float("inf")),), (4.0,), "zeta"),
        ((1.0,), (float("nan"),), "target"),
        ((1.0,), (float("-inf"),), "target"),
    ],
)
def test_non_finite_zeta_or_target_rejected(zeta, target, name):
    with pytest.raises(ValueError, match=f"{name} entries must be finite"):
        toy_system(zeta=zeta, target=target)


def test_non_finite_xi_rejected():
    with pytest.raises(ValueError, match="xi must have 1 finite coordinates"):
        solve_lambda_xi(toy_system(), xi=(float("nan"),), seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_bad_seed_rejected_before_any_work(monkeypatch, seed):
    system = quartic_system()
    monkeypatch.setattr(fiber, "_Numeric", None)
    monkeypatch.setattr(fiber, "_points", None)
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
        solve_fiber(system, seed=seed)
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
        solve_lambda_xi(system, xi=(0.7,), seed=seed)


@pytest.mark.parametrize("xi", [(1, 2), ()], ids=["long", "empty"])
def test_wrong_length_xi_rejected(xi):
    # the t variables are not counted: xi holds the x coordinates only
    with pytest.raises(ValueError, match="xi must have 1 finite coordinates"):
        solve_lambda_xi(quartic_system(), xi=xi, seed=0)


@pytest.mark.parametrize("t_vars, x_vars", [((), ("x1", "x1")), (("x1",), ("x1",))])
def test_repeated_variable_name_rejected(t_vars, x_vars):
    allvars = t_vars + x_vars
    polys = tuple(parse_polynomial("x1^2", allvars) for _ in x_vars)
    with pytest.raises(ValueError, match="variable 'x1' is named more than once"):
        DeformedSystem(
            polys=polys, t_vars=t_vars, x_vars=x_vars,
            zeta=tuple(1.0 for _ in t_vars), target=tuple(1.0 for _ in x_vars),
        )


@functools.cache
def _a3_split():
    return restrict_family(invariant_family(build_root_system("A", 3)), split_config("A", 3))


def _a3_draw(draw):
    # x0 standard complex normal from default_rng(draw)
    rng = np.random.default_rng(draw)
    return rng.standard_normal(3) + 1j * rng.standard_normal(3)


def _a3_pushed_forward(draw):
    # a = U(x0) at the draw's x0
    return _a3_system_at(_a3_draw(draw))


def _a3_system_at(x0):
    res = _a3_split()
    target = tuple(p.eval(list(x0)) for p in res.adapted)
    return DeformedSystem.from_restriction(res, (), target)


def _patched_tracker(monkeypatch, spoil):
    """Run the real tracker, then let spoil(attempt, X, residual, ok) edit
    its output in place."""
    track = fiber._track_paths
    attempts = []

    def spoiled(*args):
        X, residual, ok = track(*args)
        spoil(len(attempts), X, residual, ok)
        attempts.append(1)
        return X, residual, ok

    monkeypatch.setattr(fiber, "_track_paths", spoiled)
    return attempts


def _lose_path(attempt, X, residual, ok):
    # the last path: the quartic's fourth total-degree path, or the one orbit path
    X[-1], residual[-1], ok[-1] = np.nan, np.inf, False


def _duplicate_endpoint(attempt, X, residual, ok):
    X[3], residual[3] = X[1], residual[1]


def test_lost_path_on_every_attempt_raises(monkeypatch):
    # the quartic selection has d = 2, so it tracks all 4 total-degree paths
    attempts = _patched_tracker(monkeypatch, _lose_path)
    with pytest.raises(FiberSolveError, match="^1 of 4 paths failed after 4 attempts$"):
        solve_fiber(quartic_system(), seed=0)
    assert len(attempts) == 4


def test_merged_endpoints_on_every_attempt_raise(monkeypatch):
    attempts = _patched_tracker(monkeypatch, _duplicate_endpoint)
    with pytest.raises(FiberSolveError, match="^1 endpoints merged after 4 attempts$"):
        solve_fiber(quartic_system(), seed=0)
    assert len(attempts) == 4


def test_endpoint_off_the_bound_fails_its_path(monkeypatch):
    # no Newton runs after the last step: an endpoint whose residual misses
    # the acceptance bound fails its path, however near the target it came
    bound = fiber._Numeric.bound

    def tight(self, mono, a):
        out = bound(self, mono, a)
        if len(out) == 4:
            out[3] = 0.0
        return out

    monkeypatch.setattr(fiber._Numeric, "bound", tight)
    with pytest.raises(FiberSolveError, match="^1 of 4 paths failed after 4 attempts$"):
        solve_fiber(quartic_system(), seed=0)


def test_lost_path_on_first_attempt_is_tracked_again(monkeypatch):
    system = quartic_system()
    attempts = _patched_tracker(
        monkeypatch, lambda attempt, *out: attempt == 0 and _lose_path(attempt, *out)
    )
    out = solve_fiber(system, seed=0)
    assert len(attempts) > 1
    assert out.count == system.expected_count() == 4
    assert out.path_stats == {"tracked": 4, "failed": 0, "merged": 0}


def test_lost_orbit_path_on_every_attempt_raises(monkeypatch):
    # a d = 1 fiber tracks one path; each attempt draws a fresh x0 and gamma
    attempts = _patched_tracker(monkeypatch, _lose_path)
    with pytest.raises(FiberSolveError, match="^1 of 1 paths failed after 4 attempts$"):
        solve_fiber(_a3_pushed_forward(0), seed=0)
    assert len(attempts) == 4


def test_ramified_target_loses_the_orbit_path():
    # 20 t^2 + 20 x^2 = 5 at t = 0.5 has the double root x = 0: the one path
    # is lost on every attempt, and the empty batch of endpoints is no error
    with pytest.raises(FiberSolveError, match="^1 of 1 paths failed after 4 attempts$"):
        solve_fiber(toy_system(zeta=(0.5,), target=(5.0,)), seed=0)


def test_lost_orbit_path_on_first_attempt_is_tracked_again(monkeypatch):
    x0 = _a3_draw(0)
    system = _a3_system_at(x0)
    attempts = _patched_tracker(
        monkeypatch, lambda attempt, *out: attempt == 0 and _lose_path(attempt, *out)
    )
    out = solve_fiber(system, seed=0)
    assert len(attempts) == 2
    assert out.count == system.expected_count() == 24
    assert out.path_stats == {"tracked": 1, "failed": 0, "merged": 0}
    assert out.orbit_classes == (tuple(range(24)),)
    assert np.abs(np.array(out.solutions) - x0).max(axis=1).min() < 1e-6


@pytest.mark.parametrize(
    "spoil, failure",
    [
        (lambda X: X[:-1], "the orbit closure has 23 of 24 points"),
        (lambda X: np.concatenate([X[:-1], X[:1] + 1e-12]), "1 endpoints merged"),
    ],
    ids=["short", "merged"],
)
def test_spoiled_orbit_closure_on_every_attempt_raises(monkeypatch, spoil, failure):
    closure = fiber._orbit_points
    monkeypatch.setattr(fiber, "_orbit_points", lambda *args: spoil(closure(*args)))
    with pytest.raises(FiberSolveError, match=f"^{failure} after 4 attempts$"):
        solve_fiber(_a3_pushed_forward(0), seed=0)


@pytest.mark.parametrize("draw", range(12))
def test_a3_fiber_is_complete_or_an_error(draw):
    # a lost path is never accepted, and every one of these draws is solved
    # completely on its first attempt, the pushed-forward point among them
    x0 = _a3_draw(draw)
    system = _a3_system_at(x0)
    out = solve_fiber(system, seed=draw)
    assert out.count == system.expected_count() == 24
    assert out.path_stats == {"tracked": 1, "failed": 0, "merged": 0}
    assert np.abs(np.array(out.solutions) - x0).max(axis=1).min() < 1e-6


@pytest.mark.parametrize("draw", range(3))
def test_a3_fiber_takes_few_homotopy_evaluations(draw, monkeypatch):
    # the tracker evaluates its homotopy kernel once per RK4 stage and once
    # per correction.  The one orbit path takes 25 calls of one row here;
    # the 24 total-degree paths took 223, 249 and 189 with the 1e-8
    # corrector and no cap on ds, 262, 306 and 265 with a 1e-10 corrector
    # and ds capped at 0.1, and over 1100 with an Euler predictor
    calls = []
    homotopy = fiber._homotopy

    def counted(*args):
        kernel = homotopy(*args)

        def evaluate(X, s):
            calls.append(len(X))
            return kernel(X, s)

        return evaluate

    monkeypatch.setattr(fiber, "_homotopy", counted)
    out = solve_fiber(_a3_pushed_forward(draw), seed=draw)
    assert out.count == 24
    assert calls == [1] * len(calls)
    assert len(calls) <= 30


@pytest.mark.parametrize("draw", range(3))
def test_d4_split_fiber_is_one_orbit_from_one_path(draw):
    # 192 points from one tracked path, where total degree tracks 192 paths
    res = _split("D", 4)
    rng = np.random.default_rng(draw)
    x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    system = DeformedSystem.from_restriction(res, (), [p.eval(list(x0)) for p in res.adapted])
    start = time.perf_counter()
    out = solve_fiber(system, seed=draw)
    assert time.perf_counter() - start < 1.0
    assert out.count == system.expected_count() == 192
    assert out.orbit_classes == (tuple(range(192)),)
    assert out.path_stats["tracked"] == 1
    assert np.abs(np.array(out.solutions) - x0).max(axis=1).min() < 1e-6


@functools.cache
def _f4_split():
    """The F4 split restriction, and the seconds `restrict_family` took."""
    family = invariant_family(build_root_system("F", 4))
    start = time.perf_counter()
    res = restrict_family(family, split_config("F", 4))
    return res, time.perf_counter() - start


def test_f4_split_restriction_time():
    # the integer kernels of polyring restrict F4 in well under a second;
    # the Fraction loops took 3.5 s
    assert _f4_split()[1] < 1.5


@pytest.mark.parametrize("draw", range(3))
def test_f4_split_fiber_is_one_orbit_from_one_path(draw):
    # 1152 points from one tracked path, where total degree tracks 1152 paths
    res = _f4_split()[0]
    rng = np.random.default_rng(draw)
    x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    system = DeformedSystem.from_restriction(res, (), [p.eval(list(x0)) for p in res.adapted])
    out = solve_fiber(system, seed=draw)
    assert out.count == system.expected_count() == 1152
    assert out.orbit_classes == (tuple(range(1152)),)
    assert out.path_stats["tracked"] == 1
    assert np.abs(np.array(out.solutions) - x0).max(axis=1).min() < 1e-6


@pytest.mark.parametrize("draw", [0, 1, 7])
def test_f4_far_predictions_warn_nothing(draw):
    # RK4 stages at far-off predicted points overflow the power table; the
    # evaluator computes those rows quietly and the tracker rejects them
    res = _f4_split()[0]
    rng = np.random.default_rng(draw)
    x0 = [complex(*rng.standard_normal(2)) for _ in range(4)]
    system = DeformedSystem.from_restriction(res, (), [p.eval(x0) for p in res.adapted])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_fiber(system, seed=0)
    assert out.count == 1152


def _assert_within_bound(num, a, X, residual):
    """Each point's residual at unit scale is f's at it, within 1e-12 max(1, |a|, term size)."""
    mono, F = num.evaluate(X, num.C[:, : num.r])
    assert np.array_equal(residual, np.abs(F - a))
    size = (np.abs(mono) @ num.abs_f).max(axis=1)
    bound = 1e-12 * np.maximum(max(1.0, np.abs(a).max()), size)
    assert (residual.max(axis=1) <= bound).all()


@pytest.mark.parametrize(
    "kind, rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("D", 4), ("F", 4)]
)
def test_reflected_images_meet_the_bound_unpolished(kind, rank, monkeypatch):
    # the closure of the one tracked endpoint is returned as reflected: each
    # image's residual at unit scale is within the bound the endpoint met,
    # 1e-12 max(1, |a|, term size), whatever the scale of the fiber
    res = _f4_split()[0] if kind == "F" else _split(kind, rank)
    found = []
    orbit = fiber._orbit

    def recorded(num, a, *args):
        out = orbit(num, a, *args)
        found.append((num, a, out[0]))
        return out

    monkeypatch.setattr(fiber, "_orbit", recorded)
    for lam in (1e-3, 1.0, 1e3):
        rng = np.random.default_rng(0)
        x0 = lam * (rng.standard_normal(rank) + 1j * rng.standard_normal(rank))
        system = DeformedSystem.from_restriction(res, (), [p.eval(list(x0)) for p in res.adapted])
        out = solve_fiber(system, seed=0)
        assert out.path_stats["tracked"] == 1
        assert out.count == system.expected_count()
        num, a, (X, residual) = found[-1]
        _assert_within_bound(num, a, X, residual)


def _no_little_system():
    t = ("t1", "x1", "x2")
    polys = (parse_polynomial("x1^3 + t1*x2", t), parse_polynomial("x2^2 + x1*x2", t))
    return DeformedSystem(
        polys=polys, t_vars=("t1",), x_vars=("x1", "x2"), zeta=(0.4 + 0.3j,),
        target=(1.2, -0.7j),
    )


def _not_invariant_system():
    p = parse_polynomial("x1^2 + t1*x1", ("t1", "x1"))
    return DeformedSystem(
        polys=(p,), t_vars=("t1",), x_vars=("x1",), zeta=(0.7 + 0.2j,), target=(1.3 - 0.4j,),
        little=build_root_system("A", 1),
    )


@pytest.mark.parametrize(
    "make, paths",
    [(quartic_system, 4), (_not_invariant_system, 2), (_no_little_system, 6)],
    ids=["quartic", "not-invariant", "no-little-group"],
)
def test_tracked_endpoints_meet_the_bound(make, paths, monkeypatch):
    # no Newton runs after the last step: every total-degree endpoint is
    # returned as tracked, within the same bound as a reflected image
    found = []
    total_degree = fiber._total_degree

    def recorded(num, a, rng):
        out = total_degree(num, a, rng)
        found.append((num, a, out[0]))
        return out

    monkeypatch.setattr(fiber, "_total_degree", recorded)
    out = solve_fiber(make(), seed=0)
    assert out.path_stats["tracked"] == out.count == paths
    num, a, (X, residual) = found[-1]
    _assert_within_bound(num, a, X, residual)


def test_reflected_image_off_the_bound_takes_total_degree(monkeypatch):
    # an image moved by 1e-7 is no root, as under a reflection that does not
    # fix U: the orbit is refused and the solve tracks every total-degree path
    closure = fiber._orbit_points

    def moved(*args):
        X = closure(*args).copy()
        X[1, 0] += 1e-7
        return X

    monkeypatch.setattr(fiber, "_orbit_points", moved)
    system = _a3_pushed_forward(0)
    out = solve_fiber(system, seed=0)
    assert out.path_stats["tracked"] == math.prod(system.x_degrees()) == 24
    assert out.count == 24


def test_system_that_is_not_invariant_takes_total_degree():
    # x^2 + t x is homogeneous with d = 1 over A1, but x -> -x does not fix
    # it at zeta != 0: the reflected endpoint is no root, so its residual
    # misses the bound and the solve tracks both total-degree paths instead
    system = _not_invariant_system()
    (zeta,), (a,) = system.zeta, system.target
    assert system.d == 1
    out = solve_fiber(system, seed=0)
    assert out.path_stats["tracked"] == 2
    got = sorted((x for (x,) in out.solutions), key=lambda z: (z.real, z.imag))
    want = sorted(np.roots([1, zeta, -a]), key=lambda z: (z.real, z.imag))
    assert np.abs(np.array(got) - want).max() < 1e-12
    assert out.orbit_classes == ((0,), (1,))


@pytest.mark.parametrize("kind, rank", [("A", 3), ("BC", 2)])
def test_orbit_solve_bytes_repeat_for_one_seed(kind, rank):
    res = _split(kind, rank)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    system = DeformedSystem.from_restriction(res, (), [p.eval(list(x0)) for p in res.adapted])
    first = solve_fiber(system, seed=5).to_json()
    assert json.loads(first)["path_stats"]["tracked"] == 1
    assert solve_fiber(system, seed=5).to_json() == first


@pytest.mark.parametrize("draw", [2, 3, 4, 6])
def test_a3_fiber_at_the_rounding_floor_is_returned(draw):
    # |a| reaches 1e6 here, so endpoint residuals end near 1e-8 and an
    # absolute residual gate let rounding reject paths; an endpoint is
    # accepted when its residual is within 1e-12 max(1, |a|, term size)
    rng = np.random.default_rng(draw)
    x0 = np.array([complex(re, im) for re, im in rng.standard_normal((3, 2))])
    system = _a3_system_at(x0)
    out = solve_fiber(system, seed=draw)
    assert out.count == system.expected_count() == 24
    assert np.abs(np.array(out.solutions) - x0).max(axis=1).min() < 1e-6
    assert sorted(map(len, out.orbit_classes)) == [24] * system.d
    assert is_generic_fiber(system, out)


@pytest.mark.parametrize("zeta, target", [(20, 3), (30, 0.1), (40, 1)])
def test_polish_converges_where_large_terms_cancel(zeta, target):
    # near x = +-i zeta both terms of x^4 + t^2 x^2 reach zeta^4 and cancel
    # to the small target, so the float floor of f lies far above
    # 1e-12 max(1, |a|); the acceptance bound also scales with the term size
    p = parse_polynomial("x1^4 + t1^2*x1^2", ("t1", "x1"))
    system = DeformedSystem(
        polys=(p,),
        t_vars=("t1",),
        x_vars=("x1",),
        zeta=(zeta,),
        target=(target,),
        little=build_root_system("A", 1),
    )
    out = solve_fiber(system, seed=0)
    assert out.count == system.expected_count() == 4
    assert is_generic_fiber(system, out)


@functools.cache
def _b2_split_point():
    res = restrict_family(invariant_family(build_root_system("B", 2)), split_config("B", 2))
    x0 = (0.3 + 0.8j, -1.1 + 0.2j)
    target = tuple(p.eval(list(x0)) for p in res.adapted)
    return DeformedSystem.from_restriction(res, (), target), target, x0


def test_zero_target_and_zeta_is_named_non_generic(monkeypatch):
    # the fiber of a homogeneous system at a = 0, zeta = 0 is the origin
    # alone, with multiplicity 2 * 4; no path is tracked
    system, _, _ = _b2_split_point()
    monkeypatch.setattr(fiber, "_track_paths", None)
    with pytest.raises(
        FiberSolveError,
        match="^non-generic target: target and zeta are zero, so the fiber is the origin"
        " with multiplicity 8$",
    ):
        solve_fiber(replace(system, target=(0, 0)), seed=0)


def test_zero_target_takes_its_scale_from_zeta():
    # 20 t^2 + 20 x^2 = 0 at zeta = 1e3 (0.3 + 0.1j) has the points x = +-i zeta
    zeta = 1e3 * (0.3 + 0.1j)
    out = solve_fiber(toy_system(zeta=(zeta,), target=(0,)), seed=0)
    assert out.count == 2
    for (x,) in out.solutions:
        assert min(abs(x - 1j * zeta), abs(x + 1j * zeta)) < 1e-12 * abs(zeta)


def test_partly_zero_target_is_solved():
    # the scale comes from the nonzero entry of a alone
    system, _, _ = _b2_split_point()
    out = solve_fiber(replace(system, target=(0, 1.5 + 0.3j)), seed=0)
    assert out.count == system.expected_count() == 8
    assert sorted(map(len, out.orbit_classes)) == [8] * system.d


def test_residuals_are_in_the_callers_frame():
    # the fiber is solved at unit scale; each equation's residual is taken
    # back by lam^m_i, so it is the residual of U(x) = a evaluated directly
    system, _, x0 = _b2_split_point()
    x0 = tuple(1e3 * z for z in x0)
    target = tuple(p.eval(list(x0)) for p in system.polys)
    out = solve_fiber(replace(system, target=target), seed=0)
    assert out.count == 8
    direct = max(
        abs(p.eval(list(x)) - a) for x in out.solutions for p, a in zip(system.polys, target)
    )
    assert direct / 10 <= max(out.residuals) <= direct * 10
    assert max(out.residuals) <= 1e-12 * max(map(abs, target))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda s, a, x0: is_unramified(s, (0.3 + 0.1j,)), "point"),
        (lambda s, a, x0: is_generic(s, (0.3, 0.1, 0.2)), "point"),
        (lambda s, a, x0: is_generic(s, ("1", None)), "point"),
        (lambda s, a, x0: local_inverse_psi(s, a[:1], x0), "target"),
        (lambda s, a, x0: local_inverse_psi(s, a, (float("nan"), 1.0)), "start"),
        (lambda s, a, x0: orbit_partition([x0, (1.0,)], s.little), "every point"),
        (lambda s, a, x0: orbit_partition([(1, 2, 3)], s.little), "every point"),
        (lambda s, a, x0: orbit_partition([x0, (1j, math.inf)], s.little), "every point"),
        (lambda s, a, x0: orbit_partition(x0, s.little), "every point"),
    ],
    ids=[
        "unramified-short", "generic-long", "generic-not-numbers", "target-short",
        "start-nan", "orbit-ragged", "orbit-wide", "orbit-inf", "orbit-flat",
    ],
)
def test_malformed_points_rejected(call, name):
    # before, a short point read as unramified, a short target broadcast
    # over both equations, and a NaN start passed for a ramified one
    system, target, x0 = _b2_split_point()
    with pytest.raises(ValueError, match=f"^{name} must have 2 finite coordinates$"):
        call(system, target, x0)
