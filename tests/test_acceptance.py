"""Acceptance gate.

One test per advertised guarantee, each printing a single PASS/FAIL line
even under captured output.  Criteria:

  1. fiber-count law: seeded random fibers have exactly |W(a_q)| * d points
  2. surjectivity dichotomy plus the graded-dimension rank oracle
  3. product of fundamental degrees equals |W|; Jacobian degree law
  4. lambda existence with distinct orbit classes on the d=2 system
  5. local inverse round trip and the ramified-start abort
  6. classification table counts and invariants
  7. byte-identical JSON for identical seeds
"""

import time
from importlib import resources

import numpy as np
import pytest

from chevfiber import (
    DeformedSystem,
    RamifiedPointError,
    build_root_system,
    b_exceptional_list,
    invariant_family,
    is_b_exceptional,
    is_exceptional,
    is_split,
    is_unramified,
    jacobian_det,
    load_database,
    load_pair_config,
    local_inverse_psi,
    restrict_family,
    solve_fiber,
    solve_lambda_xi,
    split_config,
    surjectivity_check,
    verify_database,
    weyl_group,
)
from chevfiber.cli import main as cli_main
from chevfiber.pairdb import REMOVED_PAIRS, REPLACEMENT_PAIRS, dual_of
from chevfiber.rootsys import fundamental_degrees, weyl_order


def _announce(capfd, ok, name, detail):
    with capfd.disabled():
        print("[%s] %s (%s)" % ("PASS" if ok else "FAIL", name, detail), flush=True)


def _toy_cfg():
    return load_pair_config(
        str(resources.files("chevfiber.data").joinpath("toy_pair.cfg"))
    )


@pytest.fixture(scope="module")
def toy_restriction():
    fam = invariant_family(build_root_system("B", 2))
    return restrict_family(fam, _toy_cfg())


@pytest.fixture(scope="module")
def quartic_restriction():
    fam = invariant_family(build_root_system("B", 2))
    return restrict_family(fam, _toy_cfg(), selection=(1,))


@pytest.fixture(scope="module")
def split_restrictions():
    out = {}
    for t, n in (("A", 2), ("B", 2), ("C", 2), ("BC", 2)):
        fam = invariant_family(build_root_system(t, n))
        out[f"{t}{n}"] = restrict_family(fam, split_config(t, n))
    return out


@pytest.fixture(scope="module")
def count_law_restrictions(split_restrictions):
    """The rank-2 splits plus G2 and A3, whose coefficients reach 9.1e6 and 9.1e5."""
    out = dict(split_restrictions)
    for t, n in (("G", 2), ("A", 3)):
        fam = invariant_family(build_root_system(t, n))
        out[f"{t}{n}"] = restrict_family(fam, split_config(t, n))
    return out


def _draw(rng, k):
    re = rng.standard_normal(k)
    im = rng.standard_normal(k)
    return tuple(complex(a, b) for a, b in zip(re, im))


def _systems(toy_restriction, quartic_restriction, split_restrictions, rng):
    """One (name, system) per family, with freshly drawn zeta and target."""
    out = []
    for name, res in (
        ("toy", toy_restriction),
        ("quartic", quartic_restriction),
    ):
        zeta = _draw(rng, len(res.t_vars))
        target = _draw(rng, len(res.adapted))
        out.append((name, DeformedSystem.from_restriction(res, zeta, target)))
    for name, res in sorted(split_restrictions.items()):
        target = _draw(rng, len(res.adapted))
        out.append((name, DeformedSystem.from_restriction(res, (), target)))
    return out


DRAWS = 20


def test_criterion_1_fiber_count_law(
    capfd, toy_restriction, quartic_restriction, count_law_restrictions
):
    t0 = time.time()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    checked = 0
    ok = True
    for k in range(DRAWS):
        for name, system in _systems(
            toy_restriction, quartic_restriction, count_law_restrictions, rng
        ):
            result = solve_fiber(system, seed=1000 + k)
            expected = system.expected_count()
            if result.count != expected or any(r >= 1e-8 for r in result.residuals):
                ok = False
            worst = max(worst, max(result.residuals))
            checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _announce(
        capfd,
        ok,
        "criterion 1 fiber-count law",
        "%d fibers, max residual %.2e, %.1fs" % (checked, worst, elapsed),
    )
    assert ok, f"fiber counts or residuals failed; elapsed {elapsed:.1f}s"


def _series_quotient(w_degs, e_degs, bound):
    """Coefficients of prod(1 - q^w) / prod(1 - q^e) up to the bound.

    For a free module this is the generator-degree polynomial; entries must
    be nonnegative integers summing to the module rank.
    """
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    for e in e_degs:  # multiply by 1/(1 - q^e)
        for i in range(e, bound + 1):
            coeffs[i] += coeffs[i - e]
    for w in w_degs:  # multiply by (1 - q^w)
        for i in range(bound, w - 1, -1):
            coeffs[i] -= coeffs[i - w]
    return coeffs


def test_criterion_2_surjectivity_dichotomy(
    capfd, toy_restriction, quartic_restriction, split_restrictions
):
    ok = True
    notes = []
    for name, res in sorted(split_restrictions.items()):
        report = surjectivity_check(res.restricted, degree_bound=12)
        if not report.ok or res.d != 1:
            ok = False
            notes.append(f"{name} split not surjective")
    report = surjectivity_check(toy_restriction.restricted, degree_bound=12)
    if not report.ok or toy_restriction.d != 1:
        ok = False
        notes.append("toy restriction not surjective")
    report = surjectivity_check(quartic_restriction.restricted, degree_bound=12)
    if report.ok or report.failing_degree != 2 or quartic_restriction.d != 2:
        ok = False
        notes.append("quartic selection dichotomy wrong")
    for res, want in ((toy_restriction, 1), (quartic_restriction, 2)):
        w_degs = res.restricted.degrees
        e_degs = fundamental_degrees(res.restricted.group.type_name, res.restricted.group.rank)
        coeffs = _series_quotient(w_degs, e_degs, 12)
        if any(c < 0 for c in coeffs) or sum(coeffs) != want or res.d != want:
            ok = False
            notes.append(f"rank oracle mismatch for degrees {w_degs}")
    _announce(
        capfd,
        ok,
        "criterion 2 surjectivity dichotomy",
        "; ".join(notes) if notes else "splits pass at N=12, quartic fails at 2, ranks 1 and 2",
    )
    assert ok, notes


GROUP_CASES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
    ("BC", 2), ("BC", 3),
)

FAMILY_CASES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3),
    ("C", 2), ("C", 3),
    ("D", 4), ("G", 2), ("F", 4),
    ("BC", 2), ("BC", 3),
)


def test_criterion_3_degree_order_identities(capfd):
    ok = True
    notes = []
    for t, n in GROUP_CASES:
        rs = build_root_system(t, n)
        if len(weyl_group(rs)) != weyl_order(t, n):
            ok = False
            notes.append(f"{t}{n} order mismatch")
    t0 = time.time()
    e6 = weyl_group(build_root_system("E", 6))
    e6_elapsed = time.time() - t0
    if len(e6) != 51840 or e6_elapsed >= 60.0:
        ok = False
        notes.append(f"E6 closure {len(e6)} in {e6_elapsed:.1f}s")
    for t, n in FAMILY_CASES:
        fam = invariant_family(build_root_system(t, n))
        J = jacobian_det(fam.polys, fam.variables)
        if J.homogeneous_degree() != sum(m - 1 for m in fam.degrees):
            ok = False
            notes.append(f"{t}{n} jacobian degree law")
    _announce(
        capfd,
        ok,
        "criterion 3 degree and order identities",
        "; ".join(notes)
        if notes
        else "%d groups, E6 in %.1fs, %d jacobian degrees"
        % (len(GROUP_CASES) + 1, e6_elapsed, len(FAMILY_CASES)),
    )
    assert ok, notes


def test_criterion_4_lambda_existence(
    capfd, toy_restriction, quartic_restriction
):
    ok = True
    notes = []
    rng = np.random.default_rng(47)
    worst = 0.0
    for name, res in (("toy", toy_restriction), ("quartic", quartic_restriction)):
        for k in range(10):
            zeta = _draw(rng, len(res.t_vars))
            xi = _draw(rng, len(res.x_vars))
            system = DeformedSystem.from_restriction(
                res, zeta, tuple(0j for _ in res.adapted)
            )
            result = solve_lambda_xi(system, xi, seed=k)
            worst = max(worst, max(result.residuals, default=1.0))
            if result.count < 1 or any(r >= 1e-10 for r in result.residuals):
                ok = False
                notes.append(f"{name} draw {k} has no lambda below tolerance")
            # the count law orbit by orbit: d classes of |W(a_q)| points
            order = weyl_order(system.little.type_name, system.little.rank)
            if sorted(map(len, result.orbit_classes)) != [order] * system.d:
                ok = False
                notes.append(f"{name} draw {k} is not {system.d} orbits of {order} points")
    _announce(
        capfd,
        ok,
        "criterion 4 lambda existence",
        "; ".join(notes) if notes else "20 draws, max residual %.2e" % worst,
    )
    assert ok, notes


def test_criterion_5_local_inverse_round_trip(capfd, toy_restriction):
    zeta = (0.5 + 0.2j,)
    system = DeformedSystem.from_restriction(toy_restriction, zeta, (0j,))
    poly = system.polys[0]
    rng = np.random.default_rng(83)
    worst = 0.0
    done = 0
    ok = True
    while done < 100:
        nu = complex(rng.standard_normal(), rng.standard_normal())
        if not is_unramified(system, (nu,)):
            continue
        target = (poly.eval(zeta + (nu,)),)
        start = (nu * (1.0 + 1e-3) + 1e-4j,)
        back = local_inverse_psi(system, target, start)
        err = abs(back[0] - nu)
        worst = max(worst, err)
        if err >= 1e-10:
            ok = False
        done += 1
    try:
        local_inverse_psi(system, (1.0 + 0j,), (0j,))
        ok = False
        aborted = False
    except RamifiedPointError:
        aborted = True
    _announce(
        capfd,
        ok and aborted,
        "criterion 5 local inverse",
        "100 round trips, worst %.2e, ramified abort %s" % (worst, aborted),
    )
    assert ok and aborted


def test_criterion_6_classification_tables(capfd):
    db = load_database()
    problems = verify_database(db)
    ok = not problems
    notes = list(problems)
    if sum(1 for r in db if is_exceptional(r)) != 35 or len(db) != 35:
        ok = False
        notes.append("exceptional count is not 35")
    if len(b_exceptional_list(db)) != 10:
        ok = False
        notes.append("b-exceptional count is not 10")
    names = {(r.name_g, r.name_h) for r in db}
    if not set(REPLACEMENT_PAIRS) <= names:
        ok = False
        notes.append("replacement rows missing")
    if set(REMOVED_PAIRS) & names:
        ok = False
        notes.append("removed rows still present")
    for rec in db:
        if rec.dual_name:
            mate = dual_of(rec, db)
            if dual_of(mate, db) is not rec:
                ok = False
                notes.append(f"dual link broken at {rec.label}")
    for rec in db:
        if rec.sigma_b is not None and is_split(rec) and is_b_exceptional(rec):
            ok = False
            notes.append(f"split record {rec.label} marked b-exceptional")
    if cli_main(["classify", "--out", "/dev/null"]) != 0:
        ok = False
        notes.append("classify exit code nonzero")
    _announce(
        capfd,
        ok,
        "criterion 6 classification tables",
        "; ".join(notes) if notes else "35 exceptional, 10 b-exceptional, links verified",
    )
    assert ok, notes


def test_criterion_7_determinism(
    capfd, toy_restriction, quartic_restriction, split_restrictions
):
    ok = True
    for trial in range(2):
        rng = np.random.default_rng(20260819)
        blobs = []
        for name, system in _systems(
            toy_restriction, quartic_restriction, split_restrictions, rng
        ):
            blobs.append(solve_fiber(system, seed=424242).to_json())
        if trial == 0:
            first = blobs
        elif blobs != first:
            ok = False
    _announce(
        capfd,
        ok,
        "criterion 7 determinism",
        "%d JSON payloads byte-identical across runs" % len(first),
    )
    assert ok
