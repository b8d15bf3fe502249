"""Tests of the benchmark's own helpers: input digests, the fiber failure
classifier, the percentile helper and the pass time."""

import pytest

from bench import harness, run, workloads

cf = run.load_package()


def _input_digest(name, seed):
    workload = workloads.make(name, cf, seed)
    return harness.digest(workload.input_parts(workload.setup()))


@pytest.mark.parametrize("name", ["fiber-unit", "fiber-sweep", "cli", "exact"])
def test_same_seed_same_input_digest(name):
    assert _input_digest(name, 5) == _input_digest(name, 5)


@pytest.mark.parametrize("name", ["fiber-unit", "fiber-sweep"])
def test_seed_rotates_fiber_panel(name):
    parts = {}
    for seed in (5, 6):
        workload = workloads.make(name, cf, seed)
        parts[seed] = workload.input_parts(workload.setup())
    assert parts[5] != parts[6]
    assert sorted(parts[5]) == sorted(parts[6])


X0 = (1 + 1j, -2 + 0.5j)
FIBER = ((1 + 1j, -2 + 0.5j), (-1 - 1j, 2 - 0.5j))


@pytest.mark.parametrize(
    "error, solutions, expected, scale, want",
    [
        (None, FIBER, 2, 1.0, None),
        (RuntimeError("paths lost"), (), 2, 1.0, "solve_error"),
        (None, FIBER[:1], 2, 1.0, "count_law"),
        # a short fiber is a count-law failure even when x0 is in it
        (None, FIBER + ((0j, 0j),), 2, 1.0, "count_law"),
        (None, ((5j, 5j), (-5j, -5j)), 2, 1.0, "reference_miss"),
        # the tolerance is 1e-6 of the scale
        (None, ((1 + 1j + 5e-7, -2 + 0.5j), FIBER[1]), 2, 1.0, None),
        (None, ((1 + 1j + 5e-7, -2 + 0.5j), FIBER[1]), 2, 0.1, "reference_miss"),
    ],
)
def test_classify_fiber(error, solutions, expected, scale, want):
    assert harness.classify_fiber(error, solutions, expected, X0, scale) == want


def test_fiber_check_maps_solver_errors():
    unit = workloads.make("fiber-unit", cf, 1)
    ctx = unit.setup()
    op = unit.pass_ops(ctx)[0]
    assert op.check(cf.FiberSolveError("3 of 2 paths failed")) == "solve_error"
    assert op.check(ValueError("bad input")) == "error:ValueError"


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile([3.0], 90) == 3.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_p90_withheld_below_100_ops():
    short = harness.latency_summary([float(i) for i in range(99)])
    assert short["op_p90_ms"] is None
    assert short["op_p50_ms"] == 49.0
    full = harness.latency_summary([float(i) for i in range(100)])
    assert full["op_p90_ms"] == 89.0
    assert full["n"] == 100


def test_pass_time_takes_each_ops_median_scaled_time_over_passes():
    phase = harness.Phase(passes=3)
    passes = (((10.0, 1.0), (300.0, 2.0)), ((24.0, 2.0), (100.0, 1.0)), ((11.0, 1.0), (200.0, 1.0)))
    for ops in passes:
        for index, (ms, slowdown) in enumerate(ops):
            phase.records.append(harness.Record(index, f"op {index}", ms, None, slowdown))
    # op 0 runs 10, 12 and 11 ms at full speed, op 1 150, 100 and 200 ms
    assert phase.pass_s() == pytest.approx((11.0 + 150.0) / 1e3)


def test_reference_slowdown_scales_op_time(monkeypatch):
    loops = iter([2.0, 4.0])
    monkeypatch.setattr(harness, "reference_ms", lambda: next(loops))
    out, seconds, slowdown = harness._timed(lambda: "done", sample=True)
    assert out == "done" and seconds >= 0
    assert slowdown == pytest.approx(3.0 / harness.REFERENCE_MS)


def test_every_pass_sets_up_afresh():
    made = []

    def setup():
        made.append(len(made))
        return made[-1]

    phase = harness.run_phase(setup, lambda ctx: [], seconds=0.0)
    assert phase.passes == 1
    assert len(phase.setup_s) == harness.SETUPS_PER_PASS
    assert phase.ctx == harness.SETUPS_PER_PASS - 1
