"""Run one workload of the chevfiber benchmark and print its metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` every call into the package's public
functions is a span, the metrics are the per-layer ones, and the spans are
written to `.bench_out/` when the run ends.

`correct` is false when an output fails a check other than the fiber
solver's named failure classes, which are counted in `failed` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import harness, workloads  # noqa: E402
from bench.tracing import Tracer  # noqa: E402

# a traced run spends this share of --seconds more on the probe ops, and
# makes them at least once
PROBE_SHARE = 0.25
OUT_DIR = harness.ROOT / ".bench_out"

CLI_KINDS = ("roots", "invariants", "restrict", "fiber", "lambda", "classify")
SELF_TIME_LAYERS = ("polyring", "rootsys", "restrict", "fiber", "pairdb", "cli")
SOLVE_SYSTEMS = ("toy", "quartic", "A2", "B2", "C2", "BC2", "G2", "A3")


def load_package():
    """Import chevfiber from this checkout's src/, and nowhere else."""
    init = harness.SRC / "chevfiber" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no package sources at {init}")
    sys.path.insert(0, str(harness.SRC))
    import chevfiber
    import chevfiber.cli  # noqa: F401  (the tracer wraps cli.main)

    if Path(chevfiber.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported chevfiber from {chevfiber.__file__}")
    return chevfiber


def set_up(workload):
    """Cold import in a fresh interpreter plus the in-process build."""
    proc = harness.run_child(["-c", workload.cold_import])[1]
    if proc.returncode != 0:
        raise SystemExit(f"error: cold import failed: {proc.stderr.strip()}")
    return workload.setup()


def peak_rss_mb(workload_name: str) -> float:
    # cli work happens in children; ru_maxrss of RUSAGE_CHILDREN is the largest
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _median_or_zero(values) -> float:
    return harness.median(values) if values else 0.0


def layer_metrics(
    tracer: Tracer, phase: harness.Phase, probes: harness.Phase
) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans; 0 where the workload never calls it.

    Times and counts are per input set: what the timed passes did, over the
    number of passes, plus what the probe passes did, over theirs.  Times
    are scaled by the slowdown the reference loop measured around their op.
    A span's time includes the reference loops run during it, about 3%.
    """
    spans = tracer.spans
    records = phase.records + probes.records
    labels = [r.label for r in records]
    n = len(phase.records)

    def per_set(op) -> float:
        return 1.0 / phase.passes if op < n else 1.0 / probes.passes

    def scaled(span) -> float:
        return span.duration / records[span.op].slowdown

    def durations(name, keep=lambda s: True):
        return [scaled(s) for s in spans if s.name == name and keep(s)]

    def total(name, keep=lambda s: True):
        return float(sum(scaled(s) * per_set(s.op) for s in spans
                         if s.name == name and keep(s)))

    def count(name):
        return float(sum(c[name] * per_set(op) for op, c in tracer.counts.items()))

    def op_ms(prefix):
        return [r.scaled_ms for r in records if r.label.startswith(prefix)]

    m: dict[str, tuple[float, str]] = {}
    m["rootsys.build_root_system_s"] = (total("rootsys.build_root_system"), "s")
    m["rootsys.weyl_group.E6_s"] = (
        total("rootsys.weyl_group", lambda s: s.tag == "E6"), "s")
    m["rootsys.weyl_group.small_s"] = (
        total("rootsys.weyl_group", lambda s: s.tag != "E6"), "s")
    m["rootsys.weyl_elements"] = (count("rootsys.weyl_elements"), "count")
    for tag in ("D4", "A4"):
        m[f"rootsys.invariant_family.{tag}_s"] = (
            total("rootsys.invariant_family", lambda s, t=tag: s.tag == t), "s")
    m["rootsys.invariant_family.rest_s"] = (
        total("rootsys.invariant_family", lambda s: s.tag not in ("D4", "A4")), "s")
    m["rootsys.orbit_sum_invariant.F4_s"] = (
        total("rootsys.orbit_sum_invariant", lambda s: s.tag == "F4"), "s")
    m["rootsys.family_terms"] = (count("rootsys.family_terms"), "count")
    m["polyring.jacobian_det_s"] = (total("polyring.jacobian_det"), "s")
    m["restrict.restrict_family_s"] = (total("restrict.restrict_family"), "s")
    surj = "restrict.surjectivity_check"
    m["restrict.surjectivity.A3_s"] = (total(surj, lambda s: s.tag == "A3"), "s")
    m["restrict.surjectivity.rank2_s"] = (
        total(surj, lambda s: s.tag is not None and s.tag.endswith("2")), "s")
    m["restrict.surjectivity.rank3_s"] = (
        total(surj, lambda s: s.tag in ("B3", "C3")), "s")
    m["restrict.surjectivity.degrees_checked"] = (
        count("restrict.surjectivity.degrees_checked"), "count")

    solves = [s for s in spans if s.name == "fiber.solve_fiber"]
    returned = [s for s in solves if not s.error]
    for system in SOLVE_SYSTEMS:
        label = f"solve_fiber {system}"
        m[f"fiber.solve_fiber.{system}_ms"] = (
            _median_or_zero([scaled(s) * 1e3 for s in returned if labels[s.op] == label]),
            "ms",
        )
    tracked = count("fiber.paths_tracked")
    returned_ms = sum(scaled(s) * per_set(s.op) for s in returned) * 1e3
    m["fiber.ms_per_path"] = (returned_ms / tracked if tracked else 0.0, "ms")
    m["fiber.paths_tracked"] = (tracked, "count")
    m["fiber.paths_merged"] = (count("fiber.paths_merged"), "count")
    m["fiber.paths_lost_accepted"] = (count("fiber.paths_lost_accepted"), "count")
    m["fiber.orbit_partition_ms"] = (
        _median_or_zero([d * 1e3 for d in durations("fiber.orbit_partition")]), "ms")
    m["fiber.failed_solve_s"] = (
        float(sum(scaled(s) * per_set(s.op) for s in solves if s.error)), "s")
    failures = Counter()
    for i, r in enumerate(records):
        if r.failure:
            failures[r.failure] += per_set(i)
    for cls in harness.FIBER_FAILURES:
        m[f"fiber.fail.{cls}"] = (failures[cls], "count")

    for name in ("load_database", "verify_database"):
        m[f"pairdb.{name}_ms"] = (
            _median_or_zero([d * 1e3 for d in durations(f"pairdb.{name}")]), "ms")

    m["cli.interpreter_ms"] = (_median_or_zero(op_ms("probe interpreter")), "ms")
    m["cli.import_ms"] = (_median_or_zero(op_ms("probe import")), "ms")
    for kind in CLI_KINDS:
        m[f"cli.{kind}_ms"] = (_median_or_zero(op_ms(f"cli {kind} ")), "ms")
        m[f"cli.{kind}.inproc_ms"] = (_median_or_zero(op_ms(f"inproc {kind} ")), "ms")

    self_s = tracer.self_times(lambda s: per_set(s.op) / records[s.op].slowdown)
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s_per_pass"] = (self_s.get(layer, 0.0), "s")
    traced_s = phase.elapsed_s + probes.elapsed_s
    m["trace.overhead_pct"] = (100.0 * tracer.bookkeeping_s / traced_s, "%")
    m["trace.spans"] = (len(spans), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the thread pool is not measured; record the setting and run without it
    threads_env = os.environ.pop("CHEVFIBER_THREADS", None)
    # one vCPU for the run and its children, so the reference loop times the
    # processor the work runs on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cf = load_package()
    workload = workloads.make(args.workload, cf, args.seed)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(cf)
    try:
        phase = harness.run_phase(
            lambda: set_up(workload), workload.pass_ops, args.seconds, tracer)
        probes = harness.Phase()
        if tracer is not None and workload.probe_ops(phase.ctx):
            probes = harness.run_phase(
                lambda: phase.ctx, workload.probe_ops, args.seconds * PROBE_SHARE, tracer,
                first_op=len(phase.records),
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    input_digest = harness.digest(workload.input_parts(phase.ctx))

    records = phase.records + probes.records
    failures = Counter(r.failure for r in records if r.failure)
    failed = sum(failures.values())
    correct = all(f in harness.FIBER_FAILURES for f in failures)
    op_ms = [r.ms for r in phase.records]
    latency = harness.latency_summary(op_ms)
    ops_per_s = len(op_ms) / (sum(op_ms) / 1e3)

    end_to_end = {
        "setup_s": (harness.median(phase.setup_s), "s"),
        "wall_s": (phase.pass_s(), "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_sha256": input_digest,
        "facts": harness.machine_facts(args.seed, threads_env, cpu),
        "passes": phase.passes,
        "setups": len(phase.setup_s),
        "timed_phase_s": phase.elapsed_s,
        "ops": len(op_ms),
        "ops_per_s": ops_per_s,
        "op_p50_ms": latency["op_p50_ms"],
        "op_p90_ms": latency["op_p90_ms"],
        "fail_share": failed / len(records),
        "slowdown": phase.slowdown(),
        "failures": dict(sorted(failures.items())),
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "records": [[r.index, r.label, r.ms, r.slowdown, r.failure] for r in records],
    }
    metrics = end_to_end
    if tracer is not None:
        metrics = layer_metrics(tracer, phase, probes)
        detail["per_layer"] = {k: v for k, (v, _) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl", origin=tracer.spans[0].start)
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs sha256 {input_digest}")
    print("facts " + json.dumps(detail["facts"]))
    n = len(op_ms)
    print(f"passes {phase.passes}  ops {n}  timed {phase.elapsed_s:.3f} s  "
          f"ops_per_s {ops_per_s:.6g} 1/s")
    p90 = latency["op_p90_ms"]
    print(f"op_p50_ms {latency['op_p50_ms']:.6g} ms (n={n})")
    print(
        "op_p90_ms "
        + (f"{p90:.6g} ms (n={n})" if p90 is not None
           else f"withheld (n={n} < {harness.TAIL_MIN_SAMPLES})")
    )
    print(f"fail_share {failed}/{len(records)} = {failed / len(records):.4f}  "
          + " ".join(f"{k}={v}" for k, v in sorted(failures.items())))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
