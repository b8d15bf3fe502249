"""Workload-independent parts of the benchmark.

Percentiles, the fiber failure classifier, input digests, machine facts and
the timed closed loop.  Nothing here imports `chevfiber`, so the helpers can
be tested without it.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a tail percentile needs at least ten samples beyond it
TAIL_MIN_SAMPLES = 100

# the fiber solver's failure classes; an op that fails in one of these is
# counted in `failed`, while any other failed check makes the run incorrect
FIBER_FAILURES = ("solve_error", "count_law", "reference_miss")

# a returned fiber must hold a point this close to x0, relative to the scale
REFERENCE_TOL = 1e-6

# Other jobs on a shared host slow this process by up to two times, for
# moments and for minutes on end, and they slow all of its code alike: the
# ratio of any two ops' times holds within a few percent while both move.
# So a fixed loop is timed before, during and after each op, and the op's
# time is scaled by how much slower than REFERENCE_MS the loop ran.  Each
# vCPU is slowed on its own, so a run keeps itself and its children on one.
REFERENCE_TERMS = 400
# the loop's time on an idle host (Intel Xeon, 2 vCPUs, Python 3.11)
REFERENCE_MS = 1.0

# a run with only two or three passes still gets a median of several set-ups
SETUPS_PER_PASS = 2
# an op longer than this is slowed by different amounts along its way, so
# the loop is also timed at this interval while the op runs
SAMPLE_INTERVAL_S = 0.05


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def latency_summary(samples_ms: Sequence[float]) -> dict:
    """Median, and p90 only when at least TAIL_MIN_SAMPLES ops were timed."""
    n = len(samples_ms)
    return {
        "n": n,
        "op_p50_ms": median(samples_ms) if n else None,
        "op_p90_ms": percentile(samples_ms, 90) if n >= TAIL_MIN_SAMPLES else None,
    }


def classify_fiber(
    error: BaseException | None,
    solutions: Sequence[Sequence[complex]],
    expected: int,
    x0: Sequence[complex],
    scale: float,
) -> str | None:
    """Name the first check a pushed-forward fiber solve fails, or None.

    The target was U(zeta; x0), so a correct fiber has `expected` points and
    one of them is x0.
    """
    if error is not None:
        return "solve_error"
    if len(solutions) != expected:
        return "count_law"
    tol = REFERENCE_TOL * scale
    if not any(max(abs(p - q) for p, q in zip(point, x0)) <= tol for point in solutions):
        return "reference_miss"
    return None


def reference_ms() -> float:
    """Time of the fixed reference loop, now."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return (perf_counter() - t0) * 1e3


def digest(parts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def complex_key(z: complex) -> str:
    """Exact text of a complex draw, so digests do not depend on printing."""
    return f"{z.real.hex()},{z.imag.hex()}"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read as files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """Digest of the package sources, which identifies the code measured."""
    files = sorted((SRC / "chevfiber").rglob("*"))
    h = hashlib.sha256()
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(seed: int, threads_env: str | None, cpu: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "chevfiber_threads_env": threads_env,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CHEVFIBER_THREADS", None)
    return env


def run_child(args: Sequence[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; return its wall seconds."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return perf_counter() - t0, proc


@dataclass
class Op:
    """One call into the program, and the check of what it returned.

    `check` gets the return value, or the exception the call raised, and
    returns None or the name of the check that failed.  An op whose work
    runs in a child process sets `in_child`: the reference loop would take
    the child's processor from it, so it is timed only before and after.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    in_child: bool = False


@dataclass
class Record:
    index: int  # the op's place in its pass
    label: str
    ms: float
    failure: str | None
    slowdown: float = 1.0  # the reference loop's mean time at the op, over REFERENCE_MS

    @property
    def scaled_ms(self) -> float:
        return self.ms / self.slowdown


@dataclass
class Phase:
    records: list[Record] = field(default_factory=list)
    passes: int = 0
    elapsed_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)  # scaled, like the ops
    ctx: object = None

    def pass_s(self) -> float:
        """Time of one pass: each op's median scaled time over the passes, summed."""
        by_op: dict[int, list[float]] = {}
        for r in self.records:
            by_op.setdefault(r.index, []).append(r.scaled_ms)
        return sum(median(v) for v in by_op.values()) / 1e3

    def slowdown(self) -> float:
        """The host's median slowdown over the run's ops."""
        return median([r.slowdown for r in self.records])


def run_phase(
    setup: Callable[[], object],
    pass_ops: Callable[[object], list[Op]],
    seconds: float,
    tracer=None,
    first_op: int = 0,
) -> Phase:
    """Closed loop, one op at a time, in whole passes within `seconds`.

    Each pass starts with SETUPS_PER_PASS calls of `setup()`, timed on
    their own, and then runs the ops `pass_ops` makes from what the last
    one returned.  A pass is the workload's whole input set, so every pass
    does the same work.  A further pass starts only if one more of the
    same length still ends within `seconds`; the first pass always runs.
    Only the calls are timed, not the checks, and set-up is never traced.
    """
    phase = Phase()
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        if tracer is not None:
            tracer.enabled = False
        for _ in range(SETUPS_PER_PASS):
            # every set-up starts a fresh interpreter
            phase.ctx, setup_s, slowdown = _timed(setup, sample=False)
            if isinstance(phase.ctx, Exception):
                raise phase.ctx
            phase.setup_s.append(setup_s / slowdown)
        if tracer is not None:
            tracer.enabled = True
        for index, op in enumerate(pass_ops(phase.ctx)):
            span = None
            if tracer is not None:
                tracer.op = first_op + len(phase.records)
                span = tracer.open("op", "bench", op.label)
            out, dt, slowdown = _timed(op.call, sample=not op.in_child)
            if span is not None:
                tracer.close(span, error=isinstance(out, Exception))
            phase.records.append(
                Record(index, op.label, dt * 1e3, op.check(out), slowdown)
            )
        phase.passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    phase.elapsed_s = perf_counter() - start
    return phase


def _timed(call: Callable[[], object], sample: bool) -> tuple[object, float, float]:
    """Run `call`, timing the reference loop before and after it and, if
    `sample`, every SAMPLE_INTERVAL_S during it.

    Returns what it returned (or the exception it raised), its seconds
    without the loops run during it, and the slowdown: the loop's mean time
    over REFERENCE_MS.
    """
    samples = [reference_ms()]
    in_call = 0.0

    def tick(signum, frame):
        nonlocal in_call
        t = perf_counter()
        samples.append(reference_ms())
        in_call += perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    if sample:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t0 = perf_counter()
    try:
        out = call()
    except Exception as exc:  # the op's check decides what the error means
        out = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = perf_counter() - t0 - in_call
    samples.append(reference_ms())
    return out, seconds, sum(samples) / len(samples) / REFERENCE_MS
