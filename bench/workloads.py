"""The four workloads: their inputs, their ops and the checks on each output.

Every workload is a closed loop: one op at a time, no threads or pools.  A
pass is the workload's timed input set; a run repeats it.

- exact: the exact acceptance set (Fractions only) without its heavy ops,
  which a traced run makes once: the E6 closure, the D4 and A4 families,
  the F4 orbit sum, and surjectivity to bound 8 on the rank-3 splits.
- fiber-unit: two rounds of one pushed-forward fiber per system at scale 1.
- fiber-sweep: one round of pushed-forward fibers per system, x0 and zeta
  scaled by lambda, one lambda per third of log10 lambda in [-3, 3].
- cli: a fixed cycle of fresh `chevfiber` processes.

The inputs are digested, so two commits can be compared on identical
inputs.  Expected digests of the exact outputs live in `expected.json` next
to this file; `record_expected.py` rewrites it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from .harness import ROOT, Op, classify_fiber, complex_key, digest, run_child

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DATA = "src/chevfiber/data"

GROUP_CASES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
    ("BC", 2), ("BC", 3),
)

# the acceptance family set without F4, whose family alone takes longer
# than a run; F4 is covered by one orbit sum below
FAMILY_CASES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3),
    ("C", 2), ("C", 3),
    ("D", 4), ("G", 2),
    ("BC", 2), ("BC", 3),
)

F4_ORBIT_VECTOR = (1, 2, 4, 8)
F4_ORBIT_DEGREE = 6

SPLITS = ("A2", "B2", "C2", "BC2", "G2", "A3", "B3", "C3")

# surjectivity degree bounds: 12 where the Reynolds check is cheap, 4 on the
# rank-3 splits, whose checks to bound 8 are heavy ops
SURJECTIVITY_CASES = (
    ("toy", 12), ("quartic", 12),
    ("A2", 12), ("B2", 12), ("C2", 12), ("BC2", 12), ("G2", 12),
    ("A3", 4), ("B3", 4), ("C3", 4),
)

# Heavy ops take a second or more each (E6 closure 7 s, the F4 orbit sum
# 4 s).  One of them would outlast the fast moments of a busy host, so they
# stay out of the timed passes and a traced run makes them once after its
# passes, for the per-layer numbers.
HEAVY_GROUPS = (("E", 6),)
HEAVY_FAMILIES = (("D", 4), ("A", 4))
HEAVY_SURJECTIVITY = (("A3", 8), ("B3", 8), ("C3", 8))

UNIT_SYSTEMS = ("toy", "quartic", "A2", "B2", "C2", "BC2", "A3")
SWEEP_SYSTEMS = ("toy", "quartic", "B2", "G2")
SWEEP_LOG10_RANGE = (-3.0, 3.0)
SWEEP_STRATA = 3

# A fiber panel holds rounds of one draw per system (and stratum).  The
# probe rounds are drawn first; a traced run solves them once, after its
# passes.  The timed passes solve the rounds drawn after them.
PANEL_SEED = 0
UNIT_PANEL_ROUNDS = 2
UNIT_PROBE_ROUNDS = 2
SWEEP_PANEL_ROUNDS = 1
SWEEP_PROBE_ROUNDS = 1

CLI_CYCLE = (
    ("roots A2", ["--format", "json", "roots", "A2"]),
    ("roots B2", ["roots", "B2"]),
    ("roots G2", ["--format", "csv", "roots", "G2"]),
    ("invariants B2", ["--format", "json", "invariants", "B2"]),
    ("invariants G2", ["invariants", "G2"]),
    ("invariants BC2", ["--format", "csv", "invariants", "BC2"]),
    ("restrict toy", ["--format", "json", "restrict", "--config", f"{DATA}/toy_pair.cfg"]),
    (
        "restrict toy-2",
        ["restrict", "--config", f"{DATA}/toy_pair.cfg", "--selection", "2"],
    ),
    ("restrict bc2", ["--format", "csv", "restrict", "--config", f"{DATA}/split_bc2.cfg"]),
    (
        "fiber toy",
        ["--format", "json", "fiber", "--config", f"{DATA}/toy_pair.cfg",
         "--zeta", "1", "--target", "5"],
    ),
    (
        "fiber quartic",
        ["fiber", "--config", f"{DATA}/synthetic_quartic.cfg", "--zeta", "1", "--target", "6"],
    ),
    (
        "fiber bc2",
        ["--format", "csv", "fiber", "--config", f"{DATA}/split_bc2.cfg", "--target", "3,5"],
    ),
    ("lambda toy", ["lambda", "--config", f"{DATA}/toy_pair.cfg", "--zeta", "1", "--xi", "2"]),
    ("classify all", ["--format", "json", "classify"]),
    ("classify b-exceptional", ["classify", "--filter", "b-exceptional"]),
    ("classify split", ["--format", "csv", "classify", "--filter", "split"]),
)

# commands whose output is exact, so its bytes are pinned by a digest
CLI_DIGESTED = ("roots", "invariants", "restrict", "classify")
CLI_VERDICTS = {
    "roots B2": "order == product of degrees : PASS",
    "restrict toy-2": "surjectivity fails at degree 2",
    "fiber toy": "count == |W(a_q)|*d : PASS",
    "fiber quartic": "count == |W(a_q)|*d : PASS",
    "fiber bc2": "count == |W(a_q)|*d : PASS",
    "lambda toy": "lambda exists : PASS",
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def family_text(fam) -> str:
    point, value = fam.certificate
    lines = [f"degrees {fam.degrees}"]
    lines += [p.to_text() for p in fam.polys]
    lines.append(f"certificate {tuple(str(c) for c in point)} {value}")
    return "\n".join(lines)


def restriction_text(res) -> str:
    lines = [f"selected {res.selected} d {res.d} t {res.t_vars} x {res.x_vars}"]
    lines += [p.to_text() for p in res.adapted]
    lines += [p.to_text() for p in res.restricted.polys]
    return "\n".join(lines)


def text_digest(text: str) -> str:
    return digest([text])


def _toy_config(cf):
    return cf.load_pair_config(str(ROOT / DATA / "toy_pair.cfg"))


def _split(key: str) -> tuple[str, int]:
    return key[:-1], int(key[-1])


def _restriction_specs(cf):
    """(name, ambient key, config, selection) for every restriction built."""
    toy = _toy_config(cf)
    specs = [("toy", "B2", toy, "first-by-degree"), ("quartic", "B2", toy, (1,))]
    for key in SPLITS:
        specs.append((key, key, cf.split_config(*_split(key)), "first-by-degree"))
    return specs


def _error(exc: Exception) -> str:
    return f"error:{type(exc).__name__}"


def _on_value(check):
    """Apply `check` to a returned value; a raised exception fails the op."""

    def run(out):
        return _error(out) if isinstance(out, Exception) else check(out)

    return run


_returned = _on_value(lambda out: None)


class Workload:
    name = ""
    # what a fresh interpreter imports in each set-up
    cold_import = "import chevfiber"

    def __init__(self, cf, seed: int):
        self.cf = cf
        self.seed = seed

    def probe_ops(self, ctx) -> list[Op]:
        """Extra ops a traced run makes after its passes."""
        return []


# -- exact ------------------------------------------------------------------


class Exact(Workload):
    """The exact acceptance set, in the order its results feed each other.

    A pass keeps what it builds in `ctx["state"]`, where the heavy ops of a
    traced run find the root systems and restrictions they act on.
    """

    name = "exact"

    def setup(self):
        cf = self.cf
        return {
            "orders": {
                f"{t}{n}": math.prod(cf.fundamental_degrees(t, n))
                for t, n in GROUP_CASES + HEAVY_GROUPS
            },
            "jacobian_degrees": {
                f"{t}{n}": sum(m - 1 for m in cf.fundamental_degrees(t, n))
                for t, n in FAMILY_CASES
            },
            "restrictions": _restriction_specs(cf),
            "expected": load_expected(),
            "state": {},
        }

    def input_parts(self, ctx) -> list[str]:
        parts = [f"group {t}{n}" for t, n in GROUP_CASES + HEAVY_GROUPS]
        parts += [f"family {t}{n}" for t, n in FAMILY_CASES]
        parts.append(f"orbit_sum F4 {F4_ORBIT_VECTOR} {F4_ORBIT_DEGREE}")
        parts += [f"restrict {name} {sel}" for name, _, _, sel in ctx["restrictions"]]
        parts += [
            f"surjectivity {name} {bound}"
            for name, bound in SURJECTIVITY_CASES + HEAVY_SURJECTIVITY
        ]
        return parts

    def pass_ops(self, ctx) -> list[Op]:
        ctx["state"] = {}
        light_families = tuple(c for c in FAMILY_CASES if c not in HEAVY_FAMILIES)
        return (
            self._group_ops(ctx, GROUP_CASES)
            + self._family_ops(ctx, light_families)
            + self._restrict_ops(ctx)
            + self._surjectivity_ops(ctx, SURJECTIVITY_CASES)
        )

    def probe_ops(self, ctx) -> list[Op]:
        """The heavy ops, on what the last pass built."""
        return (
            self._group_ops(ctx, HEAVY_GROUPS)
            + self._family_ops(ctx, HEAVY_FAMILIES)
            + [self._orbit_sum_op(ctx)]
            + self._surjectivity_ops(ctx, HEAVY_SURJECTIVITY)
        )

    def _group_ops(self, ctx, cases) -> list[Op]:
        cf, state = self.cf, ctx["state"]
        ops = []
        for t, n in cases:
            key = f"{t}{n}"

            def build(t=t, n=n, key=key):
                state[key] = cf.build_root_system(t, n)
                return state[key]

            def weyl(key=key):
                return len(cf.weyl_group(state[key]))

            @_on_value
            def order_check(out, key=key):
                return None if out == ctx["orders"][key] else "weyl_order"

            ops.append(Op(f"build_root_system {key}", build, _returned))
            ops.append(Op(f"weyl_group {key}", weyl, order_check))
        return ops

    def _family_ops(self, ctx, cases) -> list[Op]:
        cf, state, want = self.cf, ctx["state"], ctx["expected"]
        ops = []
        for t, n in cases:
            key = f"{t}{n}"

            def family(key=key):
                state[f"family {key}"] = cf.invariant_family(state[key])
                return state[f"family {key}"]

            @_on_value
            def family_check(out, key=key):
                ok = text_digest(family_text(out)) == want["families"][key]
                return None if ok else "family_digest"

            def jacobian(key=key):
                fam = state[f"family {key}"]
                return cf.jacobian_det(fam.polys, fam.variables)

            @_on_value
            def jacobian_check(out, key=key):
                if out.homogeneous_degree() != ctx["jacobian_degrees"][key]:
                    return "jacobian_degree_law"
                point, value = state[f"family {key}"].certificate
                if value == 0 or out.eval_exact(point) != value:
                    return "certificate"
                return None

            ops.append(Op(f"invariant_family {key}", family, family_check))
            ops.append(Op(f"jacobian_det {key}", jacobian, jacobian_check))
        return ops

    def _orbit_sum_op(self, ctx) -> Op:
        cf, state, want = self.cf, ctx["state"], ctx["expected"]

        def f4_orbit_sum():
            return cf.orbit_sum_invariant(state["F4"], F4_ORBIT_VECTOR, F4_ORBIT_DEGREE)

        @_on_value
        def f4_check(out):
            if out.homogeneous_degree() != F4_ORBIT_DEGREE:
                return "orbit_sum_degree"
            return None if text_digest(out.to_text()) == want["orbit_sum_F4"] else "orbit_sum_digest"

        return Op("orbit_sum_invariant F4", f4_orbit_sum, f4_check)

    def _restrict_ops(self, ctx) -> list[Op]:
        cf, state, want = self.cf, ctx["state"], ctx["expected"]
        ops = []
        for name, ambient, config, selection in ctx["restrictions"]:

            def restrict(name=name, ambient=ambient, config=config, selection=selection):
                state[f"res {name}"] = cf.restrict_family(
                    state[f"family {ambient}"], config, selection=selection
                )
                return state[f"res {name}"]

            @_on_value
            def restrict_check(out, name=name):
                if out.d != (2 if name == "quartic" else 1):
                    return "rank_d"
                ok = text_digest(restriction_text(out)) == want["restrictions"][name]
                return None if ok else "restriction_digest"

            ops.append(Op(f"restrict_family {name}", restrict, restrict_check))
        return ops

    def _surjectivity_ops(self, ctx, cases) -> list[Op]:
        cf, state = self.cf, ctx["state"]
        ops = []
        for name, bound in cases:

            def surjectivity(name=name, bound=bound):
                return cf.surjectivity_check(
                    state[f"res {name}"].restricted, degree_bound=bound
                )

            @_on_value
            def surjectivity_check(out, name=name):
                # the quartic selection is the one non-surjective restriction
                want_fail = 2 if name == "quartic" else None
                if out.ok != (want_fail is None) or out.failing_degree != want_fail:
                    return "surjectivity_verdict"
                return None

            ops.append(Op(f"surjectivity_check {name}", surjectivity, surjectivity_check))
        return ops


# -- fibers -----------------------------------------------------------------


def _complex_normal(rng, k: int) -> tuple[complex, ...]:
    re = rng.standard_normal(k)
    im = rng.standard_normal(k)
    return tuple(complex(a, b) for a, b in zip(re, im))


class _Fibers(Workload):
    """Pushed-forward fibers: a = U(zeta; x0), so x0 must be in the fiber.

    The panel of draws comes from PANEL_SEED, not from the run's seed: a
    failing A3 or G2 solve costs several seconds, so a run holds only a few
    of them, and panels drawn per seed differ by more than any bound.  The
    run's seed rotates the order in which the panel is solved.

    The probe rounds come first from the generator.  At PANEL_SEED the unit
    probe rounds hold an A3 draw whose solve fails after 10 to 13 s of
    retries: far too long to repeat in every pass, so a traced run solves
    it once, and the failure shows there.
    """

    systems: tuple[str, ...] = ()
    panel_rounds = 0
    probe_rounds = 0

    def scales(self, rng) -> list[float]:
        raise NotImplementedError

    def setup(self):
        cf = self.cf
        families = {}
        restrictions = {}
        specs = {name: spec for name, *spec in _restriction_specs(cf)}
        for name in self.systems:
            ambient, config, selection = specs[name]
            if ambient not in families:
                families[ambient] = cf.invariant_family(cf.build_root_system(*_split(ambient)))
            restrictions[name] = cf.restrict_family(
                families[ambient], config, selection=selection
            )
        rng = np.random.default_rng(PANEL_SEED)
        panel = []
        for _ in range(self.panel_rounds + self.probe_rounds):
            for name in self.systems:
                res = restrictions[name]
                for lam in self.scales(rng):
                    zeta = tuple(lam * z for z in _complex_normal(rng, len(res.t_vars)))
                    x0 = tuple(lam * z for z in _complex_normal(rng, len(res.x_vars)))
                    seed = int(rng.integers(2**31))
                    target = tuple(p.eval(zeta + x0) for p in res.adapted)
                    system = cf.DeformedSystem.from_restriction(res, zeta, target)
                    panel.append((name, lam, zeta, x0, seed, system, system.expected_count()))
        probes = len(panel) * self.probe_rounds // (self.panel_rounds + self.probe_rounds)
        timed = panel[probes:]
        start = self.seed % len(timed)
        return {"panel": timed[start:] + timed[:start], "probes": panel[:probes]}

    def input_parts(self, ctx) -> list[str]:
        parts = []
        for name, lam, zeta, x0, seed, _, _ in ctx["panel"] + ctx["probes"]:
            draws = " ".join(complex_key(z) for z in zeta + x0)
            parts.append(f"{name} {lam.hex()} {seed} {draws}")
        return parts

    def pass_ops(self, ctx) -> list[Op]:
        return self._solve_ops(ctx["panel"])

    def probe_ops(self, ctx) -> list[Op]:
        return self._solve_ops(ctx["probes"])

    def _solve_ops(self, panel) -> list[Op]:
        cf = self.cf
        ops = []
        for name, lam, zeta, x0, seed, system, expected in panel:

            def call(system=system, seed=seed):
                return cf.solve_fiber(system, seed=seed)

            def check(out, x0=x0, lam=lam, expected=expected):
                if isinstance(out, cf.FiberSolveError):
                    return classify_fiber(out, (), expected, x0, lam)
                if isinstance(out, Exception):
                    return _error(out)
                return classify_fiber(None, out.solutions, expected, x0, lam)

            ops.append(Op(f"solve_fiber {name}", call, check))
        return ops


class FiberUnit(_Fibers):
    """Unit scale: zeta and x0 standard complex normal."""

    name = "fiber-unit"
    systems = UNIT_SYSTEMS
    panel_rounds = UNIT_PANEL_ROUNDS
    probe_rounds = UNIT_PROBE_ROUNDS

    def scales(self, rng) -> list[float]:
        return [1.0]


class FiberSweep(_Fibers):
    """Scale sweep: one lambda per decade of log10 lambda, per system."""

    name = "fiber-sweep"
    systems = SWEEP_SYSTEMS
    panel_rounds = SWEEP_PANEL_ROUNDS
    probe_rounds = SWEEP_PROBE_ROUNDS

    def scales(self, rng) -> list[float]:
        lo, hi = SWEEP_LOG10_RANGE
        width = (hi - lo) / SWEEP_STRATA
        return [10.0 ** (lo + width * (j + rng.random())) for j in range(SWEEP_STRATA)]


# -- cli --------------------------------------------------------------------


def cli_kind(label: str) -> str:
    return label.split()[0]


def cli_check(label: str, code: int, stdout: str, expected: dict) -> str | None:
    if code != 0:
        return "exit_code"
    verdict = CLI_VERDICTS.get(label)
    if verdict is not None and verdict not in stdout:
        return "verdict"
    if cli_kind(label) in CLI_DIGESTED and text_digest(stdout) != expected["cli"][label]:
        return "payload_digest"
    return None


class Cli(Workload):
    """Fresh `chevfiber` processes, one at a time, in a fixed cycle.

    The seed picks where in the cycle a run starts.
    """

    name = "cli"
    cold_import = "import chevfiber.cli"

    def setup(self):
        start = self.seed % len(CLI_CYCLE)
        return {
            "cycle": CLI_CYCLE[start:] + CLI_CYCLE[:start],
            "expected": load_expected(),
        }

    def input_parts(self, ctx) -> list[str]:
        return [f"{label} {' '.join(argv)}" for label, argv in ctx["cycle"]]

    def pass_ops(self, ctx) -> list[Op]:
        want = ctx["expected"]
        ops = []
        for label, argv in ctx["cycle"]:

            def cold(argv=argv):
                return run_child(["-m", "chevfiber.cli", *argv])[1]

            @_on_value
            def check(out, label=label):
                return cli_check(label, out.returncode, out.stdout, want)

            ops.append(Op(f"cli {label}", cold, check, in_child=True))
        return ops

    def probe_ops(self, ctx) -> list[Op]:
        """Warm in-process runs, for the cold-minus-warm gap, and two probes
        that split a cold run into interpreter and import start-up."""
        want = ctx["expected"]
        ops = []
        for label, argv in ctx["cycle"]:

            def warm(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = self.cf.cli.main(list(argv))
                return code, buf.getvalue()

            @_on_value
            def warm_check(out, label=label):
                return cli_check(label, out[0], out[1], want)

            ops.append(Op(f"inproc {label}", warm, warm_check))
        for label, code in (("interpreter", "pass"), ("import", "import chevfiber.cli")):

            def probe(code=code):
                return run_child(["-c", code])[1]

            ops.append(Op(f"probe {label}", probe, _on_value(
                lambda out: None if out.returncode == 0 else "exit_code"), in_child=True))
        return ops


WORKLOADS = {"exact": Exact, "fiber-unit": FiberUnit, "fiber-sweep": FiberSweep, "cli": Cli}


def make(name: str, cf, seed: int) -> Workload:
    return WORKLOADS[name](cf, seed)
