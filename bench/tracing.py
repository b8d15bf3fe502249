"""Spans around calls into the package's public functions.

The tracer wraps every public function of `chevfiber` (the names in
`chevfiber.__all__` plus `cli.main`) in each package module that refers to
it, so a call from one layer into another, or from a layer into its own
public functions, becomes a child span.  The package itself is not edited;
`uninstall` puts the original functions back.

Spans stay in memory and are written out once, when the run ends.  The
tracer times its own bookkeeping, so a traced run can report how much of
its wall time the tracing itself took.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# the modules that are the package's layers, in pipeline order
LAYERS = ("_linalg", "polyring", "rootsys", "restrict", "fiber", "pairdb", "cli")


def _system_tag(rs) -> str:
    return f"{rs.type_name}{rs.rank}"


def _surjectivity_tag(family, little=None, degree_bound=12):
    rs = little or family.group
    return _system_tag(rs) if rs is not None else "?"


# functions whose spans carry the root system they act on
_TAGS = {
    "build_root_system": lambda t, n: f"{t}{n}",
    "weyl_group": lambda rs, *a, **k: _system_tag(rs),
    "invariant_family": lambda rs, *a, **k: _system_tag(rs),
    "orbit_sum_invariant": lambda rs, *a, **k: _system_tag(rs),
    "surjectivity_check": _surjectivity_tag,
}


def _count_solve(result, counts):
    counts["fiber.paths_tracked"] += result.path_stats["tracked"]
    counts["fiber.paths_merged"] += result.path_stats["merged"]
    counts["fiber.paths_lost_accepted"] += result.path_stats["failed"]


# work counts read off each return value, at the same boundary as the span
_COUNTS = {
    "weyl_group": lambda g, c: c.update({"rootsys.weyl_elements": len(g)}),
    "invariant_family": lambda fam, c: c.update(
        {"rootsys.family_terms": sum(len(p.terms) for p in fam.polys)}
    ),
    "surjectivity_check": lambda rep, c: c.update(
        {
            "restrict.surjectivity.degrees_checked": rep.failing_degree
            if rep.failing_degree is not None
            else rep.degree_bound
        }
    ),
    "solve_fiber": _count_solve,
}


class Span:
    __slots__ = ("id", "name", "layer", "tag", "parent", "op", "start", "end", "error")

    def __init__(self, sid, name, layer, tag, parent, op):
        self.id = sid
        self.name = name
        self.layer = layer
        self.tag = tag
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "tag": self.tag,
            "parent": self.parent,
            "op": self.op,
            "start": self.start - origin,
            "end": self.end - origin,
            "error": self.error,
        }


class Tracer:
    """Records spans; `op` is the id of the benchmark op now running.

    While `enabled` is false the wrapped functions run untraced.  Counts are
    kept per op, so a run can give them per pass.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int | None, Counter] = {}
        self.bookkeeping_s = 0.0
        self.op: int | None = None
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark itself ------------------------------

    def open(self, name: str, layer: str, tag: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, tag, parent, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = perf_counter()
        span.error = error
        self._stack.pop()

    # -- spans around the package's public functions -----------------------

    def _wrap(self, fn, name: str, layer: str):
        tag_of = _TAGS.get(name)
        count = _COUNTS.get(name)
        qualname = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            entered = perf_counter()
            span = self.open(qualname, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                self.close(span, span.error)
                if tag_of is not None:
                    span.tag = tag_of(*args, **kwargs)
                if count is not None and not span.error:
                    count(result, self.counts.setdefault(span.op, Counter()))
                self.bookkeeping_s += (span.start - entered) + (perf_counter() - span.end)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap each public function wherever a package module refers to it."""
        public = {}
        entries = [(package, name) for name in package.__all__] + [(package.cli, "main")]
        for owner, name in entries:
            fn = getattr(owner, name)
            if not callable(fn) or isinstance(fn, type):
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            public[id(fn)] = (fn, name, layer)
        wrappers = {key: self._wrap(fn, name, layer) for key, (fn, name, layer) in public.items()}
        modules = [package] + [
            sys.modules[f"{package.__name__}.{layer}"]
            for layer in LAYERS
            if f"{package.__name__}.{layer}" in sys.modules
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and public[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self, weight=lambda span: 1.0) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's,
        times its weight."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        out: Counter = Counter()
        for span in self.spans:
            out[span.layer] += (span.duration - child[span.id]) * weight(span)
        return dict(out)

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(origin)) + "\n")
