"""What every entry point shares, free of the exact layers and of numpy.

The error classes `cli.main` maps to exit codes (ConstructionError and the
fiber errors to 3, RestrictionError and IntegrityError to 2), the reader of
`key: value` config lines that `restrict` and `pairdb` both use, the parser
of root system labels like "BC2" that `pairdb` and `cli` both use, and the
JSON every payload is printed in.  The modules that raise an error class
re-export it, so `rootsys.ConstructionError` is this module's class.  Only
this module and `cli` load with `import chevfiber.cli`; each command then
loads the layers it runs.
"""

from __future__ import annotations

import re
from typing import Iterator


class ConstructionError(RuntimeError):
    """Raised when a requested algebraic object cannot be built."""


class RestrictionError(RuntimeError):
    """Raised when a pair configuration does not yield a valid restriction."""


class IntegrityError(RuntimeError):
    """The pair database violates one of its stated invariants."""


class FiberSolveError(RuntimeError):
    """Path tracking could not produce a trustworthy fiber."""


class RamifiedPointError(FiberSolveError):
    """A local inverse was requested at a ramification point."""


class NewtonDivergenceError(FiberSolveError):
    """Newton iteration failed to converge."""


class SingularJacobianError(FiberSolveError):
    """The Jacobian became numerically singular during iteration."""


class InconsistentClusteringError(FiberSolveError):
    """The merge radius does not fit the spacing of the fiber points or their orbits."""


def _config_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line that is not blank once its `#`
    comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_sigma(text: str) -> tuple[str, int]:
    m = re.fullmatch(r"(BC|[A-G])(\d+)", text.strip())
    if not m:
        raise ValueError(f"bad root system label {text!r}")
    return (m.group(1), int(m.group(2)))


def _fmt_float(v: float) -> str:
    return "%.17g" % v


# RFC 8259 section 7: escape the quote, the backslash and U+0000..U+001F
_JSON_ESCAPES = str.maketrans(
    {chr(i): "\\u%04x" % i for i in range(0x20)}
    | {"\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    | {'"': '\\"', "\\": "\\\\"}
)


def _to_json(value) -> str:
    """Canonical single-line JSON for the payloads chevfiber prints.

    Floats take 17 significant digits and a complex number is its [re,im]
    pair, so a payload's bytes depend only on the values.  Dicts keep their
    insertion order; any iterable other than a str or dict is a list.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, complex):
        return _to_json((value.real, value.imag))
    if isinstance(value, str):
        return '"' + value.translate(_JSON_ESCAPES) + '"'
    if isinstance(value, dict):
        return "{" + ",".join(_to_json(k) + ":" + _to_json(v) for k, v in value.items()) + "}"
    return "[" + ",".join(_to_json(v) for v in value) + "]"
