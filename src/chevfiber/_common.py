"""The fiber error classes, which `cli.main` maps to exit 3, and the JSON
every payload is printed in: shared by `fiber` and `cli`, and free of numpy,
so a command that does only exact work never loads it.
"""


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
