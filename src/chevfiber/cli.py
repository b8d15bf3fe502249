"""Command line front end.

Subcommands: roots, invariants, restrict, fiber, lambda, classify.  --seed,
--format and --out work before or after the subcommand; restrict alone
reads --degree-bound, and restrict, fiber and lambda read --selection
(1-based indices; pair configs only).  Each command builds its output once,
as a record, a table and a list of lines, and --format picks one: json
prints the record as canonical single-line JSON whose bytes depend only on
the inputs and the seed, csv prints the table, and text (the default)
prints the lines.  A CSV cell is empty for None, yes/no for a bool, and
space-separated for a tuple.  All floats are printed with 17 significant
digits.

Exit codes: 0 success, 1 usage or parse failure, 2 integrity or verdict
failure, 3 numerical failure or exact construction failure
(ConstructionError: a group over the Weyl cap, an orbit count of |W| that
is not the product of the degrees, or no independent invariant with a
nonzero Jacobian certificate).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

# each command imports the layers it runs, so a command loads no layer it
# does not use (classify, for one, loads pairdb alone)
from ._common import (
    ConstructionError,
    FiberSolveError,
    IntegrityError,
    RestrictionError,
    _config_lines,
    _fmt_float,
    _to_json,
    parse_sigma,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return "%s%s%sj" % (_fmt_float(z.real), sign, _fmt_float(abs(z.imag)))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return str(value)


def _emit(args, record: dict, rows, lines) -> None:
    """Write one rendering of a command's output to --out or stdout: the
    record as JSON, the rows as CSV, or the lines as text."""
    if args.format == "json":
        payload = _to_json(record)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(map(_csv_cell, row) for row in rows)
        payload = buf.getvalue().rstrip("\n")
    else:
        payload = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _parse_complex_list(text: str | None) -> tuple[complex, ...]:
    if text is None or text.strip() == "":
        return ()
    out = []
    for tok in text.split(","):
        try:
            out.append(complex(tok.strip()))
        except ValueError:
            raise UsageError(f"cannot parse complex number {tok.strip()!r}")
    return tuple(out)


_SYSTEM_KEYS = {"name", "tvars", "xvars", "poly", "little_type", "little_rank"}


def _check_counts(zeta, target, xi, t_count: int, x_count: int) -> None:
    """fiber and lambda: --zeta needs an entry per t variable, and --target
    and --xi one per x variable, checked before any family is built or
    restricted.  A valid system is square, so its equations number its x
    variables."""
    if len(zeta) != t_count:
        raise ValueError(f"zeta has {len(zeta)} entries, the system has {t_count} t variables")
    if target is not None and len(target) != x_count:
        raise UsageError(f"target needs {x_count} entries, got {len(target)}")
    if xi is not None and len(xi) != x_count:
        raise ValueError(f"xi must have {x_count} finite coordinates")


def _load_config(args, zeta=(), target=None, xi=None):
    """Read --config, a pair config or a system config (one with a `poly`,
    `tvars` or `xvars` key).

    restrict takes a pair config only and gets its Restriction.  fiber and
    lambda get the DeformedSystem of either kind at zeta; target None means
    all zeros.  A system config lists tvars/xvars, repeated poly lines, and
    an optional little group; d is always derived from the degrees.
    --selection (pair configs only) and the zeta, target and xi counts are
    checked before any family is built: a pair config has ambient_rank -
    little_rank t variables and little_rank x variables.
    """
    from .polyring import parse_polynomial
    from .restrict import _read_config, parse_pair_config, restrict_family
    from .rootsys import build_root_system, invariant_family

    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    keys = {line.partition(":")[0].strip() for _, line in _config_lines(text)}
    if keys & {"poly", "tvars", "xvars"}:
        if args.command == "restrict":
            raise UsageError(f"{args.config} is a system config; restrict needs a pair config")
        if args.selection is not None:
            raise UsageError(f"--selection needs a pair config; {args.config} is a system config")
        data = _read_config(text, _SYSTEM_KEYS, repeated=("poly",))
        if "xvars" not in data:
            raise ValueError("missing config key 'xvars'")
        if not data["poly"]:
            raise ValueError("missing config key 'poly'")
        t_vars = tuple(v for v in data.get("tvars", "").replace(",", " ").split() if v)
        x_vars = tuple(v for v in data["xvars"].replace(",", " ").split() if v)
        _check_counts(zeta, target, xi, len(t_vars), len(x_vars))
        polys = tuple(parse_polynomial(p, t_vars + x_vars) for p in data["poly"])
        little = None
        if ("little_type" in data) != ("little_rank" in data):
            raise ValueError("little_type and little_rank must be given together")
        if "little_type" in data:
            little = build_root_system(data["little_type"], int(data["little_rank"]))
    else:
        selection = _selection(args)
        cfg = parse_pair_config(text)
        if args.command != "restrict":
            _check_counts(zeta, target, xi, cfg.ambient_rank - cfg.little_rank, cfg.little_rank)
        fam = invariant_family(build_root_system(cfg.ambient_type, cfg.ambient_rank))
        res = restrict_family(fam, cfg, selection=selection)
        if args.command == "restrict":
            return res
        polys, t_vars, x_vars, little = res.adapted, res.t_vars, res.x_vars, res.restricted.group
    from .fiber import DeformedSystem  # numpy loads here, for fiber and lambda only

    if target is None:
        target = tuple(0j for _ in polys)
    return DeformedSystem(
        polys=polys,
        t_vars=t_vars,
        x_vars=x_vars,
        zeta=zeta,
        target=target,
        little=little,
    )


def _selection(args):
    if args.selection in (None, "first-by-degree"):
        return "first-by-degree"
    try:
        return tuple(int(tok) - 1 for tok in args.selection.split(","))
    except ValueError:
        raise UsageError(f"bad selection {args.selection!r}; use 1-based indices like 1,3")


def _parse_type_token(token: str):
    try:
        return parse_sigma(token)
    except ValueError:
        raise UsageError(
            f"bad root system token {token!r}; expected letter plus rank like A2 or BC3"
        )


# -- commands ----------------------------------------------------------


def cmd_roots(args) -> int:
    from .rootsys import build_root_system, stabilizer_chain_order

    t, n = _parse_type_token(args.system)
    rs = build_root_system(t, n)
    # two derivations of |W|, from the fundamental-weight orbits and from the
    # root heights; a mismatch is a ConstructionError (exit 3)
    order = stabilizer_chain_order(rs)
    if order != rs.order:
        raise ConstructionError(f"the orbit count gives |W| = {order}, the degrees {rs.order}")
    record = {
        "seed": args.seed,
        "system": args.system,
        "roots": len(rs.roots),
        "order": order,
        "degrees": rs.degrees,
        "order_check": "PASS",
    }
    lines = [
        f"seed: {args.seed}",
        f"system: {args.system}",
        f"roots: {record['roots']}",
        f"positive roots: {len(rs.positive_roots())}",
        f"weyl order: {record['order']}",
        f"degrees: {' '.join(str(d) for d in record['degrees'])}",
        "order == product of degrees : PASS",
    ]
    _emit(args, record, [tuple(record), tuple(record.values())], lines)
    return 0


def cmd_invariants(args) -> int:
    from .rootsys import build_root_system, invariant_family

    t, n = _parse_type_token(args.system)
    fam = invariant_family(build_root_system(t, n))
    point, value = fam.certificate
    record = {
        "seed": args.seed,
        "system": args.system,
        "degrees": fam.degrees,
        "polys": [p.to_text() for p in fam.polys],
        "certificate_point": [str(c) for c in point],
        "certificate_value": str(value),
    }
    rows = [("seed", "system", "degree", "poly")]
    lines = [f"seed: {args.seed}", f"system: {args.system}"]
    for d, text in zip(fam.degrees, record["polys"]):
        rows.append((args.seed, args.system, d, text))
        lines.append(f"U[{d}] = {text}")
    lines.append(
        "independence certificate: det J = %s at (%s)"
        % (value, ", ".join(record["certificate_point"]))
    )
    _emit(args, record, rows, lines)
    return 0


def cmd_restrict(args) -> int:
    from .restrict import surjectivity_check

    res = _load_config(args)
    report = surjectivity_check(res.restricted, degree_bound=args.degree_bound)
    name = res.config.name or args.config
    selected = tuple(i + 1 for i in res.selected)
    restricted = [p.to_text() for p in res.restricted.polys]
    record = {
        "seed": args.seed,
        "config": name,
        "selected": selected,
        "degrees": res.restricted.degrees,
        "d": res.d,
        "t_vars": res.t_vars,
        "x_vars": res.x_vars,
        "restricted": restricted,
        "adapted": [p.to_text() for p in res.adapted],
        "surjective": report.ok,
        "failing_degree": report.failing_degree,
        "degree_bound": report.degree_bound,
    }
    rows = [("seed", "config", "index", "degree", "restricted")]
    rows += [
        (args.seed, name, i, d, text)
        for i, d, text in zip(selected, res.restricted.degrees, restricted)
    ]
    lines = [
        f"seed: {args.seed}",
        f"config: {name}",
        f"selected invariants (1-based): {' '.join(str(i) for i in selected)}",
        f"degrees: {' '.join(str(d) for d in res.restricted.degrees)}",
        f"fiber degree d: {res.d}",
    ]
    lines += [f"W = {text}" for text in restricted]
    if report.ok:
        lines.append(f"surjective up to degree {report.degree_bound} : PASS")
    else:
        lines.append(f"surjectivity fails at degree {report.failing_degree}")
    _emit(args, record, rows, lines)
    return 0


def _emit_fiber(args, result) -> None:
    width = len(result.solutions[0]) if result.solutions else 0
    header = ["seed", "index"]
    for i in range(width):
        header += [f"re{i + 1}", f"im{i + 1}"]
    header.append("residual")
    rows = [header]
    lines = [f"seed: {result.seed}"]
    lines.append("zeta: " + (" ".join(_fmt_complex(z) for z in result.zeta) or "-"))
    lines.append("target: " + " ".join(_fmt_complex(z) for z in result.target))
    lines.append(
        "paths: tracked=%(tracked)d failed=%(failed)d merged=%(merged)d" % result.path_stats
    )
    for k, (point, res) in enumerate(zip(result.solutions, result.residuals)):
        cells = [result.seed, k]
        for z in point:
            cells += [z.real, z.imag]
        rows.append(cells + [res])
        coords = "  ".join(_fmt_complex(z) for z in point)
        lines.append(f"x = {coords}   residual {_fmt_float(res)}")
    if result.orbit_classes is not None:
        lines.append(
            "orbit classes: "
            + " | ".join(" ".join(str(i) for i in cls) for cls in result.orbit_classes)
        )
    _emit(args, vars(result), rows, lines)


def cmd_fiber(args) -> int:
    zeta = _parse_complex_list(args.zeta)
    target = _parse_complex_list(args.target)
    system = _load_config(args, zeta, target)
    from .fiber import solve_fiber

    result = solve_fiber(system, seed=args.seed)
    _emit_fiber(args, result)
    expected = system.expected_count()
    if expected is None:
        print("count == |W(a_q)|*d : UNKNOWN (no little group)")
        return 0
    # a returned fiber is complete and d is derived, so FAIL is an internal inconsistency
    if result.count == expected:
        print(f"count == |W(a_q)|*d : PASS ({result.count} == {expected})")
        return 0
    print(f"count == |W(a_q)|*d : FAIL ({result.count} != {expected})")
    return 2


def cmd_lambda(args) -> int:
    zeta = _parse_complex_list(args.zeta)
    xi = _parse_complex_list(args.xi)
    system = _load_config(args, zeta, xi=xi)
    from .fiber import solve_lambda_xi

    result = solve_lambda_xi(system, xi, seed=args.seed)
    _emit_fiber(args, result)
    if result.orbit_classes is None:
        print("distinct orbit classes: UNKNOWN (no little group)")
    else:
        print(f"distinct orbit classes: {len(result.orbit_classes)}")
    # solve_fiber raises FiberSolveError rather than return an empty fiber
    print(f"lambda exists : PASS ({result.count} solutions)")
    return 0


# one text line per record, with the flags as yes, no or ? (undefined)
_CLASSIFY_LINE = (
    "%(name_g)-18s %(name_h)-22s c=%(sigma_c)-4s b=%(sigma_b)-4s aq=%(sigma_aq)-4s"
    " exc=%(exceptional)s bexc=%(b_exceptional)s split=%(split)s %(provenance)s"
)


def _tri(v) -> str:
    if v is None:
        return "?"
    return "yes" if v else "no"


def cmd_classify(args) -> int:
    from .pairdb import (
        b_exceptional_list,
        format_sigma,
        is_b_exceptional,
        is_exceptional,
        is_split,
        load_database,
        verify_database,
    )

    # b_exceptional and split are undefined (None) for a record without sigma_b
    columns = {
        "name_g": lambda rec: rec.name_g,
        "name_h": lambda rec: rec.name_h,
        "sigma_c": lambda rec: format_sigma(rec.sigma_c),
        "sigma_b": lambda rec: format_sigma(rec.sigma_b),
        "sigma_aq": lambda rec: format_sigma(rec.sigma_aq),
        "exceptional": is_exceptional,
        "b_exceptional": lambda rec: None if rec.sigma_b is None else is_b_exceptional(rec),
        "split": lambda rec: None if rec.sigma_b is None else is_split(rec),
        "group_case": lambda rec: rec.is_group_case,
        "provenance": lambda rec: rec.provenance,
        "dual_name": lambda rec: rec.dual_name,
    }
    db = load_database(args.db)
    problems = verify_database(db)
    if problems:
        for p in problems:
            print(f"integrity: {p}", file=sys.stderr)
        return 2
    if args.filter == "all":
        rows = list(db)
    elif args.filter == "b-exceptional":
        rows = b_exceptional_list(db)
    else:
        rows = [r for r in db if r.sigma_b is not None and is_split(r)]
    cells = [{col: get(r) for col, get in columns.items()} for r in rows]
    lines = [f"seed: {args.seed}", f"records: {len(cells)}"]
    for c in cells:
        flags = {k: _tri(c[k]) for k in ("exceptional", "b_exceptional", "split")}
        lines.append(_CLASSIFY_LINE % (c | flags))
    _emit(
        args,
        {"seed": args.seed, "count": len(cells), "rows": cells},
        [("seed", *columns)] + [(args.seed, *c.values()) for c in cells],
        lines,
    )
    return 0


# flags every parser level takes; their defaults apply at the top level only
SHARED_FLAGS = (
    ("--seed", {"type": int, "default": 0}),
    ("--format", {"choices": ("json", "csv", "text"), "default": "text"}),
    ("--out", {"default": None}),
)


def _add_shared(parser: _Parser, top: bool) -> None:
    for flag, options in SHARED_FLAGS:
        default = options["default"] if top else argparse.SUPPRESS
        parser.add_argument(flag, **(options | {"default": default}))


def build_parser() -> _Parser:
    parser = _Parser(prog="chevfiber", description=__doc__)
    _add_shared(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("roots", help="root count, Weyl order, degrees")
    _add_shared(p, top=False)
    p.add_argument("system", help="type plus rank, like A2 or BC3")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("invariants", help="independent invariant family")
    _add_shared(p, top=False)
    p.add_argument("system")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("restrict", help="restrict a family along a pair config")
    _add_shared(p, top=False)
    p.add_argument("--config", required=True)
    p.add_argument("--selection", default=None)
    p.add_argument("--degree-bound", type=int, default=12)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("fiber", help="solve U(zeta; x) = target")
    _add_shared(p, top=False)
    p.add_argument("--config", required=True)
    p.add_argument("--zeta", default=None)
    p.add_argument("--target", required=True)
    p.add_argument("--selection", default=None)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("lambda", help="solve U(0; lambda) = U(zeta; xi)")
    _add_shared(p, top=False)
    p.add_argument("--config", required=True)
    p.add_argument("--zeta", default=None)
    p.add_argument("--xi", required=True)
    p.add_argument("--selection", default=None)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("classify", help="exceptional pair table")
    _add_shared(p, top=False)
    p.add_argument("--db", default=None)
    p.add_argument("--filter", choices=("all", "b-exceptional", "split"), default="all")
    p.set_defaults(func=cmd_classify)
    return parser


def _parse(argv):
    try:
        return build_parser().parse_args(argv)
    except UsageError as exc:
        # an unknown option before the subcommand makes the top level read
        # the token after it as the command; name the option instead
        top = _Parser(add_help=False)
        _add_shared(top, top=True)
        try:
            first = next(iter(top.parse_known_args(argv)[1]), "")
        except UsageError:
            first = ""
        if first.startswith("-") and first not in str(exc):
            raise UsageError(f"unrecognized arguments: {first}")
        raise


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        if args.seed < 0:
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RestrictionError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FiberSolveError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
