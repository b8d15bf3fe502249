"""Command line front end.

Subcommands: roots, invariants, restrict, fiber, lambda, classify.  Output
is text by default; --format json emits canonical single-line JSON whose
bytes depend only on the inputs and the seed, and --format csv emits flat
tables.  All floating point numbers are printed with 17 significant digits.

Exit codes: 0 success, 1 usage or parse failure, 2 integrity or verdict
failure, 3 numerical failure or exact construction failure
(ConstructionError: the Weyl enumeration cap, or no independent invariant
with a nonzero Jacobian certificate).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .fiber import (
    DEFAULT_RESIDUAL_TOL,
    DeformedSystem,
    FiberResult,
    FiberSolveError,
    _fmt_float,
    _to_json,
    solve_fiber,
    solve_lambda_xi,
)
from .pairdb import (
    IntegrityError,
    b_exceptional_list,
    format_sigma,
    is_b_exceptional,
    is_exceptional,
    is_split,
    load_database,
    parse_sigma,
    verify_database,
)
from .polyring import parse_polynomial
from .restrict import (
    RestrictionError,
    _config_lines,
    _read_config,
    parse_pair_config,
    restrict_family,
    surjectivity_check,
)
from .rootsys import (
    ConstructionError,
    build_root_system,
    fundamental_degrees,
    invariant_family,
    weyl_group,
    weyl_order,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return "%s%s%sj" % (_fmt_float(z.real), sign, _fmt_float(abs(z.imag)))


def _csv_payload(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
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


_SYSTEM_KEYS = {"name", "tvars", "xvars", "poly", "little_type", "little_rank", "d"}


def _is_system_config(text: str) -> bool:
    return any(line.startswith("poly") for _, line in _config_lines(text))


def _parse_system_config(text: str):
    """Parse the explicit-system format: tvars/xvars, repeated poly lines,
    and an optional little group."""
    data = _read_config(text, _SYSTEM_KEYS, repeated=("poly",))
    if "xvars" not in data:
        raise ValueError("missing config key 'xvars'")
    if not data["poly"]:
        raise ValueError("missing config key 'poly'")
    t_vars = tuple(v for v in data.get("tvars", "").replace(",", " ").split() if v)
    x_vars = tuple(v for v in data["xvars"].replace(",", " ").split() if v)
    allvars = t_vars + x_vars
    parsed = tuple(parse_polynomial(p, allvars) for p in data["poly"])
    little = None
    if ("little_type" in data) != ("little_rank" in data):
        raise ValueError("little_type and little_rank must be given together")
    if "little_type" in data:
        little = build_root_system(data["little_type"], int(data["little_rank"]))
    d = int(data["d"]) if "d" in data else None
    return parsed, t_vars, x_vars, little, d


def _build_system(args, zeta, target=None) -> DeformedSystem:
    """The system of a config file; target None means all zeros."""
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    if _is_system_config(text):
        polys, t_vars, x_vars, little, d = _parse_system_config(text)
    else:
        cfg = parse_pair_config(text)
        fam = invariant_family(build_root_system(cfg.ambient_type, cfg.ambient_rank))
        res = restrict_family(fam, cfg, selection=_selection(args))
        polys, t_vars, x_vars, little, d = res.adapted, res.t_vars, res.x_vars, res.little, res.d
    if target is None:
        target = tuple(0j for _ in polys)
    elif len(target) != len(polys):
        raise UsageError(
            f"target needs {len(polys)} entries, got {len(target)}"
        )
    return DeformedSystem(
        polys=polys,
        t_vars=t_vars,
        x_vars=x_vars,
        zeta=zeta,
        target=target,
        little=little,
        d=d,
    )


def _selection(args):
    raw = getattr(args, "selection", None)
    if raw is None or raw == "first-by-degree":
        return "first-by-degree"
    try:
        return tuple(int(tok) - 1 for tok in raw.split(","))
    except ValueError:
        raise UsageError(f"bad selection {raw!r}; use 1-based indices like 1,3")


def _parse_type_token(token: str):
    try:
        return parse_sigma(token)
    except ValueError:
        raise UsageError(
            f"bad root system token {token!r}; expected letter plus rank like A2 or BC3"
        )


# -- commands ----------------------------------------------------------


def cmd_roots(args) -> int:
    t, n = _parse_type_token(args.system)
    rs = build_root_system(t, n)
    degrees = fundamental_degrees(t, n)
    group = weyl_group(rs)
    order = len(group)
    check = "PASS" if order == weyl_order(t, n) else "FAIL"
    if args.format == "json":
        payload = _to_json(
            {
                "seed": args.seed,
                "system": args.system,
                "roots": len(rs.roots),
                "order": order,
                "degrees": degrees,
                "order_check": check,
            }
        )
    elif args.format == "csv":
        payload = _csv_payload(
            [
                ("seed", "system", "roots", "order", "degrees", "order_check"),
                (
                    args.seed,
                    args.system,
                    len(rs.roots),
                    order,
                    " ".join(str(d) for d in degrees),
                    check,
                ),
            ]
        )
    else:
        payload = "\n".join(
            [
                f"seed: {args.seed}",
                f"system: {args.system}",
                f"roots: {len(rs.roots)}",
                f"positive roots: {len(rs.positive_roots())}",
                f"weyl order: {order}",
                f"degrees: {' '.join(str(d) for d in degrees)}",
                f"order == product of degrees : {check}",
            ]
        )
    _emit(payload, args.out)
    return 0 if check == "PASS" else 2


def cmd_invariants(args) -> int:
    t, n = _parse_type_token(args.system)
    fam = invariant_family(build_root_system(t, n))
    point, value = fam.certificate
    if args.format == "json":
        payload = _to_json(
            {
                "seed": args.seed,
                "system": args.system,
                "degrees": fam.degrees,
                "polys": [p.to_text() for p in fam.polys],
                "certificate_point": [str(c) for c in point],
                "certificate_value": str(value),
            }
        )
    elif args.format == "csv":
        rows = [("seed", "system", "degree", "poly")]
        for d, p in zip(fam.degrees, fam.polys):
            rows.append((args.seed, args.system, d, p.to_text()))
        payload = _csv_payload(rows)
    else:
        lines = [f"seed: {args.seed}", f"system: {args.system}"]
        for d, p in zip(fam.degrees, fam.polys):
            lines.append(f"U[{d}] = {p.to_text()}")
        lines.append(
            "independence certificate: det J = %s at (%s)"
            % (value, ", ".join(str(c) for c in point))
        )
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 0


def cmd_restrict(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    if _is_system_config(text):
        raise UsageError(f"{args.config} is a system config; restrict needs a pair config")
    cfg = parse_pair_config(text)
    fam = invariant_family(build_root_system(cfg.ambient_type, cfg.ambient_rank))
    res = restrict_family(fam, cfg, selection=_selection(args))
    report = surjectivity_check(res.restricted, degree_bound=args.degree_bound)
    if args.format == "json":
        payload = _to_json(
            {
                "seed": args.seed,
                "config": cfg.name or args.config,
                "selected": [i + 1 for i in res.selected],
                "degrees": res.restricted.degrees,
                "d": res.d,
                "t_vars": res.t_vars,
                "x_vars": res.x_vars,
                "restricted": [p.to_text() for p in res.restricted.polys],
                "adapted": [p.to_text() for p in res.adapted],
                "surjective": report.ok,
                "failing_degree": report.failing_degree,
                "degree_bound": report.degree_bound,
            }
        )
    elif args.format == "csv":
        rows = [("seed", "config", "index", "degree", "restricted")]
        for i, (d, p) in enumerate(zip(res.restricted.degrees, res.restricted.polys)):
            rows.append(
                (args.seed, cfg.name or args.config, res.selected[i] + 1, d, p.to_text())
            )
        payload = _csv_payload(rows)
    else:
        lines = [
            f"seed: {args.seed}",
            f"config: {cfg.name or args.config}",
            f"selected invariants (1-based): {' '.join(str(i + 1) for i in res.selected)}",
            f"degrees: {' '.join(str(d) for d in res.restricted.degrees)}",
            f"fiber degree d: {res.d}",
        ]
        for p in res.restricted.polys:
            lines.append(f"W = {p.to_text()}")
        if report.ok:
            lines.append(f"surjective up to degree {report.degree_bound} : PASS")
        else:
            lines.append(f"surjectivity fails at degree {report.failing_degree}")
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 0


def _fiber_verdict(system: DeformedSystem, result: FiberResult) -> tuple[str, int]:
    expected = system.expected_count()
    if expected is None:
        return "count == |W(a_q)|*d : UNKNOWN (no little group)", 0
    if result.count == expected:
        return f"count == |W(a_q)|*d : PASS ({result.count} == {expected})", 0
    return f"count == |W(a_q)|*d : FAIL ({result.count} != {expected})", 2


def _fiber_payload(result: FiberResult, fmt: str) -> str:
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        width = len(result.solutions[0]) if result.solutions else 0
        header = ["seed", "index"]
        for i in range(width):
            header += [f"re{i + 1}", f"im{i + 1}"]
        header.append("residual")
        rows = [tuple(header)]
        for k, (point, res) in enumerate(zip(result.solutions, result.residuals)):
            cells = [str(result.seed), str(k)]
            for z in point:
                cells += [_fmt_float(z.real), _fmt_float(z.imag)]
            cells.append(_fmt_float(res))
            rows.append(tuple(cells))
        return _csv_payload(rows)
    lines = [f"seed: {result.seed}"]
    lines.append("zeta: " + (" ".join(_fmt_complex(z) for z in result.zeta) or "-"))
    lines.append("target: " + " ".join(_fmt_complex(z) for z in result.target))
    lines.append(
        "paths: tracked=%d failed=%d merged=%d"
        % (
            result.path_stats["tracked"],
            result.path_stats["failed"],
            result.path_stats["merged"],
        )
    )
    for point, res in zip(result.solutions, result.residuals):
        coords = "  ".join(_fmt_complex(z) for z in point)
        lines.append(f"x = {coords}   residual {_fmt_float(res)}")
    if result.orbit_classes is not None:
        lines.append(
            "orbit classes: "
            + " | ".join(" ".join(str(i) for i in cls) for cls in result.orbit_classes)
        )
    return "\n".join(lines)


def cmd_fiber(args) -> int:
    zeta = _parse_complex_list(args.zeta)
    target = _parse_complex_list(args.target)
    system = _build_system(args, zeta, target)
    result = solve_fiber(
        system,
        seed=args.seed,
        residual_tol=args.tol,
    )
    _emit(_fiber_payload(result, args.format), args.out)
    verdict, code = _fiber_verdict(system, result)
    print(verdict)
    return code


def cmd_lambda(args) -> int:
    zeta = _parse_complex_list(args.zeta)
    xi = _parse_complex_list(args.xi)
    system = _build_system(args, zeta)
    if len(xi) != len(system.x_vars):
        raise UsageError(f"xi needs {len(system.x_vars)} entries, got {len(xi)}")
    result = solve_lambda_xi(
        system,
        xi,
        seed=args.seed,
        residual_tol=args.tol,
    )
    _emit(_fiber_payload(result, args.format), args.out)
    classes = len(result.orbit_classes) if result.orbit_classes is not None else 0
    print(f"distinct orbit classes: {classes}")
    if result.count > 0:
        print(f"lambda exists : PASS ({result.count} solutions)")
        return 0
    print("lambda exists : FAIL (empty fiber)")
    return 2


_CLASSIFY_COLUMNS = (
    "name_g",
    "name_h",
    "sigma_c",
    "sigma_b",
    "sigma_aq",
    "exceptional",
    "b_exceptional",
    "split",
    "group_case",
    "provenance",
    "dual_name",
)


def _classify_cells(rec) -> dict[str, object]:
    has_b = rec.sigma_b is not None
    return {
        "name_g": rec.name_g,
        "name_h": rec.name_h,
        "sigma_c": format_sigma(rec.sigma_c),
        "sigma_b": format_sigma(rec.sigma_b),
        "sigma_aq": format_sigma(rec.sigma_aq),
        "exceptional": is_exceptional(rec),
        "b_exceptional": is_b_exceptional(rec) if has_b else None,
        "split": is_split(rec) if has_b else None,
        "group_case": rec.is_group_case,
        "provenance": rec.provenance,
        "dual_name": rec.dual_name,
    }


def _tri(v, unknown="?") -> str:
    if v is None:
        return unknown
    return "yes" if v else "no"


def cmd_classify(args) -> int:
    db = load_database(args.db)
    problems = verify_database(db)
    if problems:
        for p in problems:
            print(f"integrity: {p}", file=sys.stderr)
        return 2
    if args.filter == "all":
        rows = list(db)
    elif args.filter == "exceptional":
        rows = [r for r in db if is_exceptional(r)]
    elif args.filter == "b-exceptional":
        rows = b_exceptional_list(db)
    else:
        rows = [r for r in db if r.sigma_b is not None and is_split(r)]
    cells = [_classify_cells(r) for r in rows]
    if args.format == "json":
        payload = _to_json({"seed": args.seed, "count": len(cells), "rows": cells})
    elif args.format == "csv":
        rows_out = [("seed",) + _CLASSIFY_COLUMNS]
        for c in cells:
            vals = [str(args.seed)]
            for col in _CLASSIFY_COLUMNS:
                v = c[col]
                if v is None:
                    vals.append("")
                elif isinstance(v, bool):
                    vals.append("yes" if v else "no")
                else:
                    vals.append(str(v))
            rows_out.append(tuple(vals))
        payload = _csv_payload(rows_out)
    else:
        lines = [f"seed: {args.seed}", f"records: {len(cells)}"]
        for c in cells:
            lines.append(
                "%-18s %-22s c=%-4s b=%-4s aq=%-4s exc=%s bexc=%s split=%s %s"
                % (
                    c["name_g"],
                    c["name_h"],
                    c["sigma_c"],
                    c["sigma_b"],
                    c["sigma_aq"],
                    _tri(c["exceptional"]),
                    _tri(c["b_exceptional"]),
                    _tri(c["split"]),
                    c["provenance"],
                )
            )
        payload = "\n".join(lines)
    _emit(payload, args.out)
    return 0


def _add_shared(parser: _Parser, top: bool) -> None:
    """Shared flags accepted both before and after the subcommand."""
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--tol", type=float, default=d(DEFAULT_RESIDUAL_TOL))
    parser.add_argument("--degree-bound", type=int, default=d(12))
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default=d("text")
    )
    parser.add_argument("--out", default=d(None))


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
    p.add_argument(
        "--filter",
        choices=("all", "exceptional", "b-exceptional", "split"),
        default="all",
    )
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
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
