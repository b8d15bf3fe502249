import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from chevfiber import cli, fiber, polyring, rootsys
from chevfiber.cli import main
from chevfiber.rootsys import build_root_system, invariant_family


def data_path(name):
    return str(resources.files("chevfiber.data").joinpath(name))


ROOT = Path(__file__).resolve().parents[1]
TOY = data_path("toy_pair.cfg")
QUARTIC = data_path("synthetic_quartic.cfg")
SPLIT_BC2 = data_path("split_bc2.cfg")


def test_roots_text_reports_order_check(capsys):
    assert main(["roots", "A2"]) == 0
    out = capsys.readouterr().out
    assert "roots: 6" in out
    assert "degrees: 2 3" in out
    assert "PASS" in out


def test_roots_json_golden(capsys):
    assert main(["--format", "json", "roots", "A2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        '{"seed":0,"system":"A2","roots":6,"order":6,'
        '"degrees":[2,3],"order_check":"PASS"}'
    )


def test_roots_f4_order(capsys):
    assert main(["--format", "json", "roots", "F4"]) == 0
    assert '"order":1152' in capsys.readouterr().out


def test_roots_bad_type_exits_1(capsys):
    assert main(["roots", "Z9"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_invariants_text_lists_degrees(capsys):
    assert main(["invariants", "G2"]) == 0
    out = capsys.readouterr().out
    assert "U[2] =" in out
    assert "U[6] =" in out
    assert "certificate" in out


def test_restrict_toy_first_by_degree(capsys):
    assert main(["restrict", "--config", TOY]) == 0
    out = capsys.readouterr().out
    assert "fiber degree d: 1" in out
    assert "W = 20*x1^2" in out
    assert "surjective up to degree 12 : PASS" in out


def test_restrict_quartic_selection_fails_surjectivity(capsys):
    assert main(["restrict", "--config", TOY, "--selection", "2"]) == 0
    out = capsys.readouterr().out
    assert "fiber degree d: 2" in out
    assert "surjectivity fails at degree 2" in out


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_restrict_degree_bound_below_one_exits_1(capsys, bound):
    # a bound below 1 checks no degree, so it cannot certify surjectivity
    argv = ["restrict", "--config", TOY, "--selection", "2", "--degree-bound", bound]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "degree_bound must be at least 1" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "A2", "--degree-bound", "0"],
        ["--degree-bound", "3", "restrict", "--config", TOY],
        ["fiber", "--config", TOY, "--zeta", "1", "--target", "5", "--degree-bound", "4"],
    ],
    ids=["roots", "before-restrict", "fiber"],
)
def test_degree_bound_belongs_to_restrict_alone(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: --degree-bound")


def test_fiber_toy_example(capsys):
    # the documented toy run: zeta=1, target=5 gives the full two-point fiber
    assert main(["fiber", "--config", TOY, "--zeta", "1", "--target", "5"]) == 0
    out = capsys.readouterr().out
    assert "count == |W(a_q)|*d : PASS (2 == 2)" in out


def test_fiber_synthetic_quartic_example(capsys):
    assert main(["fiber", "--config", QUARTIC, "--zeta", "1", "--target", "6"]) == 0
    out = capsys.readouterr().out
    assert "count == |W(a_q)|*d : PASS (4 == 4)" in out


def test_fiber_json_payload_shape(capsys):
    code = main(
        ["--format", "json", "fiber", "--config", QUARTIC, "--zeta", "1",
         "--target", "6", "--seed", "3"]
    )
    assert code == 0
    payload = capsys.readouterr().out.splitlines()[0]
    doc = json.loads(payload)
    assert doc["seed"] == 3
    assert len(doc["solutions"]) == 4
    assert all(r < 1e-8 for r in doc["residuals"])
    assert doc["path_stats"]["failed"] == 0


def test_fiber_dependent_selection_exits_2(capsys):
    code = main(
        ["fiber", "--config", SPLIT_BC2, "--target", "1,2", "--selection", "1,1"]
    )
    assert code == 2
    assert "dependent" in capsys.readouterr().err


@pytest.mark.parametrize("selection, message", [
    ("3", "selection index out of range"),
    ("1,2", "selection must pick exactly 1 invariants, got 2"),
], ids=["out-of-range", "wrong-size"])
def test_restrict_bad_selection_exits_2(capsys, selection, message):
    assert main(["restrict", "--config", TOY, "--selection", selection]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fiber_json_bytes_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = main(
            ["--format", "json", "--seed", "11", "fiber", "--config", QUARTIC,
             "--zeta", "1", "--target", "6", "--out", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_fiber_declared_d_mismatch_fails_verdict(monkeypatch, capsys):
    # solve_fiber returns complete fibers only, so the count verdict can
    # fail only on an internal inconsistency; a short fiber stands in for one
    solve = fiber.solve_fiber

    def short(*args, **kwargs):
        out = solve(*args, **kwargs)
        return dataclasses.replace(
            out, solutions=out.solutions[:3], residuals=out.residuals[:3], orbit_classes=None
        )

    monkeypatch.setattr(fiber, "solve_fiber", short)
    code = main(["fiber", "--config", QUARTIC, "--zeta", "1", "--target", "6"])
    assert code == 2
    assert "count == |W(a_q)|*d : FAIL (3 != 4)" in capsys.readouterr().out


def test_fiber_wrong_target_arity_exits_1(monkeypatch, capsys):
    # a valid system is square, so the target count is checked against the
    # x count before any family is built; cli imports the function from
    # rootsys when it runs, so the patch goes there
    calls = []
    build = rootsys.invariant_family

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(rootsys, "invariant_family", counted)
    code = main(["fiber", "--config", TOY, "--zeta", "1", "--target", "1,2"])
    assert code == 1
    assert capsys.readouterr().err == "usage error: target needs 1 entries, got 2\n"
    assert calls == []


def test_fiber_without_zeta_names_both_counts(capsys):
    code = main(["fiber", "--config", TOY, "--target", "5"])
    assert code == 1
    assert "zeta has 0 entries, the system has 1 t variables" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fiber", "--config", TOY, "--target", "5"], "zeta has 0 entries, the system has 1"),
        (["lambda", "--config", TOY, "--zeta", "1,2", "--xi", "2"], "zeta has 2 entries"),
        (["lambda", "--config", TOY, "--zeta", "1", "--xi", "1,2"], "xi must have 1 finite"),
        (["lambda", "--config", QUARTIC, "--xi", "2"], "zeta has 0 entries, the system has 1"),
        (["restrict", "--config", TOY, "--selection", "x"], "bad selection 'x'"),
        (["fiber", "--config", TOY, "--zeta", "1", "--target", "1+2"],
         "cannot parse complex number '1+2'"),
        (["fiber", "--config", QUARTIC, "--zeta", "1", "--target", "6", "--selection", "1"],
         f"--selection needs a pair config; {QUARTIC} is a system config"),
        (["lambda", "--config", QUARTIC, "--zeta", "1", "--xi", "2", "--selection", "1"],
         f"--selection needs a pair config; {QUARTIC} is a system config"),
    ],
    ids=["fiber-zeta", "lambda-zeta", "lambda-xi", "system-config", "selection", "target-text",
         "fiber-system-selection", "lambda-system-selection"],
)
def test_point_counts_are_checked_before_the_family(monkeypatch, capsys, argv, message):
    # a pair config gives the t count as ambient rank minus little rank, a
    # system config lists its tvars: no family is built, and no polynomial parsed
    monkeypatch.setattr(rootsys, "invariant_family", None)
    monkeypatch.setattr(polyring, "parse_polynomial", None)
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "A2"],
        ["fiber", "--config", TOY, "--zeta", "1", "--target", "5"],
        ["lambda", "--config", TOY, "--zeta", "1", "--xi", "2"],
    ],
    ids=["roots", "fiber", "lambda"],
)
def test_negative_seed_is_a_usage_error(capsys, argv, before):
    seed = ["--seed", "-1"]
    assert main(seed + argv if before else argv + seed) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --seed must be at least 0, got -1\n"


def test_fiber_missing_config_exits_1(capsys):
    code = main(["fiber", "--config", "/no/such/file.cfg", "--target", "1"])
    assert code == 1


def test_fiber_csv_rows(capsys):
    code = main(
        ["--format", "csv", "fiber", "--config", QUARTIC, "--zeta", "1",
         "--target", "6"]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "," in l]
    assert len(lines) == 1 + 4  # header plus one row per solution


def test_lambda_quartic_has_two_orbit_classes(capsys):
    code = main(["lambda", "--config", QUARTIC, "--zeta", "1", "--xi", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "distinct orbit classes: 2" in out
    assert "lambda exists : PASS" in out


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("command", ["fiber", "lambda"])
def test_tol_is_an_unknown_argument(capsys, command, before):
    # a point is accepted when its residual meets the fixed bound; no tolerance is settable
    point = ["--target", "5"] if command == "fiber" else ["--xi", "2"]
    argv = [command, "--config", TOY, "--zeta", "1", *point]
    argv = ["--tol", "1e-6", *argv] if before else [*argv, "--tol", "1e-6"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "--tol" in captured.err


def test_lambda_wrong_xi_arity_exits_1(capsys):
    assert main(["lambda", "--config", QUARTIC, "--zeta", "1", "--xi", "1,2"]) == 1
    assert capsys.readouterr().err == "error: xi must have 1 finite coordinates\n"


def test_lambda_without_little_group_reports_unknown_classes(tmp_path, capsys):
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text("xvars: x1\npoly: x1^3 - 2\n")
    assert main(["lambda", "--config", str(cfg), "--xi", "2"]) == 0
    out = capsys.readouterr().out
    assert "distinct orbit classes: UNKNOWN (no little group)" in out
    assert "lambda exists : PASS (3 solutions)" in out


def test_fiber_bytes_do_not_depend_on_term_order(tmp_path, capsys):
    # the shipped quartic, its poly written in both orders
    outs = []
    for i, poly in enumerate(("x1^4 + t1^2*x1^2", "t1^2*x1^2 + x1^4")):
        cfg = tmp_path / f"quartic{i}.cfg"
        cfg.write_text(f"tvars: t1\nxvars: x1\npoly: {poly}\nlittle_type: A\nlittle_rank: 1\n")
        argv = ["--config", str(cfg), "--zeta", "0.7+0.3j", "--target", "1.3-0.4j"]
        assert main(["--format", "json", "fiber", *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_decimal_exponent_coefficient_solves(tmp_path, capsys):
    # 1e-3 is 1/1000; its exponent's sign used to split the term, exit 1
    outs = []
    for i, coeff in enumerate(("1e-3", "1/1000")):
        cfg = tmp_path / f"decimal{i}.cfg"
        cfg.write_text(f"tvars: t1\nxvars: x1\npoly: {coeff}*x1^2 + t1*x1\n")
        assert main(["fiber", "--config", str(cfg), "--zeta", "0.5", "--target", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "paths: tracked=2 failed=0 merged=0" in outs[0]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="roots 2 and -5002 differ 2500x in size: the tracker loses the small one to a jump",
)
def test_widely_spread_roots_solve(tmp_path, capsys):
    # 1/10000 x^2 + x/2 = 1 has the roots -2500 +- 50 sqrt(2504)
    cfg = tmp_path / "spread.cfg"
    cfg.write_text("tvars: t1\nxvars: x1\npoly: 1/10000*x1^2 + t1*x1\n")
    argv = ["--format", "json", "fiber", "--config", str(cfg), "--zeta", "0.5", "--target", "1"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[0])
    got = sorted(complex(*x[0]) for x in payload["solutions"])
    want = sorted(-2500 + s * 50 * 2504**0.5 for s in (-1, 1))
    assert all(abs(g - w) <= 1e-9 * abs(w) for g, w in zip(got, want))


def test_long_exact_coefficient_solves(tmp_path, capsys):
    # (10^400 + 1) / 10^400: numerator and denominator are beyond float range
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"xvars: x1\npoly: 1.{'0' * 399}1*x1^2\nlittle_type: A\nlittle_rank: 1\n")
    assert main(["fiber", "--config", str(cfg), "--target", "1"]) == 0
    assert "count == |W(a_q)|*d : PASS (2 == 2)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("xvars: x1\npoly: x1^+2\n", ["--target", "1"], "malformed exponent in term 'x1^'"),
        ("xvars: x1\npoly: 1/0*x1^2\n", ["--target", "1"], "zero denominator in '1/0'"),
        (
            "ambient_type: B\nambient_rank: 2\nlittle_type: A\nlittle_rank: 1\n"
            "embedding: 1/0; 1\n",
            ["--zeta", "1", "--target", "1"],
            "zero denominator in '1/0'",
        ),
        (
            "xvars: x1\npoly: 1e400*x1^2\n",
            ["--target", "1"],
            "equation 1 has a coefficient beyond float range",
        ),
        (
            # read as 0.0 the leading term would vanish, and its root near
            # -1e401 would be reported as a path jump with exit 3
            f"tvars: t1\nxvars: x1\npoly: 0.{'0' * 400}1*x1^2 + x1 + t1\n",
            ["--zeta", "0", "--target", "1"],
            "equation 1 has a coefficient beyond float range",
        ),
    ],
    ids=["exponent", "coefficient", "embedding", "overflow", "underflow"],
)
def test_config_that_is_not_a_system_exits_1_without_traceback(tmp_path, text, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "chevfiber.cli", "fiber", "--config", str(cfg), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {message}\n"


def test_malformed_db_line_reports_its_file_line(tmp_path, capsys):
    # the comment and the blank line still count toward the line number
    db = tmp_path / "pairs.txt"
    good = "e6(-26) | f4 | E6 | A2 | A2 | - | unverified-by-erratum\n"
    db.write_text("# header\n\n" + good + "e6(-14) | f4(-20) | E6\n")
    assert main(["classify", "--db", str(db)]) == 1
    assert "error: line 4: expected 7 fields, got 3" in capsys.readouterr().err


def test_classify_all_has_35_records(capsys):
    assert main(["classify"]) == 0
    assert "records: 35" in capsys.readouterr().out


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_classify_filters(capsys):
    assert main(["--format", "csv", "classify", "--filter", "b-exceptional"]) == 0
    assert len(csv_rows(capsys.readouterr().out)) == 10

    assert main(["--format", "csv", "classify", "--filter", "split"]) == 0
    assert len(csv_rows(capsys.readouterr().out)) == 17

    # every row of a table that passes verify_database is exceptional, so a
    # filter on that flag would print the `all` rows
    assert main(["classify", "--filter", "exceptional"]) == 1
    assert "invalid choice: 'exceptional'" in capsys.readouterr().err


def test_classify_split_rows_never_b_exceptional(capsys):
    assert main(["--format", "csv", "classify", "--filter", "split"]) == 0
    for row in csv_rows(capsys.readouterr().out):
        assert row["split"] == "yes"
        assert row["b_exceptional"] == "no"


def test_classify_json_parses(capsys):
    assert main(["--format", "json", "classify", "--filter", "b-exceptional"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 10
    assert all(r["b_exceptional"] is True for r in doc["rows"])


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("xvars: x1\npoly: x1^2\nbogus: 1\n")
    assert main(["fiber", "--config", str(cfg), "--target", "1"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_out_writes_payload_to_file(tmp_path, capsys):
    out = tmp_path / "roots.json"
    code = main(["--format", "json", "roots", "B2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["order"] == 8


def test_zero_poly_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("xvars: x1\npoly: 0\nlittle_type: A\nlittle_rank: 1\n")
    assert main(["fiber", "--config", str(cfg), "--target", "1"]) == 1
    assert "equation 1 is the zero polynomial" in capsys.readouterr().err


def test_zero_d_config_exits_1(tmp_path, capsys):
    # d is derived from the degrees; a config cannot declare it
    cfg = tmp_path / "d0.cfg"
    cfg.write_text("xvars: x1\npoly: x1^2\nlittle_type: A\nlittle_rank: 1\nd: 0\n")
    assert main(["fiber", "--config", str(cfg), "--target", "1"]) == 1
    assert "line 5: unknown config key 'd'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, point, rank",
    [
        ("xvars: x1 x2\npoly: x1^2\npoly: x2^2\nlittle_type: A\nlittle_rank: 1\n", "1,2", 1),
        ("xvars: x1\npoly: x1^2\nlittle_type: B\nlittle_rank: 2\n", "1", 2),
    ],
    ids=["A1-on-two-x", "B2-on-one-x"],
)
def test_little_rank_mismatch_config_exits_1(tmp_path, monkeypatch, capsys, text, point, rank):
    cfg = tmp_path / "rank.cfg"
    cfg.write_text(text)
    monkeypatch.setattr(fiber, "solve_fiber", None)  # rejected before any tracking
    assert main(["fiber", "--config", str(cfg), "--target", point]) == 1
    assert f"little rank {rank} does not match" in capsys.readouterr().err


def test_degrees_not_a_multiple_of_the_group_order_exit_1(tmp_path, monkeypatch, capsys):
    # a system config has no pair, so the message names its degrees and little group
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text("xvars: x1\npoly: x1^3\nlittle_type: A\nlittle_rank: 1\n")
    monkeypatch.setattr(fiber, "solve_fiber", None)  # rejected before any tracking
    assert main(["fiber", "--config", str(cfg), "--target", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: x degrees 3 multiply to 3, which |W(A1)| = 2 does not divide\n"


def test_no_x_term_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "const.cfg"
    cfg.write_text("tvars: t1\nxvars: x1\npoly: t1^2\nlittle_type: A\nlittle_rank: 1\n")
    assert main(["fiber", "--config", str(cfg), "--zeta", "1", "--target", "1"]) == 1
    assert "equation 1 has no x term" in capsys.readouterr().err


@pytest.mark.parametrize(
    "point",
    [
        ["fiber", "--zeta", "1", "--target", "nan"],
        ["fiber", "--zeta", "1", "--target", "inf"],
        ["fiber", "--zeta", "nan", "--target", "5"],
        ["lambda", "--zeta", "1", "--xi", "nan"],
    ],
)
def test_non_finite_point_exits_1(capsys, point):
    # a usage error, not a numerical failure after retries (exit 3); xi is
    # checked by the point rule of fiber._points
    assert main([point[0], "--config", TOY, *point[1:]]) == 1
    message = "xi must have 1 finite coordinates" if "--xi" in point else "entries must be finite"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, point",
    [
        ("xvars: x1 x1\npoly: x1^2\npoly: x1^2\n", ["--target", "1,1"]),
        (
            "tvars: x1\nxvars: x1\npoly: x1^2\nlittle_type: A\nlittle_rank: 1\n",
            ["--zeta", "1", "--target", "1"],
        ),
    ],
)
def test_repeated_variable_config_exits_1(tmp_path, capsys, text, point):
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(text)
    assert main(["fiber", "--config", str(cfg), *point]) == 1
    assert "variable 'x1' is named more than once" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "A2"],
        ["invariants", "A2"],
        ["restrict", "--config", TOY],
        ["fiber", "--config", QUARTIC, "--zeta", "1", "--target", "6"],
        ["lambda", "--config", QUARTIC, "--zeta", "1", "--xi", "2"],
        ["classify"],
    ],
)
def test_json_output_parses(capsys, argv):
    assert main(["--format", "json", *argv]) == 0
    # fiber and lambda print their verdict lines after the payload
    payload = capsys.readouterr().out.splitlines()[0]
    assert json.loads(payload)["seed"] == 0


def test_config_name_round_trips_through_json(tmp_path, capsys):
    name = 'toy\tpair "quoted" back\\slash'
    cfg = tmp_path / "named.cfg"
    cfg.write_text(
        f"name: {name}\nambient_type: B\nambient_rank: 2\n"
        "little_type: A\nlittle_rank: 1\nembedding: 0; 1\n"
    )
    assert main(["--format", "json", "restrict", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == name


def test_restrict_on_a_system_config_exits_1(capsys):
    assert main(["restrict", "--config", QUARTIC]) == 1
    err = capsys.readouterr().err
    assert "system config" in err
    assert "restrict needs a pair config" in err
    assert "unknown config key" not in err


def test_system_config_without_poly_is_named(tmp_path, capsys):
    # tvars and xvars mark a system config even with no poly line
    cfg = tmp_path / "nopoly.cfg"
    cfg.write_text("tvars: t1\nxvars: x1\n")
    assert main(["fiber", "--config", str(cfg), "--zeta", "1", "--target", "1"]) == 1
    assert capsys.readouterr().err == "error: missing config key 'poly'\n"
    assert main(["restrict", "--config", str(cfg)]) == 1
    assert "system config; restrict needs a pair config" in capsys.readouterr().err


def test_invariants_f4_prints_the_family(capsys):
    assert main(["invariants", "F4"]) == 0
    out = capsys.readouterr().out.splitlines()
    fam = invariant_family(build_root_system("F", 4))
    assert out[2:6] == [
        f"U[{d}] = {p.to_text()}" for d, p in zip(fam.degrees, fam.polys)
    ]
    assert fam.degrees == (2, 6, 8, 12)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The exact stdout of every format: short payloads as literals, long ones
# as sha256 digests of the text.
PINNED_OUTPUT = [
    (["roots", "B2"], "text",
     "seed: 0\nsystem: B2\nroots: 8\npositive roots: 4\nweyl order: 8\n"
     "degrees: 2 4\norder == product of degrees : PASS\n"),
    (["roots", "B2"], "json",
     '{"seed":0,"system":"B2","roots":8,"order":8,"degrees":[2,4],'
     '"order_check":"PASS"}\n'),
    (["roots", "B2"], "csv",
     "seed,system,roots,order,degrees,order_check\n0,B2,8,8,2 4,PASS\n"),
    (["invariants", "G2"], "text",
     "e33c6f775540b5fd5fafc9bfb9023c488d6ba5a49163100090e3a66304cac216"),
    (["invariants", "G2"], "json",
     "b0ca37919c4c8bb1e42fc46ac203b4c2cc54be85bd53aba40ddc242a46f9d038"),
    (["invariants", "G2"], "csv",
     "fbe1349fe120a306e9d534cc12f6d7e4b374b2a64b6597c96759a454e479e818"),
    (["restrict", "--config", TOY], "text",
     "seed: 0\nconfig: toy-axis\nselected invariants (1-based): 1\n"
     "degrees: 2\nfiber degree d: 1\nW = 20*x1^2\n"
     "surjective up to degree 12 : PASS\n"),
    (["restrict", "--config", TOY], "json",
     '{"seed":0,"config":"toy-axis","selected":[1],"degrees":[2],"d":1,'
     '"t_vars":["t1"],"x_vars":["x1"],"restricted":["20*x1^2"],'
     '"adapted":["20*t1^2 + 20*x1^2"],"surjective":true,'
     '"failing_degree":null,"degree_bound":12}\n'),
    (["restrict", "--config", TOY], "csv",
     "seed,config,index,degree,restricted\n0,toy-axis,1,2,20*x1^2\n"),
    (["restrict", "--config", TOY, "--selection", "2"], "text",
     "seed: 0\nconfig: toy-axis\nselected invariants (1-based): 2\n"
     "degrees: 4\nfiber degree d: 2\nW = 68*x1^4\n"
     "surjectivity fails at degree 2\n"),
    (["restrict", "--config", TOY, "--selection", "2"], "json",
     '{"seed":0,"config":"toy-axis","selected":[2],"degrees":[4],"d":2,'
     '"t_vars":["t1"],"x_vars":["x1"],"restricted":["68*x1^4"],'
     '"adapted":["68*t1^4 + 192*t1^2*x1^2 + 68*x1^4"],"surjective":false,'
     '"failing_degree":2,"degree_bound":12}\n'),
    (["restrict", "--config", TOY, "--selection", "2"], "csv",
     "seed,config,index,degree,restricted\n0,toy-axis,2,4,68*x1^4\n"),
    (["classify"], "text",
     "6e64c78621ed5046d4bafe5f9fe1587d44f187e8c81eec856edfe9c78473c9da"),
    (["classify"], "json",
     "cd1531b6327c69a8b6a9871636a1a11aae6510fb08e35f68ea4d4506bb5764ca"),
    (["classify"], "csv",
     "285ef59dbb83f754e27ca69cc9a6aa7e93d24e64c716705a422c00ffe28834fc"),
    # a bound below the failing degree 2 passes; CSV does not print the bound
    (["restrict", "--config", TOY, "--selection", "2", "--degree-bound", "1"], "text",
     "seed: 0\nconfig: toy-axis\nselected invariants (1-based): 2\n"
     "degrees: 4\nfiber degree d: 2\nW = 68*x1^4\n"
     "surjective up to degree 1 : PASS\n"),
    (["restrict", "--config", TOY, "--selection", "2", "--degree-bound", "1"], "json",
     '{"seed":0,"config":"toy-axis","selected":[2],"degrees":[4],"d":2,'
     '"t_vars":["t1"],"x_vars":["x1"],"restricted":["68*x1^4"],'
     '"adapted":["68*t1^4 + 192*t1^2*x1^2 + 68*x1^4"],"surjective":true,'
     '"failing_degree":null,"degree_bound":1}\n'),
    (["restrict", "--config", TOY, "--selection", "2", "--degree-bound", "1"], "csv",
     "seed,config,index,degree,restricted\n0,toy-axis,2,4,68*x1^4\n"),
    (["classify", "--filter", "b-exceptional"], "text",
     "6066ab6e7eae6fd2ea4a95e0953fd050b6f7a97ca617154b5675eb38a7acf673"),
    (["classify", "--filter", "b-exceptional"], "json",
     "91317ec506c4d49296a05277d20bd9f4a8a1b1ec52459934c55f3435965954ca"),
    (["classify", "--filter", "b-exceptional"], "csv",
     "0f3f8974c2f744e9a2cbb5585f28a4d6ec94c87cae1a7659f10040e15c933594"),
    (["classify", "--filter", "split"], "text",
     "59f78082c3f8bc48240804f75e7ebf28e59c148b950593c912403a11a695ba9c"),
    (["classify", "--filter", "split"], "json",
     "c56f5026946b2ebd3bbaea23bc2c420bb573888949169b63589627c59972992a"),
    (["classify", "--filter", "split"], "csv",
     "fef64bac215e9c00d2c0d8db5a158106c8a1997ecfed6785c3c8375336059fab"),
]


@pytest.mark.parametrize("argv, fmt, expected", PINNED_OUTPUT)
def test_output_bytes_are_pinned(capsys, argv, fmt, expected):
    assert main(["--format", fmt, *argv]) == 0
    out = capsys.readouterr().out
    if re.fullmatch(r"[0-9a-f]{64}", expected):
        out = _sha256(out)
    assert out == expected


@pytest.mark.parametrize(
    "argv, verdicts",
    [
        (
            ["fiber", "--config", QUARTIC, "--zeta", "1", "--target", "6"],
            ["count == |W(a_q)|*d : PASS (4 == 4)"],
        ),
        (
            ["lambda", "--config", QUARTIC, "--zeta", "1", "--xi", "2"],
            ["distinct orbit classes: 2", "lambda exists : PASS (4 solutions)"],
        ),
    ],
)
def test_fiber_and_lambda_csv_and_text_layout(capsys, argv, verdicts):
    assert main(["--format", "csv", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = list(csv.reader(lines[:5]))
    assert rows[0] == ["seed", "index", "re1", "im1", "residual"]
    for k, row in enumerate(rows[1:]):
        assert row[:2] == ["0", str(k)]
        assert len(row) == 5
        # every float cell is printed with 17 significant digits
        assert all(cell == "%.17g" % float(cell) for cell in row[2:])
    assert lines[5:] == verdicts

    assert main(["--format", "text", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "paths: tracked=4 failed=0 merged=0"
    assert [line.startswith("x = ") for line in lines[4:8]] == [True] * 4
    assert lines[8] == "orbit classes: 0 3 | 1 2"
    assert lines[9:] == verdicts


def test_readme_lists_the_shared_flags():
    # README's "Shared flags" sentence names exactly the flags that every
    # parser level takes from cli.SHARED_FLAGS, in that order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Shared flags work before or after the subcommand:(.*?)\.\s", readme, re.S)
    assert sentence is not None
    listed = re.findall(r"`(--[a-z-]+)", sentence.group(1))
    assert listed == [flag for flag, _ in cli.SHARED_FLAGS]


# Every option of every parser level must be read: given a value other than
# its default it changes stdout, writes the --out file, or exits 1.  The
# base run of each level has every option at its default; the top level
# ("chevfiber") takes its options before the subcommand, the others after
# their base run, where a repeated option's last value wins.
BASE_ARGV = {
    "chevfiber": ["roots", "A2"],
    "roots": ["roots", "A2"],
    "invariants": ["invariants", "A2"],
    "restrict": ["restrict", "--config", TOY],
    "fiber": ["fiber", "--config", TOY, "--zeta", "1", "--target", "5"],
    "lambda": ["lambda", "--config", TOY, "--zeta", "1", "--xi", "2"],
    "classify": ["classify"],
}

# (level, option) -> (values, effect); an option with choices lists every
# choice but its default, and OUT stands for a file under tmp_path
SHARED_EFFECTS = {
    "--seed": (["1"], "stdout"),
    "--format": (["json", "csv"], "stdout"),
    "--out": (["OUT"], "out"),
}
OPTION_EFFECTS = {
    **{(level, flag): effect for level in BASE_ARGV for flag, effect in SHARED_EFFECTS.items()},
    ("restrict", "--config"): ([SPLIT_BC2], "stdout"),
    ("restrict", "--selection"): (["2"], "stdout"),
    ("restrict", "--degree-bound"): (["4"], "stdout"),
    ("fiber", "--config"): ([QUARTIC], "stdout"),
    ("fiber", "--zeta"): (["2"], "stdout"),
    ("fiber", "--target"): (["6"], "stdout"),
    ("fiber", "--selection"): (["2"], "stdout"),
    ("lambda", "--config"): ([QUARTIC], "stdout"),
    ("lambda", "--zeta"): (["2"], "stdout"),
    ("lambda", "--xi"): (["3"], "stdout"),
    ("lambda", "--selection"): (["2"], "stdout"),
    ("classify", "--db"): (["/no/such/pairs.txt"], "exit 1"),
    ("classify", "--filter"): (["b-exceptional", "split"], "stdout"),
}


def _parser_options():
    """(level, option) -> argparse action for every option but --help."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (level, action.option_strings[-1]): action
        for level, p in {"chevfiber": parser, **sub.choices}.items()
        for action in p._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def test_every_option_has_an_effect_entry():
    options = _parser_options()
    assert sorted(set(options) - set(OPTION_EFFECTS)) == [], "options with no effect entry"
    assert sorted(set(OPTION_EFFECTS) - set(options)) == [], "entries for options that are gone"
    for key, action in options.items():
        if action.choices:
            default = action.default
            if default is argparse.SUPPRESS:
                default = options["chevfiber", key[1]].default
            assert set(OPTION_EFFECTS[key][0]) == set(action.choices) - {default}, key


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "level, option, value, effect",
    [(*key, value, effect) for key, (values, effect) in OPTION_EFFECTS.items() for value in values],
)
def test_every_option_has_its_effect(tmp_path, capsys, level, option, value, effect):
    base = BASE_ARGV[level]
    out_file = tmp_path / "out.txt"
    given = [option, str(out_file) if value == "OUT" else value]
    base_code, base_out = _run(base, capsys)
    assert base_code == 0
    code, out = _run(given + base if level == "chevfiber" else base + given, capsys)
    if effect == "exit 1":
        assert code == 1
        return
    assert code == 0
    if effect == "stdout":
        assert out != base_out
    else:
        # the payload goes to the file; fiber and lambda verdicts stay on stdout
        payload = out_file.read_text(encoding="utf-8")
        assert payload and base_out == payload + out
