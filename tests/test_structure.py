import ast
import dataclasses
import inspect
from collections import defaultdict
from pathlib import Path

import chevfiber


def test_each_module_level_function_is_defined_once():
    # a helper that two modules need lives in one and is imported by the other
    owners = defaultdict(list)
    for path in sorted(Path(chevfiber.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners[node.name].append(path.name)
    assert len(owners) > 50
    duplicated = {name: files for name, files in owners.items() if len(files) > 1}
    assert duplicated == {}


def test_exact_modules_do_not_import_numpy():
    # floats belong to the fiber layer; the exact layers stay in Fractions
    package = Path(chevfiber.__file__).parent
    for name in ("_linalg", "polyring", "rootsys", "restrict", "pairdb"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported, name


def test_fiber_does_not_enumerate_the_weyl_group():
    # orbit classes come from a chamber fold, not from group elements
    path = Path(chevfiber.__file__).parent / "fiber.py"
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert "weyl_group" not in names


def _float_calls(tree):
    calls = {
        getattr(node.func, "id", None) or "." + getattr(node.func, "attr", "")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    return calls & {"float", "complex", ".eval"}


def test_exact_modules_make_no_floats():
    # floats enter through Polynomial.eval and the fiber layer only; these
    # modules neither convert to float or complex nor evaluate numerically,
    # except inside Polynomial.eval itself
    package = Path(chevfiber.__file__).parent
    for name in ("_linalg", "polyring", "rootsys", "restrict", "pairdb"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        if name == "polyring":
            cls = next(n for n in tree.body if getattr(n, "name", None) == "Polynomial")
            evaluate = next(n for n in cls.body if getattr(n, "name", None) == "eval")
            assert _float_calls(evaluate) == {"complex"}
            cls.body.remove(evaluate)
        assert _float_calls(tree) == set(), name


def _uses(path):
    """(module, name) pairs for the functions one file can reach by name.

    `from m import f` and `m.f` count for module m; a bare `f` counts for
    the file's own module unless it sits inside the def of f itself, so a
    function that only calls itself is not used.
    """
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "chevfiber").rsplit(".", 1)[-1]
                yield from ((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                base = node.value
                yield getattr(base, "id", getattr(base, "attr", None)), node.attr
            elif isinstance(node, ast.Name) and node.id != owner:
                yield path.stem, node.id


def test_every_module_function_has_a_caller():
    package = Path(chevfiber.__file__).parent
    used = {("chevfiber", name) for name in chevfiber.__all__}
    root = Path(__file__).resolve().parents[1]
    for folder in ("src", "tests", "bench", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            used.update(_uses(path))
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (path.stem, node.name) not in used
    ]
    assert unused == []


def test_public_options_are_pinned():
    # every defaulted init field of a public dataclass and every optional or
    # **-collecting parameter of a public function; a new option has to be
    # added here on purpose
    fields = [
        f"{name}.{f.name}"
        for name in chevfiber.__all__
        if dataclasses.is_dataclass(getattr(chevfiber, name))
        for f in dataclasses.fields(getattr(chevfiber, name))
        if f.init
        and (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)
    ]
    assert fields == ["DeformedSystem.little", "InvariantFamily.certificate", "PairConfig.name"]
    options = [
        f"{name}.{p.name}"
        for name in chevfiber.__all__
        if inspect.isfunction(getattr(chevfiber, name))
        for p in inspect.signature(getattr(chevfiber, name)).parameters.values()
        if p.default is not p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]
    assert options == [
        "load_database.path",
        "restrict_family.selection",
        "solve_fiber.seed",
        "solve_lambda_xi.seed",
        "surjectivity_check.degree_bound",
    ]
