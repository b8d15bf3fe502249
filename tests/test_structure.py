import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import chevfiber

ROOT = Path(__file__).resolve().parents[1]
TOY = ROOT / "src" / "chevfiber" / "data" / "toy_pair.cfg"

# the public names that live in the fiber layer
FIBER_NAMES = (
    "DeformedSystem",
    "FiberResult",
    "FiberSolveError",
    "InconsistentClusteringError",
    "NewtonDivergenceError",
    "RamifiedPointError",
    "SingularJacobianError",
    "is_generic",
    "is_generic_fiber",
    "is_unramified",
    "jacobian_J",
    "local_inverse_psi",
    "orbit_partition",
    "solve_fiber",
    "solve_lambda_xi",
)


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
    for name in ("_common", "_linalg", "polyring", "rootsys", "restrict", "pairdb"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported, name


def _modules_loaded(code, argv=None):
    """The `chevfiber` modules, and numpy if it is one, that a fresh
    interpreter holds after running `code` and then, given argv,
    `cli.main(argv)` with exit 0; fresh, so no earlier import in this test
    run counts."""
    if argv is not None:
        code += (
            "\nimport contextlib, io, chevfiber.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert chevfiber.cli.main({argv!r}) == 0\n"
        )
    code += (
        "\nimport sys\n"
        "print(*(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'chevfiber'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


CLI_MODULES = {"chevfiber", "chevfiber._common", "chevfiber.cli"}


def test_package_import_loads_only_itself():
    # dir() lists every public name before any of them is loaded
    code = "import chevfiber\nassert set(chevfiber.__all__) <= set(dir(chevfiber))"
    assert _modules_loaded(code) == {"chevfiber"}


def test_cli_import_adds_only_cli_and_common():
    assert _modules_loaded("import chevfiber.cli") == CLI_MODULES


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["roots", "A2"], {"_linalg", "polyring", "rootsys"}),
        (["invariants", "B2"], {"_linalg", "polyring", "rootsys"}),
        (["restrict", "--config", str(TOY)], {"_linalg", "polyring", "rootsys", "restrict"}),
        (["classify"], {"pairdb", "data"}),
    ],
    ids=["roots", "invariants", "restrict", "classify"],
)
def test_exact_commands_never_load_numpy(argv, layers):
    # each exact command loads only its own layers: none loads the fiber
    # layer or numpy, classify loads no algebra, and roots and invariants
    # load neither restrict nor pairdb
    loaded = _modules_loaded("", argv)
    assert loaded == CLI_MODULES | {f"chevfiber.{name}" for name in layers}


def test_fiber_command_loads_numpy():
    loaded = _modules_loaded("", ["fiber", "--config", str(TOY), "--zeta", "1", "--target", "5"])
    assert {"chevfiber.fiber", "numpy"} <= loaded


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chevfiber import *", namespace)
    assert set(chevfiber.__all__) <= set(namespace)


def test_fiber_names_are_the_fiber_modules_objects():
    from chevfiber import fiber

    assert set(FIBER_NAMES) <= set(chevfiber.__all__)
    for name in FIBER_NAMES:
        assert getattr(chevfiber, name) is getattr(fiber, name), name
    # the error classes live in _common and the rest in the fiber module,
    # which each one's first access loads
    assert chevfiber.__getattr__("solve_fiber") is fiber.solve_fiber
    assert chevfiber.__getattr__("fiber") is fiber


def test_public_names_are_their_defining_modules_objects():
    # the package resolves each name in the module that defines it, and
    # binds it on first access
    for name in chevfiber.__all__:
        value = getattr(chevfiber, name)
        home = importlib.import_module(f"chevfiber.{chevfiber._HOME[name]}")
        assert getattr(home, name) is value, name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert vars(chevfiber)[name] is value, name
    assert set(dir(chevfiber)) == set(chevfiber.__dir__()) >= set(chevfiber.__all__)


def test_moved_error_classes_are_the_common_ones():
    from chevfiber import _common, pairdb, restrict, rootsys

    assert rootsys.ConstructionError is _common.ConstructionError
    assert restrict.RestrictionError is _common.RestrictionError
    assert pairdb.IntegrityError is _common.IntegrityError
    assert chevfiber.ConstructionError is _common.ConstructionError


def test_root_system_labels_parse_in_common():
    # cli parses "A2" without loading pairdb, and pairdb re-exports the parser
    from chevfiber import _common, pairdb

    assert pairdb.parse_sigma is _common.parse_sigma
    assert _common.parse_sigma(" BC3 ") == ("BC", 3)


def test_fiber_error_hierarchy():
    assert chevfiber.FiberSolveError.__mro__[1] is RuntimeError
    subclasses = (
        chevfiber.InconsistentClusteringError,
        chevfiber.NewtonDivergenceError,
        chevfiber.RamifiedPointError,
        chevfiber.SingularJacobianError,
    )
    for cls in subclasses:
        assert cls.__mro__[1] is chevfiber.FiberSolveError, cls


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        chevfiber.no_such_name


def test_fiber_does_not_enumerate_the_weyl_group():
    # orbit classes come from closures under the simple reflections, not from group elements
    path = Path(chevfiber.__file__).parent / "fiber.py"
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert "weyl_group" not in names


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # a tuning knob is an argument or a module constant, never an
    # environment variable that changes a run without changing its command
    package = Path(chevfiber.__file__).parent
    for path in sorted(package.rglob("*.py")):
        reads = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
                reads.append(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [alias.name for alias in node.names if alias.name in _ENVIRONMENT]
        assert reads == [], path.name


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


def _setattr_owners(tree):
    """(class, method) for each object.__setattr__ call, inner defs named by
    the method that holds them; (None, f) at module level."""

    def walk(node, cls, method):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, cls, method or child.name)
            else:
                func = getattr(child, "func", None)
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and getattr(func.value, "id", None) == "object"
                ):
                    yield cls, method
                yield from walk(child, cls, method)

    return walk(tree, None, None)


def test_records_are_written_only_while_built():
    # a frozen record is completed in its __post_init__ and Polynomial in its
    # two constructors; a fact derived later is a cached_property, or for
    # the slotted Polynomial its hash, kept in a slot on first use
    package = Path(chevfiber.__file__).parent
    owners = {
        (path.stem, cls, method)
        for path in sorted(package.glob("*.py"))
        for cls, method in _setattr_owners(ast.parse(path.read_text(encoding="utf-8")))
    }
    allowed = {
        ("polyring", "Polynomial", "__init__"),
        ("polyring", "Polynomial", "_trusted"),
        ("polyring", "Polynomial", "__hash__"),
    }
    assert {o for o in owners if o[2] != "__post_init__"} <= allowed
    assert allowed <= owners


def _uses(path):
    """(module, name) pairs for the functions one file can reach by name.

    `from m import f` and `m.f` count for module m, and `chevfiber.f` also
    for `__init__`, the package's own module; a bare `f` counts for the
    file's own module unless it sits inside the def of f itself, so a
    function that only calls itself is not used.
    """
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            pairs = ()
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "chevfiber").rsplit(".", 1)[-1]
                pairs = [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute):
                base = node.value
                pairs = [(getattr(base, "id", getattr(base, "attr", None)), node.attr)]
            elif isinstance(node, ast.Name) and node.id != owner:
                pairs = [(path.stem, node.id)]
            for module, name in pairs:
                yield module, name
                if module == "chevfiber":
                    yield "__init__", name


def test_every_module_function_has_a_caller():
    package = Path(chevfiber.__file__).parent
    # a public name is used where the package resolves it: in its defining module
    used = {
        (getattr(chevfiber, name).__module__.rsplit(".", 1)[-1], name)
        for name in chevfiber.__all__
        if callable(getattr(chevfiber, name))
    }
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
