import ast
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
