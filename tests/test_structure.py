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
