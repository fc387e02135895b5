import ast
import sys
from pathlib import Path

import capforge

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "capforge"}


def test_numpy_is_the_only_runtime_dependency():
    """Every absolute import in the package names the standard library,
    numpy or capforge itself."""
    files = sorted(Path(capforge.__file__).parent.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
