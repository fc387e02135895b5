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


# module: the package modules it may import, or (with "not") may not import
LAYERS = {
    "errors": ("only", set()),
    "_words": ("only", set()),
    "fileio": ("only", {"errors"}),
    "pool": ("only", {"errors", "fileio"}),
    "textmetrics": ("only", {"errors", "fileio"}),
    "scoring": ("not", {"curation", "report", "textmetrics"}),
    "poolgen": ("only", {"_words", "errors", "fileio", "pool"}),  # gen knows no curation
    "curation": ("not", {"cli", "poolgen", "report", "textmetrics"}),
    "report": ("not", {"cli"}),
    "cli": ("not", set()),  # the top layer
    "__init__": ("not", {"cli"}),  # so ``python -m capforge.cli`` imports cli once
}


def _relative_imports(path: Path) -> set[str]:
    """The package modules a module imports by relative import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


def test_modules_import_only_the_layers_below_them():
    package = Path(capforge.__file__).parent
    broken = {}
    for module, (rule, names) in LAYERS.items():
        imported = _relative_imports(package / f"{module}.py")
        wrong = imported - names if rule == "only" else imported & names
        if wrong:
            broken[module] = sorted(wrong)
    assert broken == {}


def test_every_module_has_a_layer():
    package = Path(capforge.__file__).parent
    assert sorted(LAYERS) == sorted(path.stem for path in package.glob("*.py"))
