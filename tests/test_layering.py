"""Module layering: numpy is the only runtime dependency outside the
standard library, and each module imports only from lower layers."""

import ast
import sys
from pathlib import Path

import multidiac

PACKAGE = Path(multidiac.__file__).parent

# every module of the package, by layer; a module imports only lower ones
LAYERS = {
    "__init__": 0, "errors": 0,
    "numerics": 1, "textproc": 1,
    "audiofe": 2, "metrics": 2, "model": 2,
    "data": 3,
    "training": 4, "inference": 4,
    "cli": 5,
}


def imports(tree):
    """(package-relative module or None, top-level absolute module or None)
    for each module an import names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield None, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield None, node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1, ast.unparse(node)
            if node.module is None:  # from . import numerics as nm
                for alias in node.names:
                    yield alias.name, None
            else:
                yield node.module.split(".")[0], None


def test_modules_import_numpy_and_lower_layers_only():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert modules == sorted(LAYERS)
    edges = []
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for relative, absolute in imports(tree):
            if absolute is not None:
                assert absolute == "numpy" or absolute in sys.stdlib_module_names, \
                    f"{name} imports {absolute}"
            elif LAYERS[relative] >= LAYERS[name]:
                edges.append(f"{name} -> {relative}")
    assert edges == []
