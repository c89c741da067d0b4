"""Source hygiene checks that need no linter, only the standard library."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superkdv"


def unused_imports(source):
    """The names a module's imports bind that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_modules_import_only_what_they_use():
    sample = ("import math\nimport os.path\nimport numpy as np\n"
              "from functools import lru_cache, reduce as fold\n"
              "def f(x):\n    return np.sqrt(os.sep + x)\n")
    assert unused_imports(sample) == ["fold", "lru_cache", "math"]
    # __init__.py imports only to re-export the public names
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert {"algebra.py", "symbolic.py", "cli.py"} <= {p.name for p in modules}
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
