"""Static check: every module-level import of an icageo module is used."""
import ast
from pathlib import Path

import pytest

import icageo

MODULES = sorted(p for p in Path(icageo.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports at top level but never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(bound.items()) if name not in used]


def test_unused_import_check_flags_an_unused_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport numpy as np\nfrom os import path, sep\n"
                   "x = np.zeros(2)\ny = path.join('a', 'b')\n")
    assert unused_imports(mod) == ["mod.py:1: math", "mod.py:3: sep"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path) == []
