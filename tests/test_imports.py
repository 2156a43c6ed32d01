"""Every module of the package uses each name it imports.

A name imported and never read is a leftover of a removed route; the
package re-exports its API from ``__init__`` only, so no other module
imports a name just to pass it on.
"""

import ast
from pathlib import Path

import pytest

import sympdefect

PACKAGE = Path(sympdefect.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of `source` that no expression reads.

    A dotted use such as ``np.linalg.det`` reads its root name ``np``.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_a_leftover():
    source = (
        "import numpy as np\n"
        "import os.path\n"
        "from .integrators import one_step, orbit\n"
        "orbit(np.eye(2), os.sep)\n"
    )
    assert unused_imports(source) == ["one_step"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
