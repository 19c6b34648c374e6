"""The package imports nothing beyond the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stratadyn"


def test_package_imports_only_stdlib():
    assert sorted(SRC.glob("*.py"))
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "stratadyn" and top not in sys.stdlib_module_names:
                    outside.append("%s:%d imports %s" % (path.name, node.lineno, name))
    assert outside == []
