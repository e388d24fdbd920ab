import ast
from pathlib import Path
from types import ModuleType

import gbfrft

SOURCES = sorted(p for p in Path(gbfrft.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_public_names_resolve_and_none_is_a_module():
    assert gbfrft.__all__
    for name in gbfrft.__all__:
        assert not isinstance(getattr(gbfrft, name), ModuleType), name


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that its code never reads; an
    import line marked ``# noqa: F401`` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        # string annotations name their types too
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_unused_import_is_detected():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nx: 'dumps' = loads\n"
    assert unused_imports(source) == ["os (line 1)"]


def test_no_module_has_an_unused_import():
    assert SOURCES and TESTS
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in SOURCES + TESTS}
    assert not {k: v for k, v in found.items() if v}
