import ast
import sys
from pathlib import Path
from types import ModuleType

import gbfrft

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layertrace  # noqa: E402

SOURCES = sorted(p for p in Path(gbfrft.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_public_names_resolve_and_none_is_a_module():
    assert gbfrft.__all__
    for name in gbfrft.__all__:
        assert not isinstance(getattr(gbfrft, name), ModuleType), name


def imports(source: str):
    """(name, line, exempt) for each name the module's imports bind; an
    import line marked ``# noqa: F401`` is exempt from the unused check."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno, "# noqa: F401" in lines[node.lineno - 1]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's non-exempt imports that its code never reads."""
    bound = {name: line for name, line, exempt in imports(source) if not exempt}
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        # string annotations name their types too
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def untraced_exempt_imports(module: str, source: str) -> list[str]:
    """Exempt imports of ``module`` that the benchmark's layer tracer does not
    wrap there: an import kept only for the tracer must not outlive it."""
    traced = {(path, attr) for path, attr, _ in layertrace.TARGETS}
    return [f"{name} (line {line})" for name, line, exempt in imports(source)
            if exempt and (module, name) not in traced]


def test_unused_import_is_detected():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nx: 'dumps' = loads\n"
    assert unused_imports(source) == ["os (line 1)"]


def test_no_module_has_an_unused_import():
    assert SOURCES and TESTS
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in SOURCES + TESTS}
    assert not {k: v for k, v in found.items() if v}


def called_names(source: str) -> set[str]:
    """The names of the functions and methods the module's code calls."""
    return {node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}


def test_svd_call_is_detected():
    source = "import numpy as np\nnp.linalg.svd(a)\nc = cond(a)\nsvd = 1\n"
    assert called_names(source) & {"svd", "cond"} == {"svd", "cond"}


def test_no_module_calls_svd_or_cond():
    # a full SVD costs several eigendecompositions; every condition guard in
    # the library inverts the matrix anyway and takes its exact 1-norm condition
    found = {p.name: sorted(called_names(p.read_text()) & {"svd", "cond"})
             for p in Path(gbfrft.__file__).parent.glob("*.py")}
    assert not {k: v for k, v in found.items() if v}


def test_untraced_exempt_import_is_detected():
    source = "from .learn import train, fit  # noqa: F401\nfrom .graphs import Graph\n"
    assert untraced_exempt_imports("gbfrft.deblur", source) == ["fit (line 1)"]


def test_exempt_imports_name_only_what_the_tracer_wraps():
    found = {p.name: untraced_exempt_imports(f"gbfrft.{p.stem}", p.read_text()) for p in SOURCES}
    assert not {k: v for k, v in found.items() if v}


def imported_modules(source: str) -> set[str]:
    """Every module the source imports, anywhere in it (a function-level
    import too), with ``from x import y`` read as both x and x.y."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def signal_imports(source: str) -> list[str]:
    return sorted(m for m in imported_modules(source) if m == "scipy.signal" or m.startswith("scipy.signal."))


def test_scipy_signal_import_is_detected():
    for source in ["import scipy.signal\n", "def f():\n    from scipy.signal import convolve2d\n",
                   "from scipy import signal\n", "import scipy.signal.windows as w\n"]:
        assert signal_imports(source), source
    assert not signal_imports("import scipy.linalg\nfrom scipy.linalg import schur\n")


def test_no_module_imports_scipy_signal():
    # scipy.signal costs about 0.7 s and 45 MB to import; the metrics
    # convolve with separable Gaussian windows in numpy instead
    found = {p.name: signal_imports(p.read_text()) for p in Path(gbfrft.__file__).parent.glob("*.py")}
    assert not {k: v for k, v in found.items() if v}
