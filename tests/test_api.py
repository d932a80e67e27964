"""The public API holds no function that only unit tests reach."""

import ast
import inspect
from pathlib import Path

import rmtdetect

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(path: Path) -> set:
    """Every name the file calls, and every attribute it reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_outside_the_unit_tests():
    # the package itself (not its re-exports), the benchmark and the
    # acceptance criteria; a def or an import is no reference
    files = [p for p in (ROOT / "src" / "rmtdetect").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "bench").rglob("*.py")
    files.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_referenced_names, files))
    functions = [n for n in rmtdetect.__all__ if inspect.isfunction(getattr(rmtdetect, n))]
    assert len(functions) > 20
    assert [n for n in functions if n not in used] == []


def _package_imports(path: Path) -> set:
    """The package modules the file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level > 0:
                found.add(node.module.split(".")[0])
            elif node.module.split(".")[0] == "rmtdetect":
                found.add(node.module.partition(".")[2] or "rmtdetect")
        elif isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or "rmtdetect" for alias in node.names
                         if alias.name.split(".")[0] == "rmtdetect")
    return found


def test_spectral_imports_only_errors_and_rng_from_the_package():
    # the laws and eigensolvers sit below the random-matrix models in rmm
    assert _package_imports(ROOT / "src" / "rmtdetect" / "spectral.py") <= {"errors", "rng"}


def test_detect_and_cli_leave_the_limiting_laws_to_les():
    # les.theoretical_moments picks each function's law; the callers judge its moments
    for name in ("detect.py", "cli.py"):
        assert "spectral" not in _package_imports(ROOT / "src" / "rmtdetect" / name)


def test_workers_imports_nothing_from_the_package():
    # the worker processes know nothing of windows, spectra or tracks
    assert _package_imports(ROOT / "src" / "rmtdetect" / "workers.py") == set()


def test_only_les_reads_its_private_names():
    readers = []
    for path in (ROOT / "src" / "rmtdetect").glob("*.py"):
        if path.name == "les.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id == "les"):
                readers.append((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module in ("les", "rmtdetect.les"):
                readers += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert readers == []


def test_only_detect_builds_a_function_series_field_by_field():
    # analyze and pca-baseline flag by one rule, FunctionSeries.judged
    builders = []
    for path in (ROOT / "src" / "rmtdetect").glob("*.py"):
        if path.name == "detect.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "FunctionSeries" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                builders.append((path.name, node.lineno))
    assert builders == []
