"""No unused library surface: every top-level function, class and method of
the package is referenced by name somewhere in the package, the scripts or
the benchmark, so a name that only the tests call cannot grow back.

A top-level function or class is referenced by an ``ast.Name`` or an
``ast.Attribute`` with its name, a method only by an ``ast.Attribute``: a
local variable of the same name does not call it.  Docstrings and
``__all__`` strings do not count, and dunders are skipped.
"""

import ast
from pathlib import Path

from expweyl.selftest import _CHECKS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expweyl"
CALLERS = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]

# qualified name -> why it stays without a non-test caller
ALLOWED = {
    "deformation.gr_partial": "the symbol partial that the sympy symbol oracle checks",
    "_Parser.error": "argparse calls it",
}
# selftest's checks are collected through globals(), never called by name
COLLECTED = {f"selftest.{fn.__name__}" for _, fn in _CHECKS}


def _definitions():
    """(qualified name, bare name, is a method) of every top-level def, class
    and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}", node.name, False
            elif isinstance(node, ast.ClassDef):
                yield f"{module}.{node.name}", node.name, False
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item.name, True


def _references() -> tuple[set[str], set[str]]:
    """The names read as ``ast.Name`` and the names read as ``ast.Attribute``."""
    names, attrs = set(), set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _referenced(name: str, method: bool, names: set[str], attrs: set[str]) -> bool:
    return name in (attrs if method else names | attrs)


def test_every_library_name_has_a_caller_outside_the_tests():
    names, attrs = _references()
    unused = sorted(
        qual
        for qual, name, method in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and not _referenced(name, method, names, attrs)
        and qual not in ALLOWED
        and qual not in COLLECTED
    )
    assert unused == []


def test_every_allowed_name_is_needed():
    # an allowlist entry for a name that has a caller is stale
    names, attrs = _references()
    stale = sorted(
        qual for qual, name, method in _definitions() if qual in ALLOWED and _referenced(name, method, names, attrs)
    )
    assert stale == []


def test_every_allowed_name_exists():
    # an allowlist entry goes with the name it allows
    assert set(ALLOWED) <= {qual for qual, _, _ in _definitions()}
