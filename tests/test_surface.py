"""No unused library surface: every top-level function, class and method of
the package is referenced by name somewhere in the package, the scripts or
the benchmark, so a name that only the tests call cannot grow back.

A reference is an ``ast.Name`` or an ``ast.Attribute`` with that name;
docstrings and ``__all__`` strings do not count, and dunders are skipped.
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
    "representation.augment": "its test states act = augmentation of the product (the faithful module)",
    "representation.reduce_to_constant": "its test states simplicity: a polynomial reduces to a constant",
    "PolyDiffOp.word_product": "its test checks Maurer-Cartan for the bracket square 1/2 P o P",
    "deformation.gr_partial": "the symbol partial that the sympy symbol oracle checks",
    "_Sparse.scale": "perfbench/test_bench.py calls Cochain.scale",
}
# selftest's checks are collected through globals(), never called by name
COLLECTED = {f"selftest.{fn.__name__}" for _, fn in _CHECKS}


def _definitions():
    """(qualified name, bare name) of every top-level def, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                yield f"{module}.{node.name}", node.name
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item.name


def _references() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_library_name_has_a_caller_outside_the_tests():
    used = _references()
    unused = sorted(
        qual
        for qual, name in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
        and qual not in ALLOWED
        and qual not in COLLECTED
    )
    assert unused == []


def test_every_allowed_name_exists():
    # an allowlist entry goes with the name it allows
    assert set(ALLOWED) <= dict(_definitions()).keys()
