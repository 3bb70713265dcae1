"""Source hygiene: every top-level import of a package module is referenced in
that module, every exported name resolves, only scalars.py imports sympy, the
benchmark's import probe can read ``import expweyl.cli``, its traced runs
find the functions they wrap, no exponent sum builds a map iterator, and no
line is over 110 characters."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expweyl"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
    return names


# the package's modules by name, the tests' and scripts' by path from the root
CHECKED = {m: PACKAGE / m for m in MODULES} | {
    p.relative_to(ROOT).as_posix(): p
    for folder in ("tests", "scripts")
    for p in sorted((ROOT / folder).glob("*.py"))
}


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_imports(module):
    tree = ast.parse(CHECKED[module].read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    unused = sorted(set(imported) - _referenced(tree))
    assert not unused, f"{module} imports {unused} without using them"


@pytest.mark.parametrize("module", ["__init__.py"] + MODULES)
def test_every_exported_name_resolves(module):
    """A stale __all__ entry would break only ``from expweyl import *``."""
    name = "expweyl" if module == "__init__.py" else f"expweyl.{module[:-3]}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not resolve"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "scalars.py"])
def test_only_scalars_imports_sympy(module):
    """sympy stays behind the scalar payloads, so it can leave the cold path."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.append(node.module.split(".")[0])
    assert "sympy" not in roots, f"{module} imports sympy"


def test_the_package_root_loads_no_sympy():
    """``python -m expweyl.cli`` imports the package before cli.py's first
    line; only cli.py's own imports may load the scalars and sympy."""
    probe = "import sys, expweyl; print(sorted(m for m in sys.modules if m.startswith(('sympy', 'expweyl'))))"
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert child.stdout == "['expweyl', 'expweyl.errors']\n"


def test_the_benchmark_import_probe_reads_the_cli_import(monkeypatch):
    """The traced benchmark run times the sympy import from ``python -X
    importtime -c "import expweyl.cli"`` through perfbench's own parser; a
    tree whose import output it cannot read fails that run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import expweyl.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert type(layers.sympy_import_us(child.stderr)) is int


def test_the_traced_benchmark_run_finds_the_functions_it_patches(monkeypatch):
    """The traced benchmark run wraps package functions by module and name
    (``perfbench/layers.py``); a tree that renames or inlines one records no
    span for it, or fails the pass, and a ``mul`` that leaves the class dict
    of the payload ops (an alias, say) counts no payload product."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    tracer, _, loop = run._traced_pass("derived_reports", 0)
    assert not loop["failures"]
    recorded = {tracer.names[i] for i in set(tracer.span_name)}
    assert {
        "lie.euler_integrate", "lie.ce_differential", "deformation.symbol_star",
        "homology.hochschild_b", "homology.window_rank", "linalg.rref", "grading.gr_mul",
    } <= recorded
    assert tracer.counts["scalars.payload_mul.calls"] > 0


def test_the_traced_benchmark_run_finds_the_product_kernel(monkeypatch):
    """The traced assoc_fuzz pass times ``_diff_pow_mono`` and counts its
    lookups under the keys of ``_diff_pow_cache``, and records a span per
    ``WeylAlgebra.mul``; a tree that renames either, or changes the cache
    keys, records no lookups, hits or products."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    tracer, _, loop = run._traced_pass("assoc_fuzz", 0)
    assert not loop["failures"]
    assert tracer.counts["algebra.diff_pow.lookups"] > 0
    assert tracer.counts["algebra.diff_pow.hits"] > 0
    assert "algebra.mul" in {tracer.names[i] for i in set(tracer.span_name)}


def _is_map_add_tuple(node) -> bool:
    """Whether node is a call ``tuple(map(add, ...))``, ``add`` by any spelling
    (``add``, ``operator.add``)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple"):
        return False
    inner = node.args[0] if len(node.args) == 1 else None
    if not (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) and inner.func.id == "map"):
        return False
    fn = inner.args[0] if inner.args else None
    return (isinstance(fn, ast.Name) and fn.id == "add") or (isinstance(fn, ast.Attribute) and fn.attr == "add")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "selftest.py"])
def test_exponent_sums_use_the_unrolled_adder(module):
    """Exponent tuples are summed by ``scalars.tuple_adder``, which builds no
    iterator per call; ``tuple(map(add, a, b))`` does, and is kept only in
    selftest.py, whose lattice check states embed's linearity on its own."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    lines = sorted(node.lineno for node in ast.walk(tree) if _is_map_add_tuple(node))
    assert not lines, f"{module} sums tuples with tuple(map(add, ...)) on lines {lines}"


def test_the_map_add_guard_sees_the_form():
    assert _is_map_add_tuple(ast.parse("tuple(map(add, a, b))", mode="eval").body)
    assert _is_map_add_tuple(ast.parse("tuple(map(operator.add, a, b))", mode="eval").body)
    assert not _is_map_add_tuple(ast.parse("tuple(map(sub, a, b))", mode="eval").body)
    assert not _is_map_add_tuple(ast.parse("add(a, b)", mode="eval").body)


MAX_LINE = 110


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_line_is_longer_than_the_limit(module):
    """Line counts measure code removed, not code packed onto fewer lines."""
    lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, start=1) if len(line) > MAX_LINE]
    assert not long, f"{module} has lines over {MAX_LINE} characters: {long}"
