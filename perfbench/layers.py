"""Which calls the traced run wraps, and the per-layer metrics made from them."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

# captured operand pairs per payload op: every CAPTURE_STRIDE-th call, at most CAPTURE_CAP
CAPTURE_STRIDE = 7
CAPTURE_CAP = 20000
REPLAY_REPEATS = 5


@dataclass
class Capture:
    """What the wrappers collect besides spans and counts."""

    algebras: list = field(default_factory=list)
    pairs: dict = field(default_factory=lambda: {"add": [], "mul": [], "div": []})


def instrument(tracer, workloads_module) -> Capture:
    """Install every wrapper the per-layer metrics need."""
    import expweyl.cli  # noqa: F401  (loads every module the wrappers patch)
    from expweyl.algebra import Monomial, WeylAlgebra
    from expweyl.scalars import Scalar, _RationalOps, _RatPolyOps

    T = tracer
    cap = Capture()

    def add_count(name, amount):
        T.counts[name] += amount

    # cli, config, expr
    T.patch_everywhere("expweyl.cli", "main", T.span("cli.main"))
    T.patch_everywhere("expweyl.config", "build_algebra", T.span("config.build_algebra", always=True))
    T.patch_everywhere(
        "expweyl.expr", "parse", T.span("expr.parse", before=lambda t, a: add_count("expr.chars", len(a[0])))
    )
    for fmt in ("format_element", "format_gr_element"):
        T.patch_everywhere(
            "expweyl.expr", fmt, T.span("expr.format", after=lambda t, a, r: add_count("expr.chars", len(r)))
        )

    # algebra: products, monomials, derivative caches
    T.patch_method(
        WeylAlgebra,
        "mul",
        T.span(
            "algebra.mul",
            before=lambda t, a: add_count("algebra.mul.terms_in", len(a[1].terms) + len(a[2].terms)),
            after=lambda t, a, r: add_count("algebra.mul.terms_out", len(r.terms)),
        ),
    )
    T.patch_method(Monomial, "__init__", T.counted("algebra.monomials_built"))
    T.patch_method(
        WeylAlgebra, "__init__", T.counted("algebra.algebras_built", before=lambda t, a: cap.algebras.append(a[0]), always=True)
    )

    def diff_lookup(t, a):
        if (a[1], a[2]) in a[0]._diff_cache:
            add_count("algebra.diff.hits", 1)

    def diff_pow_lookup(t, a):
        if any(a[2]):
            add_count("algebra.diff_pow.lookups", 1)
            if (a[1], a[2]) in a[0]._diff_pow_cache:
                add_count("algebra.diff_pow.hits", 1)

    T.patch_method(WeylAlgebra, "_diff_mono", T.counted("algebra.diff.lookups", before=diff_lookup))
    T.patch_method(WeylAlgebra, "_diff_pow_mono", T.timed("algebra.diff_pow", before=diff_pow_lookup))

    # scalars: payload ops (with operand capture for the replay) and series products
    for ops_cls in (_RationalOps, _RatPolyOps):
        for op in ("add", "mul", "div"):
            T.patch_method(ops_cls, op, T.counted(f"scalars.payload_{op}.calls", before=_capturer(cap, op, ops_cls.__dict__[op])))

    def series(t, a):
        if len(a[0].coeffs) > 1:
            add_count("scalars.series_mul.calls", 1)

    T.patch_method(Scalar, ("__mul__", "__rmul__"), T.counted("scalars.scalar_mul.calls", before=series))

    # linear algebra and the downstream modules
    T.patch_everywhere(
        "expweyl.linalg",
        "rref",
        T.span(
            "linalg.rref",
            before=lambda t, a: add_count("linalg.rref.cells", len(a[0]) * (len(a[0][0]) if a[0] else 0)),
            after=lambda t, a, r: add_count("linalg.rref.rank", len(r[1])),
        ),
    )
    for module, attr, name in (
        ("expweyl.homology", "hochschild_b", "homology.hochschild_b"),
        ("expweyl.homology", "window_rank", "homology.window_rank"),
        ("expweyl.lie", "ce_differential", "lie.ce_differential"),
        ("expweyl.lie", "euler_integrate", "lie.euler_integrate"),
        ("expweyl.deformation", "symbol_star", "deformation.symbol_star"),
        ("expweyl.grading", "gr_mul", "grading.gr_mul"),
    ):
        T.patch_everywhere(module, attr, T.span(name))
    # the benchmark's unbounded window rank stands in for homology.window_rank
    T.patch(workloads_module, "window_rank_unbounded",
             T.span("homology.window_rank")(workloads_module.window_rank_unbounded))
    return cap


def _capturer(cap: Capture, op: str, orig):
    pairs = cap.pairs[op]
    name = f"scalars.payload_{op}.calls"

    def hook(t, args):
        if t.counts[name] % CAPTURE_STRIDE == 1 and len(pairs) < CAPTURE_CAP:
            pairs.append((orig, args))

    return hook


def replay_ns(pairs) -> float:
    """Median over repeats of the mean time per call, replaying captured operands."""
    ok = []
    for fn, args in pairs:
        try:
            fn(*args)
        except ArithmeticError:
            continue
        ok.append((fn, args))
    if not ok:
        return 0.0
    clock = time.perf_counter_ns
    runs = []
    for _ in range(REPLAY_REPEATS):
        t0 = clock()
        for fn, args in ok:
            fn(*args)
        runs.append((clock() - t0) / len(ok))
    return statistics.median(runs)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _median_ms(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


# name -> unit, in the order the traced run prints them
PER_LAYER_UNITS = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import.sympy_ms": "ms",
    "cli.main_ms": "ms",
    "cli.main.calls": "count",
    "config.build_algebra_ms": "ms",
    "expr.parse.self_s": "s",
    "expr.format.self_s": "s",
    "expr.chars": "count",
    "algebra.mul.calls": "count",
    "algebra.mul.self_s": "s",
    "algebra.mul.terms_in": "count",
    "algebra.mul.terms_out": "count",
    "algebra.monomials_built": "count",
    "algebra.diff.hit_ratio": "ratio",
    "algebra.diff_pow.lookups": "count",
    "algebra.diff_pow.hit_ratio": "ratio",
    "algebra.diff_pow.self_s": "s",
    "algebra.cache_entries": "count",
    "scalars.payload_add.calls": "count",
    "scalars.payload_mul.calls": "count",
    "scalars.payload_div.calls": "count",
    "scalars.series_mul.calls": "count",
    "scalars.add_ns": "ns",
    "scalars.mul_ns": "ns",
    "scalars.div_ns": "ns",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.rref.rank": "count",
    "homology.hochschild_b.self_s": "s",
    "homology.window_rank.self_s": "s",
    "lie.ce_differential.self_s": "s",
    "lie.euler_integrate.self_s": "s",
    "deformation.symbol_star.self_s": "s",
    "grading.gr_mul.calls": "count",
    "grading.gr_mul.self_s": "s",
    "trace.busy_ratio": "ratio",
    "trace.p50_ratio": "ratio",
}

# the counts that must repeat exactly between two traced passes of one seed
DETERMINISTIC = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"] + [
    "algebra.diff.lookups",
    "algebra.diff.hits",
    "algebra.diff_pow.hits",
    "algebra.algebras_built",
    "scalars.scalar_mul.calls",
]


def counts_of(tracer, cap: Capture) -> dict[str, int]:
    """Every count of a traced pass, including the ones derived from spans."""
    out = dict(tracer.counts)
    for name in ("cli.main", "algebra.mul", "linalg.rref", "grading.gr_mul"):
        out[f"{name}.calls"] = tracer.calls[name]
    unique = {id(a): a for a in cap.algebras}.values()
    out["algebra.cache_entries"] = sum(len(a._diff_cache) + len(a._diff_pow_cache) for a in unique)
    return {name: out.get(name, 0) for name in DETERMINISTIC}


def layer_metrics(tracer, cap: Capture, probes: dict, counts: dict, overhead: dict) -> dict[str, float]:
    """Every metric of PER_LAYER_UNITS from one traced pass."""
    self_s = {name: ns / 1e9 for name, ns in tracer.self_ns.items()}
    values = {
        "cli.interpreter_ms": probes["interpreter_ms"],
        "cli.import_ms": probes["import_ms"],
        "cli.import.sympy_ms": probes["sympy_ms"],
        "cli.main_ms": _median_ms(tracer.durations_ns("cli.main")),
        "config.build_algebra_ms": _median_ms(tracer.durations_ns("config.build_algebra")),
        "algebra.diff.hit_ratio": _ratio(counts["algebra.diff.hits"], counts["algebra.diff.lookups"]),
        "algebra.diff_pow.hit_ratio": _ratio(counts["algebra.diff_pow.hits"], counts["algebra.diff_pow.lookups"]),
        "scalars.add_ns": replay_ns(cap.pairs["add"]),
        "scalars.mul_ns": replay_ns(cap.pairs["mul"]),
        "scalars.div_ns": replay_ns(cap.pairs["div"]),
        "trace.busy_ratio": overhead["busy_ratio"],
        "trace.p50_ratio": overhead["p50_ratio"],
    }
    for name, unit in PER_LAYER_UNITS.items():
        if name in values:
            continue
        if unit == "count":
            values[name] = counts[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
    return {name: values[name] for name in PER_LAYER_UNITS}


# ``python -X importtime`` line: "import time: self | cumulative | name"
def sympy_import_us(importtime_stderr: str) -> int:
    for line in importtime_stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "sympy":
            return int(parts[1])
    raise ValueError("no top-level sympy line in the -X importtime output")
