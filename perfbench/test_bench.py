"""Tests of the benchmark itself: its checks catch bad output, its counts repeat.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _first(wl, kind=None):
    while True:
        req = wl.next_request()
        if kind is None or req.kind == kind:
            return req


@pytest.fixture(scope="module")
def assoc():
    wl = workloads.AssocFuzz(0)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def derived():
    wl = workloads.DerivedReports(0)
    wl.setup()
    return wl


def test_tail_uses_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 41))) == (75.0, 30.0, 10)
    assert run.tail(list(range(1, 1001)))[0] == 99.0
    assert run.tail(list(range(1, 21))) == (50.0, 10.0, 10)
    assert run.tail([5] * 3) == (100.0, 5.0, 0)


def test_assoc_check_accepts_a_right_output_and_rejects_corrupted_ones(assoc):
    req = _first(assoc)
    left, right = assoc.execute(req)
    assert assoc.check(req, (left, right)) is None
    assert assoc.check(req, (left + 1, right)) is not None
    assoc.expected = ["0" * 16] * workloads.DIGEST_PREFIX
    try:
        assert "digest" in assoc.check(req, (left, right))
    finally:
        assoc.expected = None


def test_derived_checks_reject_corrupted_outputs(derived):
    # a round opens with the k=5 rank and one of each small report; the
    # slower k=6 and k=7 ranks share the k=5 check
    reqs = {}
    for _ in range(1 + len(workloads.SMALL_KINDS)):
        req = derived.next_request()
        reqs[req.kind] = req
    assert len(reqs) == 1 + len(workloads.SMALL_KINDS)
    outs = {kind: derived.execute(req) for kind, req in reqs.items()}
    for kind, req in reqs.items():
        assert derived.check(req, outs[kind]) is None, kind

    assert derived.check(reqs["window_rank_k5"], (420, 44)) is not None
    span = outs["commspan_rank2"]
    bad_combo = type(span)(True, tuple(c * 2 for c in span.combination))
    assert derived.check(reqs["commspan_rank2"], bad_combo) is not None
    assert derived.check(reqs["commspan_rank3"], type(span)(False, None)) is not None
    phis = outs["euler_sl2like"]
    two = phis[0].span.field.from_rational(2)
    assert derived.check(reqs["euler_sl2like"], [phis[0].scale(two)] + phis[1:]) is not None
    stars = outs["symbol_star_n4"]
    assert derived.check(reqs["symbol_star_n4"], [stars[0] * 2] + stars[1:]) is not None
    rep = outs["star_assoc_rank2"]
    Report = type(rep)
    for broken in (Report(rep.max_order, rep.triples, 1, 0, None),
                   Report(rep.max_order, rep.triples - 1, None, None, None),
                   Report(rep.max_order - 1, rep.triples, None, None, None)):
        assert derived.check(reqs["star_assoc_rank2"], broken) is not None


def test_star_assoc_check_recomputes_instead_of_trusting_the_report(derived):
    req = _first(derived, "star_assoc_rank2")
    rep = derived.execute(req)
    assert derived.check(req, rep) is None
    # the same "associative" report fails once the products it claims to
    # have checked are not associative: here m2 is replaced by 2 m2
    m1, m2 = derived.cochains
    derived.cochains = [m1, lambda u, v: m2(u, v) * 2]
    try:
        assert "recomputed" in derived.check(req, rep)
    finally:
        derived.cochains = [m1, m2]


def test_a_run_times_the_same_requests_however_fast_the_program_is():
    counts = {name: run.request_count(cls(0), 20) for name, cls in workloads.WORKLOADS.items()}
    assert counts == {"cli_oneshot": 40, "assoc_fuzz": 6000, "derived_reports": 240}
    tails = {name: run.tail(list(range(n)))[:1] for name, n in counts.items()}
    assert tails == {"cli_oneshot": (75.0,), "assoc_fuzz": (99.5,), "derived_reports": (95.0,)}
    assert run.request_count(workloads.DerivedReports(0), 1) == 48


def test_cli_checks_reject_bad_exits_tracebacks_and_changed_bytes():
    wl = workloads.CliOneshot(0)
    wl.in_process = True
    wl.setup()
    req = wl.next_request()
    good = wl.execute(req)
    assert wl.check(req, good) is None
    Result = workloads.CliResult
    assert wl.check(req, Result(1, good.stdout, b"", 0)) is not None
    assert wl.check(req, Result(0, good.stdout, b"Traceback (most recent call last)", 0)) is not None
    assert wl.check(req, Result(0, good.stdout + b"x", b"", 0)) is not None

    # a CLI child that printed other bytes than cli.main fails at finish()
    wl.in_process = False
    wl.outputs[req.extra["slot"]] = good.stdout.replace(b"1", b"2") + b" "
    assert req.index in wl.finish()


def test_serve_counts_raising_and_wrong_requests_as_failed(assoc):
    class Flaky(workloads.AssocFuzz):
        def execute(self, req):
            if req.index == 1:
                raise ZeroDivisionError("boom")
            left, right = super().execute(req)
            return (left + 1, right) if req.index == 2 else (left, right)

    wl = Flaky(3)
    wl.setup()
    loop = run.serve(wl, count=8)
    assert sorted(loop["failures"]) == [1, 2]
    metrics, info = run.end_to_end(loop, 1.0)
    assert metrics["success_rate"] == pytest.approx(6 / 8)
    assert info["error_rate"] == pytest.approx(2 / 8)


def test_times_are_scaled_by_the_reference_slowdown(assoc):
    calls = []

    def reference():
        calls.append(1)
        return 2 * run.REF_LOOP_S

    wl = workloads.AssocFuzz(4)
    wl.setup()
    loop = run.serve(wl, count=8, reference=reference, every=4)
    assert len(calls) == 2
    slow = run.slowdowns(loop["reference_s"], 4, 8, run.REF_LOOP_S)
    assert slow == pytest.approx([2.0] * 8)
    metrics, info = run.end_to_end(loop, 1.0, slow)
    raw = info["unscaled"]
    assert metrics["latency_p50_ms"] == pytest.approx(raw["latency_p50_ms"] / 2)
    assert metrics["latency_tail_ms"] == pytest.approx(raw["latency_tail_ms"] / 2)
    assert metrics["throughput_rps"] == pytest.approx(raw["throughput_rps"] * 2)


def test_each_request_is_scaled_by_the_reference_samples_nearest_to_it():
    # the machine runs at nominal speed for 20 samples, then at half speed
    samples = [1.0] * 20 + [2.0] * 20
    slow = run.slowdowns(samples, 2, 80, 1.0)
    assert slow[:30] == [1.0] * 30
    assert slow[-30:] == [2.0] * 30
    assert run.slowdowns([], 1, 3, 1.0) == [1.0] * 3
    assert run.slowdowns([3.0], 1, 3, 1.5) == [2.0] * 3


def test_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.setitem(run.TRACE_REQUESTS, "assoc_fuzz", 40)
    counts = []
    for _ in range(2):
        tracer, cap, loop = run._traced_pass("assoc_fuzz", 5)
        assert not loop["failures"]
        counts.append(layers.counts_of(tracer, cap))
    assert counts[0] == counts[1]
    assert counts[0]["algebra.mul.calls"] == 4 * 40
    assert counts[0]["scalars.series_mul.calls"] > 0


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "assoc_fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
