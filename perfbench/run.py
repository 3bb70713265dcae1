"""expweyl benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli_oneshot, assoc_fuzz, derived_reports, or all (each in turn, in a
child process).  With --trace 0 the run times a fixed, seeded list of
requests, sized by --seconds (about that long at the revision that set the
sizes), and measures the end-to-end metrics; with --trace 1 it measures the
per-layer metrics on a fixed number of requests.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run it from the root of a source checkout;
it builds nothing and writes only under .bench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracer import Tracer
from workloads import OUT, ROOT, SRC, child_env

HERE = Path(__file__).resolve().parent

NAMES = ("cli_oneshot", "assoc_fuzz", "derived_reports")
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# requests per traced pass: fixed, so every count repeats exactly on a rerun
TRACE_REQUESTS = {"cli_oneshot": 64, "assoc_fuzz": 1000, "derived_reports": 48}
PROBE_REPEATS = {"interpreter": 5, "import": 3, "importtime": 3}

# The speed of a shared machine drifts by up to 2x within minutes, in CPU time
# as much as in wall time.  So a timed run also times a fixed reference job
# that does not touch expweyl, between requests, and divides each time by the
# local slowdown: the median of the nearest REF_WINDOW reference samples over
# the reference's nominal.  The times read as if the machine ran the
# reference at its nominal speed.  cli_oneshot and set-up, which start
# processes, use a bare isolated interpreter; the in-process workloads use a
# pure-Python loop.  The nominals are about the references' times on the
# 2-vCPU VM the benchmark was tuned on.
REF_PROCESS_ARGS = ["-I", "-c", "pass"]
REF_PROCESS_S = 0.050
REF_LOOP_STEPS = 200_000
REF_LOOP_S = 0.020
# requests per reference sample in a timed run, and reference samples per set-up probe
REF_EVERY = {"cli_oneshot": 1, "assoc_fuzz": 40, "derived_reports": 4}
REF_PER_SETUP = 4
REF_WINDOW = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


# -- statistics -------------------------------------------------------------------


def tail(latencies_ns: list[int]) -> tuple[float, float, int]:
    """(percentile, value in ns, samples beyond) for the highest percentile on
    the ladder that leaves at least TAIL_MIN_BEYOND samples above it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, -(-n * p // 100))  # nearest rank, ceil(n * p / 100)
        rank = int(rank)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, float(ordered[rank - 1]), n - rank
    return 100.0, float(ordered[-1]), 0


def median_ns_ms(latencies_ns) -> float:
    return statistics.median(latencies_ns) / 1e6


# -- environment --------------------------------------------------------------------


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- probes in fresh processes ----------------------------------------------------------


def setup_time(workload: str, seed: int) -> float:
    """Seconds from process start to 'ready' for a fresh set-up-only process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload} failed in a fresh process: {err.strip()[-300:]}")
    return elapsed


def reference_process() -> float:
    """Seconds for one fresh interpreter that starts and exits at once."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *REF_PROCESS_ARGS], cwd=ROOT, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP_STEPS):
        s += i * i % 7
    return time.perf_counter() - t0


def slowdowns(samples: list[float], every: int, count: int, nominal_s: float) -> list[float]:
    """For each of ``count`` requests, the median of the REF_WINDOW reference
    samples nearest to it over ``nominal_s``; sample j ran before request
    j * every."""
    n = len(samples)
    out = []
    for i in range(count):
        lo = max(0, min(i // every - REF_WINDOW // 2, n - REF_WINDOW))
        window = samples[lo:lo + REF_WINDOW]
        out.append(statistics.median(window) / nominal_s if window else 1.0)
    return out


def _timed_python(args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()[-200:]}")
    return elapsed, proc.stderr


def cli_probes() -> dict:
    """Interpreter start, package import and sympy's share of it, in ms."""
    interp = [_timed_python(["-c", "pass"])[0] for _ in range(PROBE_REPEATS["interpreter"])]
    imports = [_timed_python(["-c", "import expweyl.cli"])[0] for _ in range(PROBE_REPEATS["import"])]
    sympy_us = [
        layers.sympy_import_us(_timed_python(["-X", "importtime", "-c", "import expweyl.cli"])[1])
        for _ in range(PROBE_REPEATS["importtime"])
    ]
    return {
        "interpreter_ms": statistics.median(interp) * 1e3,
        "import_ms": statistics.median(imports) * 1e3,
        "sympy_ms": statistics.median(sympy_us) / 1e3,
    }


# -- the closed loop ---------------------------------------------------------------------


def _exception_line() -> str:
    """The last line of the traceback being handled: type and message."""
    return traceback.format_exc().strip().splitlines()[-1]


def request_count(wl, seconds: float) -> int:
    """Requests a timed run of ``seconds`` sends: whole rounds, in proportion
    to the workload's ``rate``.  It depends on nothing else, so a faster
    program runs the same requests in less time."""
    rounds = max(1, round(wl.rate * seconds / wl.round_size))
    return rounds * wl.round_size


def serve(wl, count: int, *, tracer=None, between=None, reference=None, every: int = 1) -> dict:
    """Send ``count`` requests one after another.  Only ``execute`` is timed.
    ``between`` runs at round boundaries with the number of requests done;
    ``reference`` runs before every ``every``-th request and returns seconds."""
    latencies: list[int] = []
    reference_s: list[float] = []
    failures: dict[int, str] = {}
    cli_rss = 0
    clock = time.perf_counter_ns
    start = time.perf_counter()
    while len(latencies) < count:
        if reference is not None and len(latencies) % every == 0:
            reference_s.append(reference())
        req = wl.next_request()
        token = tracer.begin_request(req.index, req.kind) if tracer is not None else None
        t0 = clock()
        try:
            out = wl.execute(req)
            error = None
        except Exception:  # a failed request is counted, not fatal
            out, error = None, "raised " + _exception_line()
        t1 = clock()
        if tracer is not None:
            tracer.end_request(req.kind, token)
        latencies.append(t1 - t0)
        if error is None:
            try:
                error = wl.check(req, out)
            except Exception:
                error = "check raised " + _exception_line()
        if error is not None:
            failures[req.index] = f"{req.kind}: {error}"
        cli_rss = max(cli_rss, getattr(out, "maxrss_kb", 0))
        done = len(latencies)
        if between is not None and done % wl.round_size == 0 and done < count:
            between(done)
    wall = time.perf_counter() - start
    rss_kb = cli_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for index, reason in wl.finish().items():
        failures.setdefault(index, reason)
    return {
        "latencies": latencies,
        "failures": failures,
        "wall_s": wall,
        "rss_kb": rss_kb,  # the largest CLI child, else this process
        "reference_s": reference_s,
    }


def end_to_end(loop: dict, setup_s: float, slow: list[float] | None = None) -> tuple[dict, dict]:
    """The end-to-end metrics, with each request's time divided by its entry
    in ``slow`` (none by default); ``setup_s`` comes scaled already."""
    raw_lat = loop["latencies"]
    slow = slow or [1.0] * len(raw_lat)
    lat = [t / f for t, f in zip(raw_lat, slow)]
    p, tail_ns, beyond = tail(lat)
    busy_s = sum(lat) / 1e9
    attempted = len(lat)
    failed = len(loop["failures"])
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": median_ns_ms(lat),
        "latency_tail_ms": tail_ns / 1e6,
        "throughput_rps": attempted / busy_s,
        "peak_rss_mb": loop["rss_kb"] / 1024,
        "success_rate": 1 - failed / attempted,
    }
    info = {
        "slowdown": statistics.median(slow),
        "unscaled": {
            "latency_p50_ms": median_ns_ms(raw_lat),
            "latency_tail_ms": tail(raw_lat)[1] / 1e6,
            "throughput_rps": attempted * 1e9 / sum(raw_lat),
        },
        "samples": attempted,
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "busy_s": busy_s,
        "wall_s": loop["wall_s"],
        "error_rate": failed / attempted,
    }
    return metrics, info


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """The timed phase, with SETUP_REPEATS set-up probes spread across it
    (one before, the rest between rounds) so they sample the whole run."""
    wl = workloads.WORKLOADS[name](seed)
    count = request_count(wl, seconds)
    setups: list[float] = []
    setup_slow: list[float] = []

    def probe_setup() -> None:
        setups.append(setup_time(name, seed))
        refs = [reference_process() for _ in range(REF_PER_SETUP)]
        setup_slow.append(statistics.median(refs) / REF_PROCESS_S)

    probe_setup()
    due = [math.ceil(count * k / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)]

    def probe(done: int) -> None:
        if due and done >= due[0]:
            due.pop(0)
            probe_setup()

    if name == "cli_oneshot":
        reference, nominal = reference_process, REF_PROCESS_S
    else:
        reference, nominal = reference_loop, REF_LOOP_S
    every = REF_EVERY[name]
    wl.setup()
    loop = serve(wl, count, between=probe, reference=reference, every=every)
    while len(setups) < SETUP_REPEATS:
        probe_setup()
    metrics, info = end_to_end(
        loop,
        statistics.median(t / f for t, f in zip(setups, setup_slow)),
        slowdowns(loop["reference_s"], every, count, nominal),
    )
    info.update(
        setup_samples_s=setups,
        setup_slowdown=statistics.median(setup_slow),
        reference_samples=len(loop["reference_s"]),
    )
    info["unscaled"]["setup_s"] = statistics.median(setups)
    return {"metrics": metrics, "info": info, "failures": loop["failures"]}


def _traced_workload(name: str, seed: int):
    """A fresh workload instance for one pass of the traced run."""
    wl = workloads.WORKLOADS[name](seed)
    wl.in_process = True
    wl.setup()
    return wl


def _traced_pass(name: str, seed: int):
    tracer = Tracer()
    cap = layers.instrument(tracer, workloads)
    try:
        wl = _traced_workload(name, seed)
        loop = serve(wl, TRACE_REQUESTS[name], tracer=tracer)
    finally:
        tracer.restore()
    return tracer, cap, loop


def run_traced(name: str, seed: int) -> dict:
    probes = cli_probes()
    base = serve(_traced_workload(name, seed), TRACE_REQUESTS[name])
    tracer, cap, traced = _traced_pass(name, seed)
    counts = layers.counts_of(tracer, cap)
    tracer2, cap2, traced2 = _traced_pass(name, seed)
    counts2 = layers.counts_of(tracer2, cap2)
    drift = {k: (counts[k], counts2[k]) for k in counts if counts[k] != counts2[k]}
    overhead = {
        "busy_ratio": sum(traced["latencies"]) / sum(base["latencies"]),
        "p50_ratio": statistics.median(traced["latencies"]) / statistics.median(base["latencies"]),
    }
    metrics = layers.layer_metrics(tracer, cap, probes, counts, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path, {"workload": name, "seed": seed, "clock": "perf_counter_ns"})
    failures = {}
    for loop in (base, traced, traced2):
        for index, reason in loop["failures"].items():
            failures.setdefault(index, reason)
    if drift:
        failures[-1] = f"counts differ between two traced passes: {drift}"
    base_e2e, _ = end_to_end(base, 0.0)
    traced_e2e, _ = end_to_end(traced, 0.0)
    info = {
        "samples": len(traced["latencies"]),
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "count_drift": drift,
        "untraced": {k: base_e2e[k] for k in ("latency_p50_ms", "throughput_rps", "peak_rss_mb")},
        "traced": {k: traced_e2e[k] for k in ("latency_p50_ms", "throughput_rps", "peak_rss_mb")},
        "extra_counts": {k: counts[k] for k in counts if k not in metrics},
        "captured_pairs": {op: len(p) for op, p in cap.pairs.items()},
    }
    return {"metrics": metrics, "info": info, "failures": failures, "attempted": len(traced["latencies"])}


# -- output ---------------------------------------------------------------------------------


def report(name: str, seed: int, seconds: float, trace: int, result: dict) -> dict:
    units = layers.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    attempted = result.get("attempted", result["info"]["samples"])
    failed = len(result["failures"])
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "info": result["info"],
        "failures": {str(k): v for k, v in sorted(result["failures"].items())[:50]},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc, indent=1, default=str))
    env = doc["environment"]
    print(f"# expweyl benchmark  workload={name} seed={seed} trace={trace}")
    info = result["info"]
    print(f"# python {env['python']}  sympy {env['sympy']}  ground types {env['ground_types']}  "
          f"nproc {env['nproc']}  rev {env['git_revision']}")
    if trace:
        print(f"# {info['samples']} requests traced, {info['spans']} spans -> {info['spans_file']}")
        print(f"# tracing overhead: busy x{result['metrics']['trace.busy_ratio']:.3f}, "
              f"p50 x{result['metrics']['trace.p50_ratio']:.3f} (traced / untraced, same requests)")
    else:
        print(f"# {info['samples']} requests in {info['wall_s']:.1f} s; tail = p{info['tail_percentile']:g} "
              f"with {info['tail_samples_beyond']} samples beyond; error_rate {info['error_rate']:.6f}")
        print(f"# machine slowdown by the reference job: x{info['slowdown']:.3f} over the requests, "
              f"x{info['setup_slowdown']:.3f} over set-up; times below are divided by it")
        print("# unscaled: " + "  ".join(f"{k} {v:.6f}" for k, v in info["unscaled"].items()))
    for k, v in result["metrics"].items():
        print(f"{name:16s} {k:36s} {v:>16.6f} {units[k]}")
    if not trace:  # the result line carries success_rate, its complement
        print(f"{name:16s} {'error_rate':36s} {info['error_rate']:>16.6f} ratio")
    for k, v in list(doc["failures"].items())[:10]:
        print(f"# FAILED request {k}: {v}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": doc["metrics"],
    }


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="expweyl benchmark")
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "expweyl" / "__init__.py").is_file():
        print(f"error: no expweyl sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed).setup()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(report(args.workload, args.seed, args.seconds, args.trace, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
