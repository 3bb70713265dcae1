"""The three benchmark workloads: seeded inputs, the timed call, the checks.

A workload turns a seed into an endless, deterministic stream of requests.
``execute`` is the only timed call; ``check`` runs after it, outside the
timed region, and compares the output with an expectation that does not come
from the timed call (a stored digest, a mathematical identity, or an
independent oracle from another module).  Requests come in rounds of a fixed
mix, and a run times a fixed number of whole rounds, so every run of one
length sees the same proportions of request kinds and the same percentiles.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# requests per workload whose output digests are compared with digests.json
DIGEST_PREFIX = 256


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def shipped_digests(workload: str, seed: int) -> list[str] | None:
    """Stored output digests for a shipped seed, or None for any other seed."""
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


@dataclass
class Request:
    index: int
    kind: str
    payload: object
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    round_size = 1
    rate = 1.0  # requests per second of --seconds: about that much work at the reference's nominal speed
    # the traced run sets this; only cli_oneshot then runs its requests differently
    in_process = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self._next = 0
        self.expected = None  # shipped digests, loaded by setup()
        self.digests: dict[int, str] = {}

    def setup(self) -> None:
        """Import the program, build its algebras and the first inputs."""
        self.expected = shipped_digests(self.name, self.seed)

    def next_request(self) -> Request:
        req = self.make_request(self._next)
        self._next += 1
        return req

    def make_request(self, index: int) -> Request:
        raise NotImplementedError

    def execute(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, out) -> str | None:
        """None when the output is right, else a one-line reason."""
        raise NotImplementedError

    def finish(self) -> dict[int, str]:
        """Checks that need the whole run; maps request index to reason."""
        return {}

    def compare_digest(self, index: int, text: str) -> str | None:
        """Record the digest of an output's canonical text; compare if shipped."""
        if index >= DIGEST_PREFIX:
            return None
        d = self.digests[index] = digest(text)
        if self.expected is not None and index < len(self.expected) and self.expected[index] != d:
            return f"output digest {d} differs from the stored {self.expected[index]}"
        return None


# -- cli_oneshot -----------------------------------------------------------------

CLI_COMMANDS = ("normalize", "mul", "comm", "symbol", "ord", "act", "star", "noetherian")
CLI_POOL = 64
RANK2_CONFIG = {"n": 1, "rank": 2, "p": [2], "t": [[0, 1]]}


def child_env() -> dict:
    """Environment for a child Python that imports expweyl from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_cli(argv: list[str]) -> CliResult:
    """One fresh ``python -m expweyl.cli`` process, reaped with its rusage."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "cli_stderr.txt", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "expweyl.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return CliResult(proc.returncode, out, stderr, usage.ru_maxrss)


def cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    """The same command through ``cli.main`` in this process."""
    from expweyl import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode()


class CliOneshot(Workload):
    """Each request is one cold CLI process; import time dominates.

    With ``in_process`` set (the traced run), the same commands go through
    ``cli.main`` in this process instead, where the tracer can see them.
    """

    name = "cli_oneshot"
    round_size = 4  # rank 1 / rank 2 x text / structured
    rate = 2.0  # 40 in 20 s; the tail is p75, with ten samples beyond

    def setup(self) -> None:
        super().setup()
        from expweyl.config import SessionConfig, build_algebra

        OUT.mkdir(exist_ok=True)
        self.config_path = OUT / "cli_rank2.json"
        self.config_path.write_text(json.dumps(RANK2_CONFIG), encoding="utf-8")
        self.algebras = (
            build_algebra(SessionConfig()),
            build_algebra(SessionConfig(**RANK2_CONFIG)),
        )
        self.pool = [self._draw(i) for i in range(CLI_POOL)]  # (command, argv)
        self.outputs: dict[int, bytes] = {}
        self.seen: dict[int, list[int]] = {}

    def _operand(self, A, *, function: bool = False) -> str:
        from expweyl.expr import format_element
        from expweyl.sampling import random_element, random_function_element

        while True:
            if function:
                P = random_function_element(A, self.rng, max_terms=6, bound=2)
            else:
                P = random_element(A, self.rng, max_terms=6, bound=2)
            if 2 <= len(P.terms) <= 6:
                return format_element(P)

    def _draw(self, i: int) -> tuple[str, list[str]]:
        rank2, structured = i % 2 == 1, (i // 2) % 2 == 1
        A = self.algebras[1 if rank2 else 0]
        cmd = self.rng.choice(CLI_COMMANDS)
        if cmd == "noetherian":
            operands = [str(self.rng.randint(1, 6))]
        elif cmd in ("normalize", "symbol", "ord"):
            operands = [self._operand(A)]
        elif cmd == "act":
            operands = [self._operand(A), self._operand(A, function=True)]
        else:
            operands = [self._operand(A), self._operand(A)]
        argv = []
        if structured:
            argv += ["--format", "structured"]
        if rank2:
            argv += ["--config", str(self.config_path)]
        return cmd, argv + [cmd, *operands]

    def make_request(self, index: int) -> Request:
        slot = index % CLI_POOL
        cmd, argv = self.pool[slot]
        return Request(index, cmd, argv, {"slot": slot})

    def execute(self, req: Request) -> CliResult:
        if self.in_process:
            rc, out = cli_inprocess(req.payload)
            return CliResult(rc, out, b"", 0)
        return run_cli(req.payload)

    def check(self, req: Request, out: CliResult) -> str | None:
        if out.returncode != 0:
            return f"exit status {out.returncode}"
        if b"Traceback" in out.stdout or b"Traceback" in out.stderr:
            return "printed a Traceback"
        if not out.stdout.strip():
            return "empty output"
        slot = req.extra["slot"]
        first = self.outputs.setdefault(slot, out.stdout)
        if first != out.stdout:
            return "output changed between two runs of the same command"
        self.seen.setdefault(slot, []).append(req.index)
        return None

    def finish(self) -> dict[int, str]:
        """Replay each distinct command through cli.main and compare bytes,
        then compare the digests with the stored ones for a shipped seed."""
        failures = {}
        for slot in sorted(self.outputs):
            if self.in_process:
                rc, ref = 0, self.outputs[slot]
            else:
                rc, ref = cli_inprocess(self.pool[slot][1])
            reason = None
            if rc != 0:
                reason = f"in-process reference exited {rc}"
            elif ref != self.outputs[slot]:
                reason = "stdout differs from the in-process reference"
            else:
                reason = self.compare_digest(slot, ref.decode())
            if reason is not None:
                for index in self.seen[slot]:
                    failures[index] = reason
        return failures


# -- assoc_fuzz ------------------------------------------------------------------

ASSOC_SIGNATURES = (
    ("rank1", {}),
    ("rank2", {"rank": 2, "t": ((0, 1),)}),
    ("n2_tower", {"n": 2, "p": (2, 3), "t": ((1,), (0,))}),
    ("tshift2", {"t_shift": True, "hbar_order": 2}),
)
# Up to 6 terms or exponents within 2 give a tail too heavy to repeat from
# seed to seed; with at most 4 terms a request is cheap enough that a run
# holds thousands, and the tail rests on a few dozen samples.
ASSOC_TERMS = 4
ASSOC_BOUND = 1


class AssocFuzz(Workload):
    """Each request is one associativity triple, (PQ)R against P(QR)."""

    name = "assoc_fuzz"
    round_size = len(ASSOC_SIGNATURES)
    rate = 300.0  # 6000 in 20 s; the tail is p99.5, with thirty samples beyond

    def setup(self) -> None:
        super().setup()
        from expweyl.config import SessionConfig, build_algebra

        self.algebras = [build_algebra(SessionConfig(**kw)) for _, kw in ASSOC_SIGNATURES]
        # the first round of inputs is part of set-up; later ones are drawn
        # between requests, outside the timed call
        self._ready = [self._draw(i) for i in range(self.round_size)]

    def make_request(self, index: int) -> Request:
        return self._ready[index] if index < len(self._ready) else self._draw(index)

    def _draw(self, index: int) -> Request:
        from expweyl.sampling import random_element

        slot = index % len(ASSOC_SIGNATURES)
        A = self.algebras[slot]
        triple = tuple(
            random_element(A, self.rng, max_terms=ASSOC_TERMS, bound=ASSOC_BOUND)
            for _ in range(3)
        )
        return Request(index, ASSOC_SIGNATURES[slot][0], triple, {"algebra": A})

    def execute(self, req: Request):
        A = req.extra["algebra"]
        P, Q, R = req.payload
        return A.mul(A.mul(P, Q), R), A.mul(P, A.mul(Q, R))

    def check(self, req: Request, out) -> str | None:
        from expweyl.expr import format_element

        left, right = out
        if left != right:
            return "(PQ)R != P(QR)"
        return self.compare_digest(req.index, format_element(left))


# -- derived_reports ---------------------------------------------------------------

BALL_RANKS = {5: (420, 45), 6: (756, 66), 7: (1260, 91)}
# Each small report comes nine times per round and each window rank once, so
# the median lands among the small reports and p95, the tail of a 20-second
# run, inside the k=5 rank.
SMALL_KINDS = (
    "commspan_rank2",
    "commspan_rank3",
    "euler_sl2like",
    "symbol_star_n4",
    "star_assoc_rank2",
)
DERIVED_KINDS = (
    ("window_rank_k5",) + SMALL_KINDS * 3
    + ("window_rank_k6",) + SMALL_KINDS * 3
    + ("window_rank_k7",) + SMALL_KINDS * 3
)
STAR_ORDER = 4
STAR_TERMS = 4
SPAN_PAIRS = 12
SPAN_TERMS = 3
SPAN_BOUND = 2
EULER_BATCH = 64
ASSOC_TRIPLES = 30
STAR_BATCH = 16


def window_rank_unbounded(window, degree: int = 1) -> tuple[int, int]:
    """(chains, rank) of b on the window's chain basis, images unrestricted.

    ``homology.window_rank`` refuses a ball whose boundary leaves it, which
    every order ball past k=2 does; this composes the same public pieces
    without that restriction.
    """
    from expweyl.homology import Chain, hochschild_b, window_chain_basis
    from expweyl.linalg import span_rank

    alg = window.algebra
    one = alg.field.one
    basis = window_chain_basis(window, degree)
    images = [hochschild_b(Chain(alg, degree, {key: one})).terms for key in basis]
    return len(basis), span_rank(images, alg.field)


def star_defects(cochains, f, g, h) -> tuple:
    """The hbar^1 and hbar^2 associativity defects of f*g + hbar m1(f,g) +
    hbar^2 m2(f,g) on one triple, written out term by term."""
    m1, m2 = cochains
    d1 = m1(f * g, h) + m1(f, g) * h - m1(f, g * h) - f * m1(g, h)
    d2 = (m2(f * g, h) + m1(m1(f, g), h) + m2(f, g) * h) - (m2(f, g * h) + m1(f, m1(g, h)) + f * m2(g, h))
    return d1, d2


class DerivedReports(Workload):
    """Each request is one downstream report: ranks, spans, cochains, stars."""

    name = "derived_reports"
    round_size = len(DERIVED_KINDS)
    rate = 12.0  # five rounds in 20 s; the tail is p95, with twelve samples beyond

    def setup(self) -> None:
        super().setup()
        from expweyl.config import SessionConfig, build_algebra
        from expweyl.deformation import star_cochain
        from expweyl.lie import sl2like

        self.rank1 = build_algebra(SessionConfig())
        self.rank2 = build_algebra(SessionConfig(rank=2, t=((0, 1),)))
        self.rank3 = build_algebra(SessionConfig(rank=3, t=((0, 1, 1),)))
        self.halg = self.rank1.with_hbar(STAR_ORDER)
        self.span = sl2like(self.rank1)
        self.cochains = [star_cochain(self.rank2, k) for k in (1, 2)]
        self.balls = {k: self._ball(k) for k in BALL_RANKS}

    def _ball(self, k: int) -> list:
        A = self.rank1
        mons = []
        for a in range(k + 1):
            for b in range(k + 1 - a):
                mons.extend((A.x(1, a) * A.D(1, b)).terms)
        return mons

    def make_request(self, index: int) -> Request:
        kind = DERIVED_KINDS[index % len(DERIVED_KINDS)]
        rng = self.rng
        if kind.startswith("window_rank"):
            from expweyl.homology import Window

            k = int(kind[-1])
            return Request(index, kind, Window(self.rank1, self.balls[k]), {"k": k})
        if kind.startswith("commspan"):
            A = self.rank2 if kind == "commspan_rank2" else self.rank3
            return Request(index, kind, *self._span_input(A))
        if kind == "euler_sl2like":
            from expweyl.lie import ce_differential
            from expweyl.sampling import random_cochain

            batch = []
            while len(batch) < EULER_BATCH:
                psi = random_cochain(self.span, rng, 1, ad_degree=rng.choice((-2, -1, 1, 2)))
                omega = ce_differential(psi)
                if not omega.is_zero:
                    batch.append(omega)
            return Request(index, kind, batch)
        if kind == "symbol_star_n4":
            from expweyl.sampling import random_weyl_element

            pairs = [
                tuple(random_weyl_element(self.rank1, rng, max_terms=STAR_TERMS, bound=3) for _ in range(2))
                for _ in range(STAR_BATCH)
            ]
            return Request(index, kind, pairs)
        from expweyl.grading import full_symbol
        from expweyl.sampling import random_element

        triples = [
            tuple(full_symbol(random_element(self.rank2, rng, max_terms=2, bound=2)) for _ in range(3))
            for _ in range(ASSOC_TRIPLES)
        ]
        return Request(index, kind, triples)

    def _span_input(self, A):
        """Pairs and a target with symbolic coefficients inside their span."""
        from expweyl.sampling import random_element

        rng = self.rng
        pairs = [
            (
                random_element(A, rng, max_terms=SPAN_TERMS, bound=SPAN_BOUND, allow_e=False),
                random_element(A, rng, max_terms=SPAN_TERMS, bound=SPAN_BOUND, allow_e=False),
            )
            for _ in range(SPAN_PAIRS)
        ]
        field = A.field
        target = A.zero
        for P, Q in pairs:
            c = field.from_rational(rng.randint(1, 5)) * field.generator(rng.randint(2, field.rank))
            target = target + A.commutator(P, Q) * c
        return (target, pairs), {"algebra": A}

    def execute(self, req: Request):
        kind = req.kind
        if kind.startswith("window_rank"):
            return window_rank_unbounded(req.payload)
        if kind.startswith("commspan"):
            from expweyl.homology import commutator_span_check

            target, pairs = req.payload
            return commutator_span_check(target, pairs)
        if kind == "euler_sl2like":
            from expweyl.lie import euler_integrate

            return [euler_integrate(omega) for omega in req.payload]
        if kind == "symbol_star_n4":
            from expweyl.deformation import symbol_star
            from expweyl.grading import full_symbol

            return [
                symbol_star(full_symbol(P), full_symbol(Q), STAR_ORDER, self.halg)
                for P, Q in req.payload
            ]
        from expweyl.deformation import star_assoc_check

        return star_assoc_check(self.cochains, req.payload)

    def check(self, req: Request, out) -> str | None:
        kind = req.kind
        if kind.startswith("window_rank"):
            return self._check_rank(req, out)
        if kind.startswith("commspan"):
            return self._check_span(req, out)
        if kind == "euler_sl2like":
            from expweyl.lie import ce_differential

            if any(ce_differential(phi) != omega for phi, omega in zip(out, req.payload)):
                return "d(phi) != omega"
            return None
        if kind == "symbol_star_n4":
            from expweyl.deformation import contraction_graded_product

            for (P, Q), star in zip(req.payload, out):
                if star != contraction_graded_product(P, Q, STAR_ORDER, self.halg):
                    return "symbol_star differs from contraction_graded_product"
            return None
        return self._check_star_assoc(req, out)

    def _check_rank(self, req: Request, out) -> str | None:
        from expweyl.homology import hochschild_b, tensor_chain

        k = req.extra["k"]
        if tuple(out) != BALL_RANKS[k]:
            return f"window rank {tuple(out)} on the k={k} ball, expected {BALL_RANKS[k]}"
        A = self.rank1
        mons = req.payload.monomials
        factors = [A.from_term(mons[i], 1) + A.from_term(mons[-1 - i], 2) for i in range(3)]
        bb = hochschild_b(hochschild_b(tensor_chain(factors)))
        if not bb.is_zero:
            return "b(b(c)) != 0 on a degree-2 ball chain"
        return None

    def _check_star_assoc(self, req: Request, out) -> str | None:
        if (out.max_order, out.triples) != (len(self.cochains), ASSOC_TRIPLES):
            return f"checked {out.triples} triples through hbar^{out.max_order}"
        if not out.associative:
            return f"star product not associative: {out.as_text()}"
        for index, (f, g, h) in enumerate(req.payload):
            if any(not d.is_zero for d in star_defects(self.cochains, f, g, h)):
                return f"star product not associative on triple {index}, recomputed"
        return None

    def _check_span(self, req: Request, out) -> str | None:
        target, pairs = req.payload
        A = req.extra["algebra"]
        if not out.inside or out.combination is None:
            return "target reported outside the commutator span"
        combo = A.zero
        for (P, Q), c in zip(pairs, out.combination):
            combo = combo + A.commutator(P, Q) * c
        if combo != target:
            return "span coefficients do not recombine to the target"
        return None


WORKLOADS = {w.name: w for w in (CliOneshot, AssocFuzz, DerivedReports)}
