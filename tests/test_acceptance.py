"""Acceptance battery: nine criteria, one test and one pass/fail line each.

Runtime bounds are asserted where a criterion pins one (relation suite < 5 s,
associativity fuzz < 60 s); everything is exact arithmetic, no tolerances.
Each test prints ``criterion N (name): PASS`` so a transcript of the run
documents the battery even outside the pytest summary.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from expweyl.algebra import WeylAlgebra
from expweyl.deformation import (
    AntisymMatrix,
    contraction_graded_product,
    gr_power,
    mc_residual,
    rank2_cochain,
    rank2_commutator,
    star_assoc_check,
    star_cochain,
    symbol_star,
    t_shift_deform,
)
from expweyl.expr import format_element, parse
from expweyl.grading import filtration_diagnostic, full_symbol
from expweyl.homology import commutator_span_check, connes_B, hochschild_b
from expweyl.lie import (
    borel,
    ce_differential,
    euler_integrate,
    sl2like,
    witt_bracket,
)
from expweyl.representation import act
from expweyl.sampling import (
    random_chain,
    random_cochain,
    random_derivation,
    random_element,
    random_function_element,
    random_weyl_element,
)
from expweyl.selftest import run_selftest


def _report(num: int, name: str, failures: list, elapsed: float | None = None):
    ok = not failures
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f" [{elapsed:.2f}s]"
    if failures:
        line += " - " + "; ".join(failures[:3])
    print(line)
    assert ok, line


def _algebra(n=1, rank=1, p=None, t=None):
    p = (2,) * n if p is None else p
    t = ((0,) * rank,) * n if t is None else t
    return WeylAlgebra(n=n, rank=rank, p=p, t=t)


def test_criterion_1_relation_suite():
    start = time.perf_counter()
    failures = []
    for n, rank, pval in product((1, 2), (1, 2), (1, 2, 3)):
        tvals = [(0,) * rank, (1,) + (0,) * (rank - 1)]
        if rank == 2:
            tvals.append((0, 1))
        for tv in tvals:
            A = WeylAlgebra(n=n, rank=rank, p=(pval,) * n, t=(tv,) * n)
            alpha = A.lattice((1,) * rank)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    tag = f"n={n} r={rank} p={pval} t={tv} i={i} j={j}"
                    delta = A.one if i == j else A.zero
                    if A.commutator(A.D(i), A.x(j)) != delta:
                        failures.append(f"[D,x] {tag}")
                    if not A.commutator(A.x(i), A.x(j)).is_zero:
                        failures.append(f"[x,x] {tag}")
                    if not A.commutator(A.D(i), A.D(j)).is_zero:
                        failures.append(f"[D,D] {tag}")
                    ee = A.exp_sym(j, alpha)
                    expect = ee * A.field.embed(alpha) if i == j else A.zero
                    if A.commutator(A.D(i), ee) != expect:
                        failures.append(f"[D,exp] {tag}")
                    ecom = A.commutator(A.D(i), A.E(j))
                    eref = A.diff_function(A.E(j), j) if i == j else A.zero
                    if ecom != eref:
                        failures.append(f"[D,E] {tag}")
                    if not A.commutator(A.E(i), ee).is_zero:
                        failures.append(f"[E,exp] {tag}")
                    if not A.commutator(A.E(i), A.E(j)).is_zero:
                        failures.append(f"[E,E] {tag}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(1, "relation suite", failures, elapsed)


def test_criterion_2_associativity_fuzz():
    start = time.perf_counter()
    failures = []
    rng = random.Random(202)
    algebras = [
        _algebra(),
        _algebra(rank=2, t=((0, 1),)),
        _algebra(n=2, p=(2, 3), t=((1,), (0,))),
    ]
    for k in range(200):
        A = algebras[k % len(algebras)]
        P = random_element(A, rng, max_terms=4, bound=3)
        Q = random_element(A, rng, max_terms=4, bound=3)
        R = random_element(A, rng, max_terms=4, bound=3)
        if A.mul(A.mul(P, Q), R) != A.mul(P, A.mul(Q, R)):
            failures.append(f"triple {k} not associative")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s")
    _report(2, "associativity fuzz", failures, elapsed)


def test_criterion_3_representation_oracle():
    failures = []
    rng = random.Random(303)
    algebras = [_algebra(), _algebra(rank=2)]
    for k in range(100):
        A = algebras[k % len(algebras)]
        P = random_element(A, rng, max_terms=3, bound=2)
        Q = random_element(A, rng, max_terms=3, bound=2)
        f = random_function_element(A, rng)
        if act(A.mul(P, Q), f) != act(P, act(Q, f)):
            failures.append(f"triple {k} breaks the action")
    _report(3, "representation oracle", failures)


def test_criterion_4_derivative_ladder():
    failures = []
    A = _algebra()
    fact = 1
    for n in range(1, 7):
        fact *= n
        if act(A.D(1, n), A.x(1, n)) != A.one * fact:
            failures.append(f"act(D^{n}, x^{n}) != {n}!")
        if not act(A.D(1, n + 1), A.x(1, n)).is_zero:
            failures.append(f"act(D^{n + 1}, x^{n}) != 0")
    _report(4, "derivative ladder", failures)


def test_criterion_5_strict_drop_diagnostics():
    failures = []
    A = _algebra(t=((1,),))
    gens = {
        "x": A.x(1),
        "D": A.D(1),
        "exp": A.exp_sym(1, 1),
        "x^2": A.x(1, 2),
    }
    for (na, P), (nb, Q) in product(gens.items(), repeat=2):
        rep = filtration_diagnostic(P, Q)
        if not rep.strict_drop:
            failures.append(f"strict drop refuted on ({na}, {nb})")
    rep = filtration_diagnostic(A.D(1), A.E(1))
    if rep.strict_drop:
        failures.append("(D, E) at p=2, t=g_1 did not refute strict drop")
    if rep.witness is None:
        failures.append("(D, E) refutation carries no witness")
    _report(5, "strict drop diagnostics", failures)


def test_criterion_6_lie_suite():
    failures = []
    rng = random.Random(606)
    A = _algebra()
    for k in range(100):
        u = random_derivation(A, rng)
        v = random_derivation(A, rng)
        w = random_derivation(A, rng)
        jac = (
            witt_bracket(u, witt_bracket(v, w))
            + witt_bracket(v, witt_bracket(w, u))
            + witt_bracket(w, witt_bracket(u, v))
        )
        if not jac.is_zero:
            failures.append(f"Jacobi fails on triple {k}")
            break
    for span_name, span in (("borel", borel(A)), ("sl2like", sl2like(A))):
        for degree in (0, 1, 2):
            for _ in range(4):
                omega = random_cochain(span, rng, degree)
                if not ce_differential(ce_differential(omega)).is_zero:
                    failures.append(f"d^2 != 0 on {span_name} degree {degree}")
    span = sl2like(A)
    recovered = 0
    attempts = 0
    while recovered < 20 and attempts < 200:
        attempts += 1
        d = (1, 2, -1, -2)[attempts % 4]
        psi = random_cochain(span, rng, 1, ad_degree=d)
        omega = ce_differential(psi)
        if omega.is_zero:
            continue
        phi = euler_integrate(omega)
        if ce_differential(phi) != omega:
            failures.append(f"integration failed at attempt {attempts}")
            break
        recovered += 1
    if recovered < 20:
        failures.append(f"only {recovered} coboundaries recovered")
    _report(6, "Lie suite", failures)


def test_criterion_7_homology_suite():
    failures = []
    rng = random.Random(707)
    A = _algebra()
    for k in range(50):
        # b lowers degree by one, so b^2 needs degree >= 2
        c = random_chain(A, rng, degree=2 + k % 2)
        if not hochschild_b(hochschild_b(c)).is_zero:
            failures.append(f"b^2 != 0 on chain {k}")
    for k in range(50):
        degree = k % 3
        c = random_chain(A, rng, degree=degree)
        anti = hochschild_b(connes_B(c))
        if degree >= 1:
            anti = anti + connes_B(hochschild_b(c))
        if not anti.is_zero:
            failures.append(f"bB + Bb != 0 on chain {k}")
        if not connes_B(connes_B(c)).is_zero:
            failures.append(f"B^2 != 0 on chain {k}")
    if not commutator_span_check(A.one, [(A.D(1), A.x(1))]).inside:
        failures.append("1 not inside the commutator span of (D, x)")
    _report(7, "homology suite", failures)


def test_criterion_8_deformation_suite():
    failures = []
    rng = random.Random(808)

    # star product against the contraction-graded product of mul
    for k in range(100):
        A = _algebra() if k % 2 == 0 else _algebra(n=2)
        N = 5
        halg = A.with_hbar(N)
        P = random_weyl_element(A, rng)
        Q = random_weyl_element(A, rng)
        star = symbol_star(full_symbol(P), full_symbol(Q), N, halg)
        if star != contraction_graded_product(P, Q, N, halg):
            failures.append(f"star mismatch on pair {k}")

    # rank-2 lattice deformation with c_12 = 1
    A2 = _algebra(rank=2)
    c = AntisymMatrix(((0, 1), (-1, 0)))
    comm = rank2_commutator(A2, c, (1, 0), (0, 1))
    halg = comm.algebra
    expected = 2 * (
        halg.field.hbar
        * (full_symbol(halg.E(1)) * gr_power(halg, (1, 1)))
    )
    if comm != expected:
        failures.append("rank-2 commutator is not 2*hbar*E*x^(g_1+g_2)")
    m1 = rank2_cochain(A2.with_hbar(1), c)
    lat = [
        (a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if 0 < abs(a) + abs(b)
    ]
    gen_alg = A2.with_hbar(1)
    triples = [
        (gr_power(gen_alg, a), gr_power(gen_alg, b), gr_power(gen_alg, g))
        for a in lat
        for b in lat
        for g in lat
        if sum(abs(v) for v in a + b + g) <= 4
    ]
    rep = star_assoc_check([m1], triples)
    if not rep.associative:
        failures.append("rank-2 deformation has an hbar^2 associativity defect")

    # t-shift at N = 2: associative mod hbar^3, nonzero first-order term
    At = _algebra(t=((1,),))
    twin = At.with_t_shift(2)
    for k in range(50):
        P = random_element(twin, rng, max_terms=2, bound=2)
        Q = random_element(twin, rng, max_terms=2, bound=2)
        R = random_element(twin, rng, max_terms=2, bound=2)
        if twin.mul(twin.mul(P, Q), R) != twin.mul(P, twin.mul(Q, R)):
            failures.append(f"t-shift triple {k} not associative mod hbar^3")
    if t_shift_deform(At, 2).first_order.is_zero:
        failures.append("t-shift rule has no order-hbar term")

    # Maurer-Cartan residual of the N = 2 star truncation
    As = _algebra(rank=2)
    m1s, m2s = star_cochain(As, 1), star_cochain(As, 2)
    for k in range(10):
        f, g, h = (
            full_symbol(random_element(As, rng, max_terms=2, bound=2))
            for _ in range(3)
        )
        if not mc_residual(m1s, m2s, f, g, h).is_zero:
            failures.append(f"MC residual nonzero on triple {k}")
    _report(8, "deformation suite", failures)


def test_criterion_9_cli_surface():
    failures = []
    rng = random.Random(909)
    algebras = [
        _algebra(),
        _algebra(rank=2),
        _algebra(n=2, rank=2, p=(2, 3), t=((1, 0), (0, 0))),
    ]
    for k in range(200):
        A = algebras[k % len(algebras)]
        P = random_element(A, rng, max_terms=3, bound=2)
        if parse(format_element(P), A) != P:
            failures.append(f"round trip failed on element {k}")
    results = run_selftest(0)
    for r in results:
        if not r.ok:
            failures.append(f"selftest check {r.name} failed: {r.detail}")
    goldens = [
        (["normalize", "D_1 * x_1"], b"x_1*D_1 + 1\n"),
        (["comm", "D_1", "x_1"], b"1\n"),
        (["noetherian", "3"], b"(6, 0)\n"),
    ]
    for argv, expected in goldens:
        outs = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "expweyl.cli", *argv],
                capture_output=True,
            )
            if proc.returncode != 0:
                failures.append(f"golden command {argv} exited {proc.returncode}")
            outs.add(proc.stdout)
        if outs != {expected}:
            failures.append(f"golden transcript for {argv} not byte-stable")
    _report(9, "CLI surface", failures)
