"""Named invariant checks spanning every kernel module.

Each check is a plain function taking a seeded random.Random; it raises
AssertionError (with a short message) on the first violated identity.
run_selftest executes the full battery and reports one line per check so
the CLI can print a deterministic transcript and exit nonzero on failure.

The battery restates the per-module invariants rather than importing the
pytest suite: scalar field axioms, the defining relations, normal-form
associativity, the module action as oracle, filtration laws, Lie and
Hochschild differential identities, Poisson and star-product identities,
and the parser round trip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .algebra import WeylAlgebra
from .deformation import (
    AntisymMatrix,
    PolyDiffOp,
    contraction_graded_product,
    gr_power,
    lambda_bracket,
    mc_residual,
    poisson_exp,
    poisson_std,
    rank2_cochain,
    star_assoc_check,
    star_cochain,
    symbol_star,
    t_shift_deform,
)
from .grading import full_symbol, gr_mul, order, symbol
from .homology import commutator_span_check, connes_B, hochschild_b
from .lie import (
    borel,
    ce_differential,
    euler_integrate,
    sl2like,
    witt_bracket,
)
from .representation import act
from .sampling import (
    random_chain,
    random_cochain,
    random_derivation,
    random_element,
    random_function_element,
    random_scalar,
    random_symbol,
    random_weyl_element,
)
from .scalars import ScalarField

__all__ = ["CheckResult", "run_selftest"]


def _algebra(n=1, rank=2, p=None, t=None, **kw):
    p = (2,) * n if p is None else p
    t = ((0,) * rank,) * n if t is None else t
    return WeylAlgebra(n=n, rank=rank, p=p, t=t, **kw)


# -- exponent arithmetic -------------------------------------------------------


def check_scalar_field_axioms(rng):
    fields = [ScalarField(1), ScalarField(3), ScalarField(2).with_hbar(2)]
    for field in fields:
        one, zero = field.one, field.zero
        for _ in range(8):
            a = random_scalar(field, rng)
            b = random_scalar(field, rng)
            c = random_scalar(field, rng)
            assert (a + b) + c == a + (b + c), "addition not associative"
            assert a + b == b + a, "addition not commutative"
            assert (a * b) * c == a * (b * c), "multiplication not associative"
            assert a * b == b * a, "multiplication not commutative"
            assert a * (b + c) == a * b + a * c, "multiplication not distributive"
            assert a + zero == a and a * one == a, "identity laws fail"
            assert (a - a).is_zero, "subtraction fails"
            if a.is_unit:
                assert a * (one / a) == one, "inverse fails"


def check_hbar_truncation_nilpotent(rng):
    field = ScalarField(1).with_hbar(2)
    hb = field.hbar
    assert not (hb * hb).is_zero, "hbar^2 lost below the truncation order"
    assert (hb * hb * hb).is_zero, "hbar^3 survives truncation at order 2"
    geom = field.one - hb + hb * hb
    assert (field.one + hb) * geom == field.one, "geometric inverse fails mod hbar^3"


def check_lattice_embed_homomorphism(rng):
    field = ScalarField(3)
    seen = {}
    for _ in range(12):
        a = tuple(rng.randint(-4, 4) for _ in range(3))
        b = tuple(rng.randint(-4, 4) for _ in range(3))
        assert field.embed(tuple(map(add, a, b))) == field.embed(a) + field.embed(b), (
            "embed is not additive"
        )
        prev = seen.setdefault(field.embed(a), a)
        assert prev == a, "embed identified distinct lattice points"


# -- normal-form arithmetic ----------------------------------------------------


def check_defining_relations(rng):
    for n in (1, 2):
        for rank in (1, 2):
            tvals = [(0,) * rank, (1,) + (0,) * (rank - 1)]
            if rank == 2:
                tvals.append((0, 1))
            for tv in tvals:
                A = WeylAlgebra(n=n, rank=rank, p=(2,) * n, t=(tv,) * n)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        delta = A.one if i == j else A.zero
                        assert A.commutator(A.D(i), A.x(j)) == delta
                        assert A.commutator(A.x(i), A.x(j)).is_zero
                        assert A.commutator(A.D(i), A.D(j)).is_zero
                        alpha = A.lattice((1,) * rank)
                        ee = A.exp_sym(j, alpha)
                        expect = ee * A.field.embed(alpha) if i == j else A.zero
                        assert A.commutator(A.D(i), ee) == expect
                        # the derivative of E_j lands back in the ring
                        ecom = A.commutator(A.D(i), A.E(j))
                        if i == j:
                            assert ecom == A.diff_function(A.E(j), j)
                        else:
                            assert ecom.is_zero
                        assert A.commutator(A.E(i), ee).is_zero


def check_normal_form_associative(rng):
    algebras = [_algebra(), _algebra(n=2, rank=1, p=(2, 3), t=((1,), (0,)))]
    for A in algebras:
        for _ in range(6):
            P = random_element(A, rng, max_terms=3, bound=2)
            Q = random_element(A, rng, max_terms=3, bound=2)
            R = random_element(A, rng, max_terms=3, bound=2)
            assert A.mul(A.mul(P, Q), R) == A.mul(P, A.mul(Q, R)), (
                "normal-ordered product not associative"
            )


def check_unit_and_bilinearity(rng):
    A = _algebra()
    for _ in range(6):
        P = random_element(A, rng)
        Q = random_element(A, rng)
        R = random_element(A, rng)
        c = random_scalar(A.field, rng)
        assert A.mul(A.one, P) == P and A.mul(P, A.one) == P, "unit fails"
        assert A.mul(P + Q, R) == A.mul(P, R) + A.mul(Q, R), "left distribution"
        assert A.mul(R, P + Q) == A.mul(R, P) + A.mul(R, Q), "right distribution"
        assert A.mul(P * c, Q) == A.mul(P, Q) * c, "scalars do not pull out"


def check_diff_function_derivation(rng):
    A = _algebra()
    for _ in range(6):
        f = random_function_element(A, rng)
        g = random_function_element(A, rng)
        fg = A.mul(f, g)
        lhs = A.diff_function(fg, 1)
        rhs = A.mul(A.diff_function(f, 1), g) + A.mul(f, A.diff_function(g, 1))
        assert lhs == rhs, "diff_function is not a derivation"


# -- module action ---------------------------------------------------------------


def check_action_homomorphism(rng):
    A = _algebra()
    for _ in range(8):
        P = random_element(A, rng, max_terms=2, bound=2)
        Q = random_element(A, rng, max_terms=2, bound=2)
        f = random_function_element(A, rng)
        assert act(A.mul(P, Q), f) == act(P, act(Q, f)), (
            "action is not a homomorphism"
        )
    # the same law on the polynomial Weyl subalgebra with power test functions
    B = _algebra(rank=1)
    for _ in range(6):
        P = random_weyl_element(B, rng)
        Q = random_weyl_element(B, rng)
        f = B.x(1, rng.randint(0, 3))
        assert act(B.mul(P, Q), f) == act(P, act(Q, f)), (
            "Weyl action oracle disagrees with mul"
        )


def check_derivative_power_ladder(rng):
    A = _algebra(rank=1)
    fact = 1
    for k in range(1, 7):
        fact *= k
        assert act(A.D(1, k), A.x(1, k)) == A.one * fact, "D^n x^n != n!"
        assert act(A.D(1, k + 1), A.x(1, k)).is_zero, "D^(n+1) x^n != 0"


# -- filtration and symbols ------------------------------------------------------


def check_order_filtration_laws(rng):
    A = _algebra()
    for _ in range(8):
        P = random_element(A, rng)
        Q = random_element(A, rng)
        if not (P + Q).is_zero:
            assert order(P + Q) <= max(order(P), order(Q)), "order of sum too big"
        c = random_scalar(A.field, rng)
        assert order(P * c) == order(P), "order not scale invariant"


def check_weyl_symbol_multiplicative(rng):
    A = _algebra(rank=1)
    for _ in range(8):
        P = random_weyl_element(A, rng)
        Q = random_weyl_element(A, rng)
        PQ = A.mul(P, Q)
        assert order(PQ) == order(P) + order(Q), "Weyl order not additive"
        assert symbol(PQ) == gr_mul(symbol(P), symbol(Q)), "symbol not multiplicative"
        comm = A.commutator(P, Q)
        if not comm.is_zero:
            assert order(comm) <= order(P) + order(Q) - 2, "commutator order too big"


def check_gr_mul_commutative_associative(rng):
    A = _algebra()
    for _ in range(6):
        u, v, w = (random_symbol(A, rng) for _ in range(3))
        assert gr_mul(u, v) == gr_mul(v, u), "gr_mul not commutative"
        assert gr_mul(gr_mul(u, v), w) == gr_mul(u, gr_mul(v, w)), (
            "gr_mul not associative"
        )


# -- Lie theory -------------------------------------------------------------------


def check_witt_bracket_lie_axioms(rng):
    A = _algebra(rank=1)
    for _ in range(6):
        u = random_derivation(A, rng)
        v = random_derivation(A, rng)
        w = random_derivation(A, rng)
        assert (witt_bracket(u, v) + witt_bracket(v, u)).is_zero, "not antisymmetric"
        jac = (
            witt_bracket(u, witt_bracket(v, w))
            + witt_bracket(v, witt_bracket(w, u))
            + witt_bracket(w, witt_bracket(u, v))
        )
        assert jac.is_zero, "Jacobi fails for the witt bracket"


def check_ce_differential_squares_to_zero(rng):
    A = _algebra(rank=1)
    for span in (borel(A), sl2like(A)):
        for degree in (0, 1, 2):
            for _ in range(3):
                omega = random_cochain(span, rng, degree)
                assert ce_differential(ce_differential(omega)).is_zero, (
                    "d^2 != 0 on a Lie span"
                )


def check_euler_integration_inverts_differential(rng):
    A = _algebra(rank=1)
    span = sl2like(A)
    recovered = 0
    for d in (1, 2, -1, -2):
        for _ in range(3):
            psi = random_cochain(span, rng, 1, ad_degree=d)
            omega = ce_differential(psi)
            if omega.is_zero:
                continue
            phi = euler_integrate(omega)
            assert ce_differential(phi) == omega, "Euler integration failed"
            recovered += 1
    assert recovered >= 4, "too few nonzero coboundaries sampled"


# -- Hochschild and cyclic ---------------------------------------------------------


def check_hochschild_b_squares_to_zero(rng):
    A = _algebra(rank=1)
    for degree in (2, 3):
        for _ in range(4):
            c = random_chain(A, rng, degree)
            assert hochschild_b(hochschild_b(c)).is_zero, "b^2 != 0"


def check_connes_b_identities(rng):
    A = _algebra(rank=1)
    for degree in (1, 2):
        for _ in range(4):
            c = random_chain(A, rng, degree)
            anti = hochschild_b(connes_B(c)) + connes_B(hochschild_b(c))
            assert anti.is_zero, "bB + Bb != 0"
            assert connes_B(connes_B(c)).is_zero, "B^2 != 0"


def check_one_is_a_commutator(rng):
    A = _algebra(rank=1)
    res = commutator_span_check(A.one, [(A.D(1), A.x(1))])
    assert res.inside, "1 is not seen inside [A, A]"


# -- Poisson structures and deformations -------------------------------------------


def check_poisson_jacobi(rng):
    A = _algebra()
    brackets = [
        poisson_std,
        poisson_exp,
        lambda a, b: lambda_bracket(a, b, Fraction(1, 2)),
    ]
    for br in brackets:
        for _ in range(3):
            f, g, h = (random_symbol(A, rng) for _ in range(3))
            jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
            assert jac.is_zero, "Poisson Jacobi fails"
            assert (br(f, g) + br(g, f)).is_zero, "Poisson bracket not antisymmetric"


def check_star_matches_contraction_count(rng):
    for A in (_algebra(rank=1), _algebra(n=2, rank=1)):
        N = 5
        halg = A.with_hbar(N)
        for _ in range(5):
            P = random_weyl_element(A, rng)
            Q = random_weyl_element(A, rng)
            star = symbol_star(full_symbol(P), full_symbol(Q), N, halg)
            graded = contraction_graded_product(P, Q, N, halg)
            assert star == graded, "star product disagrees with contraction grading"


def check_rank2_deformation_closed(rng):
    A = _algebra()
    halg = A.with_hbar(1)
    gens = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, 0)]
    for c12 in (1, -2):
        m1 = rank2_cochain(halg, AntisymMatrix(((0, c12), (-c12, 0))))
        triples = [
            (gr_power(halg, a), gr_power(halg, b), gr_power(halg, g))
            for a in gens
            for b in gens
            for g in gens
        ]
        rep = star_assoc_check([m1], triples)
        assert rep.associative, "rank-2 deformation has an order-hbar^2 defect"


def check_maurer_cartan_both_directions(rng):
    A = _algebra()
    m1, m2 = star_cochain(A, 1), star_cochain(A, 2)
    triples = [tuple(random_symbol(A, rng) for _ in range(3)) for _ in range(3)]
    for f, g, h in triples:
        assert mc_residual(m1, m2, f, g, h).is_zero, "MC residual nonzero for star"
    assert star_assoc_check([m1, m2], triples).associative
    # a perturbed second-order cochain fails MC exactly where associativity fails
    x, y = full_symbol(A.x(1)), full_symbol(A.D(1))
    bad = m2 + PolyDiffOp(A, [((("y", 1), ("y", 1)), (("x", 1),), 1)])
    rep = star_assoc_check([m1, bad], [(y, y, x)])
    assert rep.first_nonzero == 2, "perturbed cochain stayed associative"
    assert rep.residual == mc_residual(m1, bad, y, y, x), (
        "order-2 defect differs from the MC residual"
    )
    assert not rep.residual.is_zero


def check_shifted_rule_classical_part(rng):
    A = _algebra(rank=1, t=((1,),))
    for N in (0, 1, 2):
        rep = t_shift_deform(A, N)
        assert rep.classical == A.mul(A.D(1), A.E(1)), "classical part drifted"
        if N >= 1:
            assert not rep.first_order.is_zero, "shift produced no first-order term"


# -- surface ------------------------------------------------------------------------


def check_parse_format_round_trip(rng):
    from .expr import format_element, parse

    algebras = [
        _algebra(rank=1),
        _algebra(),
        _algebra(n=2, rank=2, p=(2, 3), t=((1, 0), (0, 0))),
    ]
    for A in algebras:
        for _ in range(8):
            P = random_element(A, rng, max_terms=3, bound=2)
            assert parse(format_element(P), A) == P, "round trip failed"


# every check_* function above, in definition order, named without the prefix
_CHECKS = tuple(
    (name.removeprefix("check_"), fn) for name, fn in globals().items() if name.startswith("check_")
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def as_text(self) -> str:
        if self.ok:
            return f"ok {self.name}"
        return f"FAIL {self.name}: {self.detail}"


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Run every invariant check with a per-check deterministic stream."""
    results = []
    for name, fn in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            fn(rng)
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # surface crashes as failures, not tracebacks
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True))
    return results
