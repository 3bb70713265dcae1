"""The derivative rule of function elements against sympy.diff.

A function element is written as a sympy expression: E_i becomes
exp(x_i**p_i * exp(t_i*x_i)) (with the t-shift, exp(x_i**p_i * exp(t_i*x_i +
hbar*x_i**2)), hbar a symbol), exp(beta*x_i) and x_i**gamma keep their
lattice exponents as sums a + b*g_2 + ..., and g_1 = 1.  sympy differentiates
that expression; the kernel's answer from ``diff_function``, from ``act`` of
D^k (k <= 2) and from the commutator [D_i, f] is written the same way.

Neither side is simplified.  Each is expanded into terms, and each term is
read as coefficient * prod T_i^a_i * exp(linear) * prod x_i^e_i, where T_i
stands for the tower factor, the exp(...) factors sum into one linear
exponent and the powers of x_i sum into one exponent.  The coefficients of
equal (a, linear, e) keys are summed; with the t-shift, exp(hbar*x_i**2) is
replaced by its series and every coefficient is truncated after hbar^N.
The two sums must have the same keys and the same coefficients.

Nothing here calls the kernel's derivative code except the three entry
points under test; the expressions are built from the raw exponent data.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp

from expweyl.algebra import Monomial, WeylAlgebra
from expweyl.representation import act
from expweyl.sampling import random_element, random_function_element

HBAR = sp.Symbol("hbar")


class Model:
    """sympy names for one signature: x_i, g_j, the tower symbols T_i."""

    def __init__(self, A: WeylAlgebra):
        sig = A.signature
        self.A = A
        self.n, self.rank = sig.n, sig.rank
        self.N = sig.hbar_order if sig.t_shift else None
        self.x = sp.symbols(f"x_1:{self.n + 1}")
        self.T = sp.symbols(f"T_1:{self.n + 1}")
        self.g = (sp.Integer(1),) + sp.symbols(f"g_2:{self.rank + 1}")
        shift = [HBAR * xi**2 if self.N is not None else 0 for xi in self.x]
        self.inner = [
            xi**pi * sp.exp(self.lattice(ti) * xi + si)
            for xi, pi, ti, si in zip(self.x, sig.p, sig.t, shift)
        ]

    def lattice(self, coords) -> sp.Expr:
        return sum((c * gj for c, gj in zip(coords, self.g)), sp.Integer(0))

    def scalar(self, c) -> sp.Expr:
        names = {f"g_{j + 1}": gj for j, gj in enumerate(self.g) if j}
        names["hbar"] = HBAR
        return sp.parse_expr(str(c).replace("^", "**"), local_dict=names)

    def function(self, P, towers: bool) -> sp.Expr:
        """P as an expression; the tower factor is exp(a*inner) or T^a."""
        total = sp.Integer(0)
        for m, c in P.terms.items():
            assert not any(m.d), "not a function element"
            term = self.scalar(c)
            for i, xi in enumerate(self.x):
                a = m.a[i]
                term *= sp.exp(a * self.inner[i]) if towers else self.T[i] ** a
                term *= sp.exp(self.lattice(m.beta[i]) * xi) * xi ** self.lattice(m.gamma[i])
            total += term
        return total

    def untower(self, expr: sp.Expr) -> sp.Expr:
        """Tower factors exp(a*inner_i) become T_i^a; with the t-shift the
        remaining exp(t*x + hbar*x**2) factors become exp(t*x) times the
        truncated series of exp(hbar*x**2)."""

        def power(e):
            for Ti, inner in zip(self.T, self.inner):
                a = sp.cancel(e.args[0] / inner)
                if a.is_Integer:
                    return Ti**a
            raise AssertionError(f"unrecognized tower factor {e}")

        expr = expr.replace(lambda e: e.func is sp.exp and e.args[0].has(sp.exp), power)
        if self.N is None:
            return expr

        def series(e):
            arg = e.args[0]
            rest = sp.expand(arg - arg.subs(HBAR, 0))
            return sp.exp(arg.subs(HBAR, 0)) * sum(rest**k / math.factorial(k) for k in range(self.N + 1))

        return expr.replace(lambda e: e.func is sp.exp and e.args[0].has(HBAR), series)

    def canonical(self, expr: sp.Expr) -> dict:
        """(T exponents, linear exponent, x exponents) -> nonzero coefficient."""
        sums = {}
        for term in sp.Add.make_args(sp.expand(expr, power_base=False, power_exp=False, log=False)):
            tpow, lin, xpow, coeff = [0] * self.n, sp.Integer(0), [0] * self.n, sp.Integer(1)
            for f in sp.Mul.make_args(term):
                base, e = f.as_base_exp()
                if f.func is sp.exp:
                    lin += f.args[0]
                elif base in self.T:
                    tpow[self.T.index(base)] += e
                elif base in self.x:
                    xpow[self.x.index(base)] += e
                else:
                    assert not f.has(*self.x, *self.T), f
                    coeff *= f
            key = (tuple(tpow), sp.expand(lin), tuple(sp.expand(e) for e in xpow))
            sums[key] = sums.get(key, 0) + coeff
        out = {}
        for key, c in sums.items():
            c = sp.expand(c)
            if self.N is not None:
                c = sum(c.coeff(HBAR, k) * HBAR**k for k in range(self.N + 1))
            if c != 0:
                out[key] = c
        return out

    def assert_same(self, expected: sp.Expr, P):
        want = self.canonical(self.untower(expected))
        got = self.canonical(self.function(P, towers=False))
        assert want.keys() == got.keys(), (sorted(map(str, want)), sorted(map(str, got)))
        for key, c in want.items():
            assert sp.expand(c - got[key]) == 0, (key, c, got[key])


def _random_function(A: WeylAlgebra, rng: random.Random):
    """One or two function monomials with small exponents and rational coefficients."""
    n, r = A.signature.n, A.signature.rank
    P = A.zero
    for _ in range(rng.randint(1, 2)):
        a = [rng.randint(-2, 2) for _ in range(n)]
        beta = [rng.randint(-2, 2) for _ in range(n * r)]
        gamma = [rng.randint(-2, 3) for _ in range(n * r)]
        m = Monomial(tuple(a + beta + gamma + [0] * n), n)
        P = P + A.from_term(m, Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3)))
    return P


def _t(rng, rank):
    while True:
        t = tuple(rng.randint(-1, 2) for _ in range(rank))
        if any(t):
            return t


# (n, rank, p, t-shift order or None); every t is nonzero
CASES = [
    (1, 1, (1,), None),
    (1, 1, (2,), None),
    (1, 1, (3,), None),
    (1, 2, (1,), None),
    (1, 2, (2,), None),
    (1, 2, (3,), None),
    (2, 1, (1, 2), None),
    (2, 2, (3, 1), None),
    (1, 1, (2,), 1),
    (1, 2, (1,), 1),
    (1, 1, (3,), 2),
    (1, 2, (2,), 2),
]


@pytest.mark.parametrize(
    "n, rank, p, N",
    [pytest.param(n, r, p, N, id=f"n{n}-rank{r}-p{','.join(map(str, p))}-tshift{N}") for n, r, p, N in CASES],
)
def test_derivative_rule_matches_sympy(n, rank, p, N):
    rng = random.Random(f"{n}:{rank}:{p}:{N}")
    t = tuple(_t(rng, rank) for _ in range(n))
    if N is None:
        A = WeylAlgebra(n=n, rank=rank, p=p, t=t)
    else:
        A = WeylAlgebra(n=n, rank=rank, p=p, t=t, hbar_order=N, t_shift=True)
    model = Model(A)
    for _ in range(2):
        P = _random_function(A, rng)
        f = model.function(P, towers=True)
        for i, xi in enumerate(model.x, start=1):
            df = sp.diff(f, xi)
            model.assert_same(df, A.diff_function(P, i))
            model.assert_same(df, A.commutator(A.D(i), P))
            model.assert_same(df, act(A.D(i), P))
            model.assert_same(sp.diff(df, xi), act(A.D(i, 2), P))
        if n == 2:
            model.assert_same(sp.diff(f, *model.x), act(A.D(1) * A.D(2), P))


def test_the_canonical_form_tells_apart_a_wrong_rule():
    """A derivative with one wrong coefficient is caught: the comparison is
    not vacuous."""
    A = WeylAlgebra(n=1, rank=2, p=(2,), t=((1, 1),))
    model = Model(A)
    P = A.E(1) * A.x(1, (1, 1))
    wrong = A.diff_function(P, 1) + A.E(1) * A.x(1, (1, 1))
    with pytest.raises(AssertionError):
        model.assert_same(sp.diff(model.function(P, towers=True), model.x[0]), wrong)


@pytest.mark.parametrize(
    "n, rank, p, N, H",
    [
        pytest.param(n, r, p, N, None, id=f"n{n}-rank{r}-p{','.join(map(str, p))}-tshift{N}")
        for n, r, p, N in CASES
    ]
    + [pytest.param(2, 2, (3, 1), None, 2, id="n2-rank2-p3,1-hbar2")],
)
def test_action_is_a_homomorphism(n, rank, p, N, H, monkeypatch):
    """act(P*Q, f) == act(P, act(Q, f)) on every signature above and on a
    plain hbar twin (order H): the action, tied to sympy by the test above,
    is the oracle for the product kernel on every payload kind.  P and Q have
    D-orders up to 3."""
    rng = random.Random(f"act:{n}:{rank}:{p}:{N}:{H}")
    t = tuple(_t(rng, rank) for _ in range(n))
    if N is None:
        A = WeylAlgebra(n=n, rank=rank, p=p, t=t)
        A = A if H is None else A.with_hbar(H)
    else:
        A = WeylAlgebra(n=n, rank=rank, p=p, t=t, hbar_order=N, t_shift=True)
    # in an hbar field, operand coefficients with an hbar part
    scale = 1 if A.field.hbar_order is None else 1 - A.field.hbar / 3

    def operand():
        P = random_element(A, rng, max_terms=2, bound=2) * scale
        return P * A.D(rng.randint(1, n), rng.randint(0, 1))

    cases = []
    for _ in range(6):
        P, Q = operand(), operand()
        f = random_function_element(A, rng, max_terms=2, bound=2)
        cases.append((P, Q, f, P * Q))

    # the action is the oracle for the product, so it must not use it
    def refuse(*args):
        raise AssertionError("act called WeylAlgebra.mul")

    monkeypatch.setattr(WeylAlgebra, "mul", refuse)
    for P, Q, f, PQ in cases:
        assert act(PQ, f) == act(P, act(Q, f))
