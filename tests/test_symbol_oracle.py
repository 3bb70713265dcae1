"""Formal partials and bidifferential operators of symbols against sympy.diff.

A symbol is read as a Laurent expression in independent sympy symbols: the
tower symbol E_i, the exponential symbols u_ij = exp(g_j x_i), the position
x_i and the derivative symbol y_i.  E_i, u_ij and y_i carry their integer
exponents; x_i carries its lattice exponent a + b*g_2 (g_1 = 1), so the power
rule multiplies by that sum and lowers the g_1 coordinate.  sympy
differentiates the expression; ``gr_partial``, ``poisson_std``,
``poisson_exp`` and ``star_cochain(A, 1)``/``(A, 2)`` are read back the same
way and compared term by term.

The symbols are built from raw exponent tuples and the coefficients in
parallel as scalars and as sympy numbers; the kernel's output is read from
its monomials' exponent rows and its scalars' ``payload_data``.  Nothing here
calls the kernel's partial code except the entry points under test.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy as sp

from expweyl.algebra import Monomial, WeylAlgebra
from expweyl.deformation import gr_partial, poisson_exp, poisson_std, star_cochain
from expweyl.grading import GrElement


class Model:
    """sympy names for one signature: E_i, u_ij, x_i, y_i and g_2..g_r."""

    def __init__(self, A: WeylAlgebra):
        n, r = A.signature.n, A.signature.rank
        self.A, self.n, self.r = A, n, r
        self.E = sp.symbols(f"E_1:{n + 1}")
        self.u = [sp.symbols(f"u_{i}_1:{r + 1}") for i in range(1, n + 1)]
        self.x = sp.symbols(f"x_1:{n + 1}")
        self.y = sp.symbols(f"y_1:{n + 1}")
        self.g = (sp.Integer(1),) + sp.symbols(f"g_2:{r + 1}")

    def lattice(self, coords) -> sp.Expr:
        return sp.expand(sum((c * gj for c, gj in zip(coords, self.g)), sp.Integer(0)))

    def scalar(self, c) -> sp.Expr:
        kind, *data = c.payload_data(0)
        if kind == "rat":
            return sp.Rational(data[0].numerator, data[0].denominator)

        def poly(terms):
            return sum(
                (sp.Rational(q.numerator, q.denominator) * sp.Mul(*(g**e for g, e in zip(self.g[1:], mon)))
                 for mon, q in terms),
                sp.Integer(0),
            )

        return poly(data[0]) / poly(data[1])

    def monomial(self, m: Monomial) -> sp.Expr:
        out = sp.Integer(1)
        for i in range(self.n):
            out *= self.E[i] ** m.a[i] * self.x[i] ** self.lattice(m.gamma[i]) * self.y[i] ** m.d[i]
            out *= sp.Mul(*(uj**bj for uj, bj in zip(self.u[i], m.beta[i])))
        return out

    def expr(self, f: GrElement) -> sp.Expr:
        return sum((self.scalar(c) * self.monomial(m) for m, c in f.sorted_terms()), sp.Integer(0))

    def canonical(self, expr: sp.Expr) -> dict:
        """(exponent of each symbol, x exponents as lattice sums) -> nonzero coefficient."""
        names = list(self.E) + [uj for row in self.u for uj in row] + list(self.y)
        sums = {}
        for term in sp.Add.make_args(sp.expand(expr, power_exp=False, power_base=False)):
            ints = dict.fromkeys(names, sp.Integer(0))
            xs = dict.fromkeys(self.x, sp.Integer(0))
            coeff = sp.Integer(1)
            for f in sp.Mul.make_args(term):
                base, e = f.as_base_exp()
                if base in ints:
                    ints[base] += e
                elif base in xs:
                    xs[base] += e
                else:
                    assert not f.has(*names, *self.x), f
                    coeff *= f
            key = (tuple(ints.values()), tuple(sp.expand(e) for e in xs.values()))
            sums[key] = sums.get(key, 0) + coeff
        return {key: c for key, c in ((k, sp.cancel(c)) for k, c in sums.items()) if c != 0}

    def assert_same(self, expected: sp.Expr, f: GrElement):
        assert f.algebra is self.A
        want = self.canonical(expected)
        got = self.canonical(self.expr(f))
        assert want.keys() == got.keys(), (sorted(map(str, want)), sorted(map(str, got)))
        for key, c in want.items():
            assert sp.cancel(c - got[key]) == 0, (key, c, got[key])


def random_symbol(A: WeylAlgebra, model: Model, rng: random.Random, terms: int) -> GrElement:
    """A Laurent symbol with small exponents; at rank >= 2 some coefficients
    carry a g_j and the x exponents have g_j parts."""
    n, r = A.signature.n, A.signature.rank
    field = A.field
    out = {}
    for _ in range(terms):
        a = [rng.randint(-2, 2) for _ in range(n)]
        beta = [rng.randint(-1, 2) for _ in range(n * r)]
        gamma = [rng.randint(-2, 3) for _ in range(n * r)]
        d = [rng.randint(-1, 3) for _ in range(n)]
        c = field.from_rational(Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 3)))
        if r >= 2 and rng.random() < 0.4:
            c = c * field.generator(rng.randint(2, r)) + rng.randint(-2, 2)
        out[tuple(a + beta + gamma + d)] = c
    return GrElement(A, out)


def tags(A: WeylAlgebra):
    n, r = A.signature.n, A.signature.rank
    for i in range(1, n + 1):
        yield ("E", i)
        yield from (("u", i, j) for j in range(1, r + 1))
        yield ("x", i)
        yield ("y", i)


def gen_symbol(model: Model, tag) -> sp.Symbol:
    kind, i = tag[0], tag[1] - 1
    return {"E": model.E, "x": model.x, "y": model.y}[kind][i] if kind != "u" else model.u[i][tag[2] - 1]


# (n, rank, t)
SIGNATURES = [(1, 1, ((0,),)), (2, 1, ((1,), (0,))), (1, 2, ((0, 1),)), (2, 2, ((1, 0), (0, 1)))]


def algebras():
    for n, r, t in SIGNATURES:
        yield pytest.param(WeylAlgebra(n=n, rank=r, p=(1,) * n, t=t), id=f"n{n}-rank{r}")


@pytest.mark.parametrize("A", algebras())
def test_gr_partial_matches_sympy(A):
    model = Model(A)
    rng = random.Random(f"partial:{A.signature}")
    for _ in range(3):
        f = random_symbol(A, model, rng, terms=3)
        F = model.expr(f)
        for tag in tags(A):
            model.assert_same(sp.diff(F, gen_symbol(model, tag)), gr_partial(f, tag))


def star_oracle(model: Model, F: sp.Expr, G: sp.Expr, k: int) -> sp.Expr:
    """sum over |kappa| = k of (1/kappa!) d_y^kappa F d_x^kappa G."""
    total = sp.Integer(0)
    for kappa in product(range(k + 1), repeat=model.n):
        if sum(kappa) != k:
            continue
        dF, dG = F, G
        for yi, xi, ki in zip(model.y, model.x, kappa):
            if ki:
                dF = sp.diff(dF, yi, ki)
                dG = sp.diff(dG, xi, ki)
        total += dF * dG / math.prod(map(math.factorial, kappa))
    return total


@pytest.mark.parametrize("A", algebras())
def test_bidifferential_operators_match_sympy(A):
    model = Model(A)
    rng = random.Random(f"bidiff:{A.signature}")
    cochains = {k: star_cochain(A, k) for k in (1, 2)}
    for _ in range(2):
        f = random_symbol(A, model, rng, terms=2)
        g = random_symbol(A, model, rng, terms=2)
        F, G = model.expr(f), model.expr(g)
        std = sum(
            (sp.diff(F, xi) * sp.diff(G, yi) - sp.diff(F, yi) * sp.diff(G, xi) for xi, yi in zip(model.x, model.y)),
            sp.Integer(0),
        )
        model.assert_same(std, poisson_std(f, g))
        ex = sum(
            (Ei * (sp.diff(F, ui[0]) * sp.diff(G, xi) - sp.diff(F, xi) * sp.diff(G, ui[0]))
             for Ei, ui, xi in zip(model.E, model.u, model.x)),
            sp.Integer(0),
        )
        model.assert_same(ex, poisson_exp(f, g))
        for k, op in cochains.items():
            model.assert_same(star_oracle(model, F, G, k), op(f, g))


def test_the_symbol_oracle_tells_apart_a_wrong_partial():
    """A partial with one wrong coefficient is caught: the comparison is not vacuous."""
    A = WeylAlgebra(n=1, rank=2, t=((0, 1),))
    model = Model(A)
    f = random_symbol(A, model, random.Random(3), terms=3)
    df = gr_partial(f, ("x", 1))
    assert df
    m, c = df.sorted_terms()[0]
    wrong = GrElement(A, {**df.terms, m.exps: c * 2})
    with pytest.raises(AssertionError):
        model.assert_same(sp.diff(model.expr(f), model.x[0]), wrong)
