"""Truncated deformation calculus on graded symbols.

The commutative symbol algebra carries formal partial derivatives with
respect to each generator class (tower symbols E_i, exponential symbols
exp(g_j x_i), positions x_i, derivative symbols y_i).  Bidifferential
operators built from those partials give Poisson-type brackets, the
normal-ordered star product, and order-by-order associativity defects.
The star product is checked against an operator-level oracle: the actual
noncommutative product with every term weighted by hbar to the number of
derivative contractions it consumed.

Sign conventions, fixed once here: the coboundary of a 2-cochain m is
[mul, m] (gerstenhaber bracket against the commutative product), which is
the negative of the alternating-sum convention.  With this orientation
the order-2 associativity defect of mul + hbar m1 + hbar^2 m2 equals
delta m2 + (1/2)[m1, m1] on the nose; the product is associative through
hbar^2 exactly when that expression vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, Monomial, WeylAlgebra, _Sparse, add_terms
from .errors import (
    HbarModeOff,
    NotAntisymmetric,
    SignatureMismatch,
    UnsupportedElement,
)
from .grading import GrElement
from .scalars import GroupElement, Scalar

__all__ = [
    "gr_partial",
    "PolyDiffOp",
    "poisson_std_op",
    "poisson_exp_op",
    "poisson_std",
    "poisson_exp",
    "lambda_bracket",
    "star_cochain",
    "symbol_star",
    "lift_symbol",
    "gr_power",
    "gr_hbar_coefficient",
    "contraction_graded_product",
    "DefectReport",
    "star_assoc_check",
    "AntisymMatrix",
    "rank2_cochain",
    "rank2_product",
    "rank2_commutator",
    "TShiftReport",
    "t_shift_deform",
    "gerstenhaber_bracket",
    "hochschild_coboundary",
    "mc_residual",
]


# -- formal partials ----------------------------------------------------------


def _check_gen(algebra: WeylAlgebra, gen: tuple) -> None:
    n, r = algebra.signature.n, algebra.signature.rank
    kind = gen[0]
    if kind in ("E", "x", "y"):
        if len(gen) != 2 or not 1 <= gen[1] <= n:
            raise SignatureMismatch(f"bad generator tag {gen!r}")
    elif kind == "u":
        if len(gen) != 3 or not 1 <= gen[1] <= n or not 1 <= gen[2] <= r:
            raise SignatureMismatch(f"bad generator tag {gen!r}")
    else:
        raise SignatureMismatch(f"unknown generator kind {kind!r}")


def gr_partial(f: GrElement, gen: tuple) -> GrElement:
    """Formal partial derivative of a symbol with respect to one generator.

    Tags: ("x", i) and ("y", i) for position and derivative symbols,
    ("E", i) for the tower symbol, ("u", i, j) for exp(g_j x_i).  The power
    rule applies formally, negative exponents included.  For ("x", i) the
    coefficient is the embedded lattice exponent and the whole power vector
    drops by g_1, so x_i^alpha differentiates to alpha x_i^(alpha - g_1).
    """
    algebra = f.algebra
    _check_gen(algebra, gen)
    field = algebra.field
    kind, i0 = gen[0], gen[1] - 1
    part = {"E": "a", "u": "beta", "x": "gamma", "y": "d"}[kind]
    pos = algebra.slot(part, i0) + (gen[2] - 1 if kind == "u" else 0)
    delta = [0] * len(algebra.one_monomial.exps)
    delta[pos] = -1
    r = algebra.signature.rank
    out: dict[Monomial, Scalar] = {}
    for m, c in f.terms.items():
        if kind == "x":
            expo = field.embed(GroupElement(m.exps[pos : pos + r]))
        else:
            expo = field.from_rational(m.exps[pos])
        if expo:
            # a fixed shift keeps the monomials distinct: nothing to merge
            out[m.shift(delta)] = c * expo
    return GrElement(algebra, out)


def _apply_word(f: GrElement, word: tuple) -> GrElement:
    for gen in word:
        if f.is_zero:
            return f
        f = gr_partial(f, gen)
    return f


# -- bidifferential operators -------------------------------------------------


class PolyDiffOp(_Sparse):
    """Bidifferential operator on symbols: a sum of coeff * (d_wl (x) d_wr).

    The constructor takes (wl, wr, coeff) triples.  A word is a tuple of
    generator tags; partials commute, so words are kept sorted.
    Coefficients are symbols over the same algebra (plain scalars, ints,
    and fractions are promoted to constants).  Calling the
    operator on a pair of symbols is bilinear by construction.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra: WeylAlgebra, terms):
        one = _gr_one_term(algebra, algebra.one_monomial)  # times a scalar: a constant

        def normalized():
            for wl, wr, coeff in terms:
                wl = tuple(sorted(wl))
                wr = tuple(sorted(wr))
                for g in wl + wr:
                    _check_gen(algebra, g)
                yield (wl, wr), one * coeff

        self.algebra = algebra
        self._set_terms(add_terms({}, normalized()))

    def __call__(self, f: GrElement, g: GrElement) -> GrElement:
        if f.algebra is not self.algebra or g.algebra is not self.algebra:
            raise SignatureMismatch("operands live over a different algebra instance")
        out = GrElement(self.algebra, {})
        for (wl, wr), coeff in self.terms.items():
            df = _apply_word(f, wl)
            if df.is_zero:
                continue
            dg = _apply_word(g, wr)
            if dg.is_zero:
                continue
            out = out + coeff * df * dg
        return out

    def word_product(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """Factor-wise product: words concatenate, coefficients multiply.

        This is the composition of the underlying bilinear forms only when
        the coefficients are constants, which covers bracket powers.
        """
        if other.algebra is not self.algebra:
            raise SignatureMismatch("operators over different algebras")
        terms = []
        for (wl1, wr1), c1 in self.terms.items():
            for (wl2, wr2), c2 in other.terms.items():
                terms.append((wl1 + wl2, wr1 + wr2, c1 * c2))
        return PolyDiffOp(self.algebra, terms)

    def __repr__(self):
        return f"PolyDiffOp({len(self.terms)} words)"


# -- poisson structures -------------------------------------------------------


def _gr_one_term(algebra: WeylAlgebra, m: Monomial) -> GrElement:
    return GrElement(algebra, {m: algebra.field.one})


def poisson_std_op(algebra: WeylAlgebra) -> PolyDiffOp:
    """{f,g} = sum_i (df/dx_i dg/dy_i - df/dy_i dg/dx_i)."""
    terms = []
    for i in range(1, algebra.signature.n + 1):
        terms.append(((("x", i),), (("y", i),), 1))
        terms.append(((("y", i),), (("x", i),), -1))
    return PolyDiffOp(algebra, terms)


def poisson_exp_op(algebra: WeylAlgebra) -> PolyDiffOp:
    """{f,g} = sum_i E_i (df/du_i1 dg/dx_i - df/dx_i dg/du_i1)."""
    terms = []
    for i in range(1, algebra.signature.n + 1):
        Ei = _gr_one_term(algebra, algebra.monomial(i, a=1))
        terms.append(((("u", i, 1),), (("x", i),), Ei))
        terms.append(((("x", i),), (("u", i, 1),), -Ei))
    return PolyDiffOp(algebra, terms)


def poisson_std(f: GrElement, g: GrElement) -> GrElement:
    return poisson_std_op(f.algebra)(f, g)


def poisson_exp(f: GrElement, g: GrElement) -> GrElement:
    return poisson_exp_op(f.algebra)(f, g)


def lambda_bracket(f: GrElement, g: GrElement, lam) -> GrElement:
    """Interpolated bracket lam*std + (1-lam)*exp; a Poisson bracket for every lam."""
    return lam * poisson_std(f, g) + (f.algebra.field.one - lam) * poisson_exp(f, g)


# -- star product -------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def star_cochain(algebra: WeylAlgebra, k: int) -> PolyDiffOp:
    """Order-k term of the normal-ordered star product:
    sum over |kappa| = k of (1/kappa!) d_y^kappa (x) d_x^kappa."""
    if k < 0:
        raise UnsupportedElement("cochain order must be nonnegative")
    n = algebra.signature.n
    terms = []
    for kappa in _compositions(k, n):
        fact = 1
        wl: list[tuple] = []
        wr: list[tuple] = []
        for i, ki in enumerate(kappa, start=1):
            fact *= math.factorial(ki)
            wl.extend([("y", i)] * ki)
            wr.extend([("x", i)] * ki)
        terms.append((tuple(wl), tuple(wr), Fraction(1, fact)))
    return PolyDiffOp(algebra, terms)


def lift_symbol(f: GrElement, target: WeylAlgebra) -> GrElement:
    """The same symbol over an ops-sharing twin algebra."""
    if f.algebra is target:
        return f
    field = target.field
    return GrElement(target, {m: field.lift(c) for m, c in f.terms.items()})


def symbol_star(f: GrElement, g: GrElement, N: int, halg: WeylAlgebra | None = None) -> GrElement:
    """Star product of symbols truncated at hbar^N.

    The result lives over an hbar twin of the operand algebra (created at
    order N when halg is not supplied; operands already over an hbar
    algebra are used as-is).  The y (x) x contraction words reproduce the
    normal-ordered operator product on positive-power Weyl elements.
    """
    algebra = f.algebra
    if g.algebra is not algebra:
        raise SignatureMismatch("operands live over different algebras")
    if halg is None:
        halg = algebra if algebra.field.hbar_order is not None else algebra.with_hbar(N)
    if halg.field.hbar_order is None:
        raise HbarModeOff("star products need an hbar-truncated coefficient field")
    fl = lift_symbol(f, halg)
    gl = lift_symbol(g, halg)
    hb = halg.field.hbar
    out = fl * gl
    for k in range(1, N + 1):
        term = star_cochain(halg, k)(fl, gl)
        if term.is_zero:
            continue
        out = out + hb**k * term
    return out


def gr_hbar_coefficient(f, k: int, base: WeylAlgebra):
    """The hbar^k coefficient of a symbol (GrElement) or an operator
    (Element), of the same type, over the classical algebra."""
    if base.field is not f.algebra.field.base:
        raise SignatureMismatch("base algebra does not match the coefficient field")
    return type(f)(base, {m: c.hbar_coefficient(k) for m, c in f.terms.items()})


# -- operator-level oracle ----------------------------------------------------


def _check_positive_weyl(P: Element) -> None:
    for m in P.terms:
        if any(m.a) or any(any(row) for row in m.beta):
            raise UnsupportedElement("oracle needs pure polynomial-derivative terms")
        for row in m.gamma:
            if row[0] < 0 or any(row[1:]):
                raise UnsupportedElement("oracle needs nonnegative integer powers")


def contraction_graded_product(P: Element, Q: Element, N: int, halg: WeylAlgebra | None = None) -> GrElement:
    """Product of positive-power Weyl elements with each output term weighted
    by hbar^k, k the number of derivative contractions it consumed (the drop
    in total derivative degree).  Agrees with symbol_star of the full symbols
    once N reaches the total derivative degree of the left factor.
    """
    algebra = P.algebra
    if Q.algebra is not algebra:
        raise SignatureMismatch("operands live over different algebras")
    _check_positive_weyl(P)
    _check_positive_weyl(Q)
    if halg is None:
        halg = algebra.with_hbar(N)
    hfield = halg.field
    hb = hfield.hbar

    def weighted_terms():
        for mP, cP in P.terms.items():
            left = algebra.from_term(mP)
            dP = sum(mP.d)
            for mQ, cQ in Q.terms.items():
                dPQ = dP + sum(mQ.d)
                prod = algebra.mul(left, algebra.from_term(mQ))
                cPQ = cP * cQ
                for m, c in prod.terms.items():
                    k = dPQ - sum(m.d)
                    if k <= N:
                        yield m, hfield.lift(cPQ * c) * hb**k

    return GrElement(halg, add_terms({}, weighted_terms()))


# -- associativity defects ----------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Outcome of an order-by-order associativity check."""

    max_order: int
    triples: int
    first_nonzero: int | None
    triple_index: int | None
    residual: GrElement | None

    @property
    def associative(self) -> bool:
        return self.first_nonzero is None

    def as_text(self) -> str:
        if self.associative:
            return f"associative through hbar^{self.max_order} on {self.triples} triples"
        return (
            f"defect at hbar^{self.first_nonzero} on triple {self.triple_index}"
            f" (checked through hbar^{self.max_order})"
        )


def star_assoc_check(cochains, triples) -> DefectReport:
    """Associativity of mul + hbar m_1 + ... + hbar^N m_N order by order on
    given triples.

    cochains is the list [m_1, ..., m_N]; each entry is a PolyDiffOp or any
    bilinear callable on symbols.  The order-s defect is
    sum_{i+j=s} m_i(m_j(f,g),h) - m_i(f,m_j(g,h)) with m_0 the commutative
    product.  Reports the first nonzero order with its residual, scanning
    triples in the order given.
    """
    cochains = list(cochains)
    N = len(cochains)
    triples = list(triples)

    def ev(k, u, v):
        return u * v if k == 0 else cochains[k - 1](u, v)

    for idx, (f, g, h) in enumerate(triples):
        for s in range(1, N + 1):
            defect = None
            for i in range(s + 1):
                fg, gh = ev(s - i, f, g), ev(s - i, g, h)
                left = ev(i, fg, h)
                defect = (left if defect is None else defect + left) - ev(i, f, gh)
            if not defect.is_zero:
                return DefectReport(N, len(triples), s, idx, defect)
    return DefectReport(N, len(triples), None, None, None)


# -- rank-2 exponential deformation -------------------------------------------


@dataclass(frozen=True)
class AntisymMatrix:
    """Antisymmetric pairing on lattice exponents, given by entries c[j][k]."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(c) for c in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        r = len(rows)
        if any(len(row) != r for row in rows):
            raise NotAntisymmetric("pairing matrix must be square")
        for j in range(r):
            for k in range(r):
                if rows[j][k] != -rows[k][j]:
                    raise NotAntisymmetric(f"entries ({j + 1},{k + 1}) and ({k + 1},{j + 1}) do not negate")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def pairing(self, alpha: GroupElement, beta: GroupElement) -> Fraction:
        """Bilinear extension c_{alpha,beta} = sum a_j b_k c[j][k]."""
        acc = Fraction(0)
        for j, aj in enumerate(alpha.coords):
            if aj == 0:
                continue
            row = self.entries[j]
            for k, bk in enumerate(beta.coords):
                if bk:
                    acc += aj * bk * row[k]
        return acc


def gr_power(algebra: WeylAlgebra, alpha) -> GrElement:
    """The symbol x_1^alpha."""
    return _gr_one_term(algebra, algebra.monomial(1, gamma=algebra.lattice(alpha)))


def rank2_cochain(algebra: WeylAlgebra, c: AntisymMatrix):
    """First-order cochain of the exponential-lattice deformation:
    m1(x^alpha, x^beta) = c_{alpha,beta} E x^(alpha+beta), extended bilinearly.

    Defined on symbols in pure powers of the one position variable.
    """
    if algebra.signature.n != 1:
        raise UnsupportedElement("lattice deformation is defined for one variable")
    if c.rank != algebra.signature.rank:
        raise SignatureMismatch("pairing rank does not match the signature")
    field = algebra.field

    def pure_power(m: Monomial) -> GroupElement:
        if any(m.a) or any(any(row) for row in m.beta) or any(m.d):
            raise UnsupportedElement("deformation cochain needs pure power symbols")
        return GroupElement(m.gamma[0])

    def m1(f: GrElement, g: GrElement) -> GrElement:
        if f.algebra is not algebra or g.algebra is not algebra:
            raise SignatureMismatch("operands live over a different algebra instance")

        def paired_terms():
            for mf, cf in f.terms.items():
                alpha = pure_power(mf)
                for mg, cg in g.terms.items():
                    beta = pure_power(mg)
                    pair = c.pairing(alpha, beta)
                    if pair != 0:
                        coeff = cf * cg * field.from_rational(pair)
                        yield algebra.monomial(1, a=1, gamma=alpha + beta), coeff

        return GrElement(algebra, add_terms({}, paired_terms()))

    return m1


def rank2_product(algebra: WeylAlgebra, c: AntisymMatrix, alpha, beta) -> GrElement:
    """Deformed product of x^alpha and x^beta mod hbar^2:
    x^(alpha+beta) + hbar c_{alpha,beta} E x^(alpha+beta)."""
    halg = algebra.with_hbar(1) if algebra.field.hbar_order is None else algebra
    m1 = rank2_cochain(halg, c)
    f = gr_power(halg, alpha)
    g = gr_power(halg, beta)
    return f * g + halg.field.hbar * m1(f, g)


def rank2_commutator(algebra: WeylAlgebra, c: AntisymMatrix, alpha, beta) -> GrElement:
    """Deformed commutator mod hbar^2, equal to 2 hbar c_{alpha,beta} E x^(alpha+beta)."""
    return rank2_product(algebra, c, alpha, beta) - rank2_product(algebra, c, beta, alpha)


# -- shifted differentiation rule ---------------------------------------------


@dataclass(frozen=True)
class TShiftReport:
    """The deformed derivative-past-tower rule at a given truncation order."""

    order: int
    var: int
    rule: Element
    classical: Element
    first_order: Element

    def as_text(self) -> str:
        dev = "nonzero" if not self.first_order.is_zero else "zero"
        return f"t-shift rule at order {self.order}, var {self.var}: hbar^1 deviation {dev}"


def t_shift_deform(algebra: WeylAlgebra, N: int, var: int = 1) -> TShiftReport:
    """Differentiation rule table for the shifted tower exponent t + hbar x.

    Builds the order-N twin, computes D_var E_var there, and splits off the
    classical part and the first-order deviation over the base algebra.  At
    N = 0 the rule collapses to the classical relation.
    """
    if N is None:
        raise HbarModeOff("t-shift deformation needs a truncation order")
    talg = algebra.with_t_shift(N)
    rule = talg.mul(talg.D(var), talg.E(var))
    classical = gr_hbar_coefficient(rule, 0, algebra)
    if N >= 1:
        first = gr_hbar_coefficient(rule, 1, algebra)
    else:
        first = algebra.zero
    return TShiftReport(N, var, rule, classical, first)


# -- gerstenhaber bracket and maurer-cartan -----------------------------------


def gerstenhaber_bracket(m, mp):
    """[m, m'] = m o m' + m' o m on bilinear 2-cochains, where
    (a o b)(f,g,h) = a(b(f,g),h) - a(f,b(g,h))."""

    def bracket(f: GrElement, g: GrElement, h: GrElement) -> GrElement:
        return (
            m(mp(f, g), h)
            - m(f, mp(g, h))
            + mp(m(f, g), h)
            - mp(f, m(g, h))
        )

    return bracket


def hochschild_coboundary(m):
    """delta m = [mul, m]: (delta m)(f,g,h) = m(f,g)h - f m(g,h) + m(fg,h) - m(f,gh).

    This is the deformation-complex orientation (negative of the
    alternating-sum convention); see the module docstring.
    """

    def prod(f: GrElement, g: GrElement) -> GrElement:
        return f * g

    return gerstenhaber_bracket(prod, m)


def mc_residual(m1, m2, f: GrElement, g: GrElement, h: GrElement) -> GrElement:
    """delta m2 + (1/2)[m1,m1] on a triple: the order-2 associativity defect
    of mul + hbar m1 + hbar^2 m2."""
    cb = hochschild_coboundary(m2)(f, g, h)
    br = gerstenhaber_bracket(m1, m1)(f, g, h)
    return cb + br * Fraction(1, 2)
