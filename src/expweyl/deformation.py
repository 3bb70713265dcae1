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
from operator import add

from .algebra import Element, Monomial, WeylAlgebra, _Sparse, add_terms
from .errors import (
    HbarModeOff,
    NotAntisymmetric,
    SignatureMismatch,
    UnsupportedElement,
)
from .grading import GrElement, _mul_terms
from .representation import _compositions

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
    _check_gen(f.algebra, gen)
    return f._with(_partial(f.algebra, f.terms, gen))


def _partial(algebra: WeylAlgebra, terms: dict, gen: tuple) -> dict:
    """gr_partial on {exponent tuple: payload}: the tag's slot drops by one
    and the payload is multiplied by the exponent's (the embedded lattice
    row for ("x", i)).  A fixed shift keeps the tuples distinct: nothing to
    merge."""
    field = algebra.field
    pmul = field.ops.mul
    kind, i0 = gen[0], gen[1] - 1
    part = {"E": "a", "u": "beta", "x": "gamma", "y": "d"}[kind]
    pos = algebra.slot(part, i0) + (gen[2] - 1 if kind == "u" else 0)
    width = algebra.signature.rank if kind == "x" else 1
    out = {}
    for e, c in terms.items():
        row = e[pos : pos + width]
        if any(row):
            expo = field.embed(row) if kind == "x" else field.from_rational(row[0])
            out[e[:pos] + (row[0] - 1,) + e[pos + 1 :]] = pmul(c, expo.pay)
    return out


def _apply_word(algebra: WeylAlgebra, memo: dict, word: tuple) -> dict:
    """The partial d_word of one operand, read through its memo.

    The memo maps sorted words to that operand's partials and is seeded with
    {(): terms}.  A word is derived from its prefix word[:-1], itself
    derived and memoized first, so each distinct (operand, word) costs one
    _partial step.  Memoized dicts are shared: callers never mutate them."""
    terms = memo.get(word)
    if terms is None:
        j = len(word) - 1
        while word[:j] not in memo:
            j -= 1
        terms = memo[word[:j]]
        for j in range(j, len(word)):
            terms = memo[word[: j + 1]] = _partial(algebra, terms, word[j]) if terms else terms
    return terms


def _nonzero(terms: dict) -> dict:
    """terms without its zero sums (the dict itself when it has none), as a
    GrElement would keep them."""
    return terms if all(terms.values()) else {e: c for e, c in terms.items() if c}


# -- bidifferential operators -------------------------------------------------


class PolyDiffOp(_Sparse):
    """Bidifferential operator on symbols: a sum of coeff * (d_wl (x) d_wr).

    The constructor takes (wl, wr, coeff) triples.  A word is a tuple of
    generator tags; partials commute, so words are kept sorted.
    Coefficients are symbols over the same algebra (plain scalars, ints,
    and fractions are promoted to constants), so the values of ``terms``
    are GrElements, added as such by ``+``; operators are not negated or
    scaled.  Calling the operator on a pair of symbols is bilinear.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra: WeylAlgebra, terms):
        checked: set[tuple] = set()

        def normalized():
            for wl, wr, coeff in terms:
                wl = tuple(sorted(wl))
                wr = tuple(sorted(wr))
                for g in wl + wr:
                    if g not in checked:
                        _check_gen(algebra, g)
                        checked.add(g)
                if not isinstance(coeff, GrElement):  # a scalar is a constant symbol
                    coeff = GrElement(algebra, algebra.scalar_element(coeff).terms)
                elif coeff.algebra is not algebra:
                    raise SignatureMismatch("coefficient lives over a different algebra instance")
                yield (wl, wr), coeff

        self.algebra = algebra
        self._set_terms(add_terms({}, normalized()))

    def __call__(self, f: GrElement, g: GrElement) -> GrElement:
        """sum of coeff * (d_wl f) * (d_wr g), accumulated on exponent tuples
        and payloads into one symbol.

        Each operand's partials are memoized for this call only, so a word
        shared by several terms (or a prefix of a longer word) is derived
        once; ``symbol_star`` and ``star_assoc_check`` keep the memos across
        their cochains through ``_eval``."""
        A = self.algebra
        if f.algebra is not A or g.algebra is not A:
            raise SignatureMismatch("operands live over a different algebra instance")
        return f._with(self._eval({(): f.terms}, {(): g.terms}))

    def _eval(self, pf: dict, pg: dict) -> dict:
        """The operator on two operands given as partials memos (see
        ``_apply_word``), as {exponent tuple: payload} with zeros dropped.
        A coefficient that is the constant unit symbol multiplies nothing."""
        A = self.algebra
        ops = A.field.ops
        unit = {A.one_monomial: ops.one}
        out: dict = {}
        for (wl, wr), coeff in self.terms.items():
            df = _apply_word(A, pf, wl)
            if not df:
                continue
            dg = _apply_word(A, pg, wr)
            if not dg:
                continue
            cdf = df if coeff.terms == unit else _mul_terms(ops, coeff.terms, df)
            _mul_terms(ops, cdf, dg, out)
        return _nonzero(out)

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        return self._with(add_terms(dict(self.terms), other.terms.items()))

    # the inherited negation and scalings would run payload ops on GrElements
    __neg__ = __sub__ = __mul__ = __rmul__ = None

    def __repr__(self):
        return f"PolyDiffOp({len(self.terms)} words)"


# -- poisson structures -------------------------------------------------------


def _gr_one_term(algebra: WeylAlgebra, e: tuple[int, ...]) -> GrElement:
    return GrElement(algebra, {e: algebra.field.one})


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


def star_cochain(algebra: WeylAlgebra, k: int) -> PolyDiffOp:
    """Order-k term of the normal-ordered star product:
    sum over |kappa| = k of (1/kappa!) d_y^kappa (x) d_x^kappa.

    Built once per algebra and k; the operator is shared, so callers treat
    it as immutable (a sum builds a new operator)."""
    if k < 0:
        raise UnsupportedElement("cochain order must be nonnegative")
    hit = algebra._star_cache.get(k)
    if hit is not None:
        return hit
    n = algebra.signature.n
    terms = []
    for kappa in _compositions(n, k, k):
        fact = 1
        wl: list[tuple] = []
        wr: list[tuple] = []
        for i, ki in enumerate(kappa, start=1):
            fact *= math.factorial(ki)
            wl.extend([("y", i)] * ki)
            wr.extend([("x", i)] * ki)
        terms.append((tuple(wl), tuple(wr), Fraction(1, fact)))
    op = algebra._star_cache[k] = PolyDiffOp(algebra, terms)
    return op


def symbol_star(f: GrElement, g: GrElement, N: int, halg: WeylAlgebra | None = None) -> GrElement:
    """Star product of symbols truncated at hbar^N.

    The operands are classical symbols, over an algebra without hbar; the
    result lives over an hbar twin of that algebra (created at order N when
    halg is not supplied).  The y (x) x contraction words reproduce the
    normal-ordered operator product on positive-power Weyl elements.

    Each order's symbol is evaluated over the operands' algebra, so the
    partials work on plain slot payloads, and its terms are written straight
    into hbar slot k of the result's payload series.

    Each operand's partials are memoized once for this call and shared by
    all orders 1..N (see ``PolyDiffOp._eval``).  Order k applies
    d_y^kappa with |kappa| = k to f, so when f's y exponents are D powers
    (nonnegative) every order past f's largest total y-degree is zero and
    is not evaluated; the result still lives over halg, of order N.
    """
    algebra = f.algebra
    if g.algebra is not algebra:
        raise SignatureMismatch("operands live over different algebras")
    if algebra.field.hbar_order is not None:
        raise SignatureMismatch("star products take symbols over an algebra without hbar")
    if halg is None:
        halg = algebra.with_hbar(N)
    hfield = halg.field
    if hfield.hbar_order is None:
        raise HbarModeOff("star products need an hbar-truncated coefficient field")
    if (f.terms or g.terms) and algebra.field.ops is not hfield.base.ops:
        raise SignatureMismatch("scalar does not lift into this field")
    zero, slots = hfield.base.ops.zero, hfield.slots
    n = algebra.signature.n
    top = max((sum(e[-n:]) if min(e[-n:]) >= 0 else N for e in f.terms), default=0)
    pf, pg = {(): f.terms}, {(): g.terms}
    orders = [(f * g).terms]
    orders += [star_cochain(algebra, k)._eval(pf, pg) for k in range(1, min(N, slots - 1, top) + 1)]
    # order k writes slot k of each row once
    rows: dict = {}
    for k, terms in enumerate(orders):
        for e, c in terms.items():
            rows.setdefault(e, [zero] * slots)[k] = c
    lift = hfield.ops.lift
    return GrElement(halg, {})._with({e: lift(tuple(row)) for e, row in rows.items()})


def gr_hbar_coefficient(f, k: int, base: WeylAlgebra):
    """The hbar^k coefficient of a symbol (GrElement) or an operator
    (Element), of the same type, over the classical algebra.  An E power
    that the base algebra keeps as an exponential (a t-shift twin's E_i over
    a base where E_i is exp(g_1 x_i)) is folded into it."""
    field = f.algebra.field
    if base.field is not field.base:
        raise SignatureMismatch("base algebra does not match the coefficient field")
    pairs = ((base._fold(e), field.hbar_coefficient(c, k)) for e, c in f.terms.items())
    return type(f)(base, add_terms({}, pairs, base.field.ops.add))


# -- operator-level oracle ----------------------------------------------------


def _check_positive_weyl(P: Element) -> None:
    for e in P.terms:
        m = Monomial(e, P.algebra.signature.n)
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
    field, hfield = algebra.field, halg.field
    if (P.terms or Q.terms) and field.ops is not hfield.base.ops:
        raise SignatureMismatch("scalar does not lift into this field")
    ops, hops = field.ops, hfield.ops
    hb, hbar_pows = hfield.hbar.pay, [hops.one]
    for _ in range(N):
        hbar_pows.append(hops.mul(hbar_pows[-1], hb))
    n = algebra.signature.n

    def weighted_terms():
        for eP, cP in P.terms.items():
            left = algebra.from_term(eP)
            dP = sum(eP[-n:])
            for eQ, cQ in Q.terms.items():
                dPQ = dP + sum(eQ[-n:])
                prod = algebra.mul(left, algebra.from_term(eQ))
                cPQ = ops.mul(cP, cQ)
                for e, c in prod.terms.items():
                    k = dPQ - sum(e[-n:])
                    if k <= N:
                        yield e, hops.mul(ops.mul(cPQ, c), hbar_pows[k])

    return GrElement(halg, add_terms({}, weighted_terms(), hops.add))


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
    triples in the order given.  The inner products m_j(f,g) and m_j(g,h)
    are evaluated once per triple.

    Within a triple every operand (f, g, h, and each m_j(f,g) and m_j(g,h),
    m_0 included) is a {exponent tuple: payload} dict with its own partials
    memo, which every PolyDiffOp over the triple's algebra reads through
    ``PolyDiffOp._eval``; the memos live for that triple only.  Any other
    cochain is called on GrElements built from those dicts.  Each order's
    defect is accumulated on payloads through the field's ``ops.add`` and
    ``ops.neg``, and one GrElement is built per order; the residual is that
    GrElement, never zero.
    """
    cochains = list(cochains)
    N = len(cochains)
    triples = list(triples)

    for idx, (f, g, h) in enumerate(triples):
        A = f.algebra
        if g.algebra is not A or h.algebra is not A:
            raise SignatureMismatch("operands live over different algebras")
        ops = A.field.ops
        plus, neg = ops.add, ops.neg

        def ev(k, pu, pv):
            if k == 0:
                return _nonzero(_mul_terms(ops, pu[()], pv[()]))
            m = cochains[k - 1]
            if isinstance(m, PolyDiffOp) and m.algebra is A:
                return m._eval(pu, pv)
            return m(f._with(pu[()]), f._with(pv[()])).terms

        pf, pg, ph = {(): f.terms}, {(): g.terms}, {(): h.terms}
        inner: dict[int, tuple[dict, dict]] = {}
        for s in range(1, N + 1):
            acc: dict = {}
            for i in range(s + 1):
                if s - i not in inner:
                    inner[s - i] = {(): ev(s - i, pf, pg)}, {(): ev(s - i, pg, ph)}
                pfg, pgh = inner[s - i]
                add_terms(acc, ev(i, pfg, ph).items(), plus)
                add_terms(acc, ((e, neg(c)) for e, c in ev(i, pf, pgh).items()), plus)
            defect = f._with(acc)
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

    def pairing(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> Fraction:
        """Bilinear extension c_{alpha,beta} = sum a_j b_k c[j][k] on int tuples."""
        acc = Fraction(0)
        for j, aj in enumerate(alpha):
            if aj == 0:
                continue
            row = self.entries[j]
            for k, bk in enumerate(beta):
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
    ops = field.ops

    def pure_power(e: tuple[int, ...]) -> tuple[int, ...]:
        # one variable: a | beta | gamma | d, with gamma the second half but d
        half = len(e) // 2
        if any(e[:half]) or e[-1]:
            raise UnsupportedElement("deformation cochain needs pure power symbols")
        return e[half:-1]

    def m1(f: GrElement, g: GrElement) -> GrElement:
        if f.algebra is not algebra or g.algebra is not algebra:
            raise SignatureMismatch("operands live over a different algebra instance")

        def paired_terms():
            for ef, cf in f.terms.items():
                alpha = pure_power(ef)
                for eg, cg in g.terms.items():
                    beta = pure_power(eg)
                    pair = c.pairing(alpha, beta)
                    if pair != 0:
                        coeff = ops.mul(ops.mul(cf, cg), field.from_rational(pair).pay)
                        yield algebra.monomial(1, a=1, gamma=tuple(map(add, alpha, beta))), coeff

        return f._with(add_terms({}, paired_terms(), ops.add))

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
        if self.order == 0:
            dev = "not computed at order 0"
        else:
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
