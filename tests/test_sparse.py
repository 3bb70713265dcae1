"""The shared sparse-combination base of the six element types.

Each case builds an object, an equal copy built independently, and an object
of the same type over a different owner: another algebra instance, another
signature or chain degree, another span or cochain degree.
"""

from fractions import Fraction

import pytest

from expweyl.algebra import Element, WeylAlgebra
from expweyl.deformation import poisson_std_op
from expweyl.errors import SignatureMismatch
from expweyl.grading import GrElement, full_symbol
from expweyl.homology import Chain, tensor_chain
from expweyl.lie import Cochain, DerivationElement, borel, sl2like
from expweyl.linalg import combination


def rank1():
    return WeylAlgebra(n=1, rank=1, p=(2,), t=((1,),))


def rank2():
    return WeylAlgebra(n=1, rank=2, p=(2,), t=((1, 0),))


def element(A):
    return A.x(1, 2) * 3 + A.D(1) * A.E(1) - A.one


def derivation(A):
    return DerivationElement((A.x(1, 2) * Fraction(1, 2) + A.exp_sym(1, 1)) * A.D(1))


COCHAIN_TABLES = {
    1: {(0,): (1, 0, 4), (2,): (0, Fraction(1, 7), 0)},
    2: {(0, 1): (1, Fraction(-2, 3), 0), (2, 1): (0, 0, 5)},
}


def cochain(span, degree=2):
    return Cochain(span, degree, COCHAIN_TABLES[degree])


def chain(A):
    return tensor_chain([A.x(1, 1), A.D(1)])


A1, A1_TWIN, A2 = rank1(), rank1(), rank2()
S1 = sl2like(A1)

# kind -> (object, equal copy, same type over another owner)
CASES = {
    "Element": (element(A1), element(A1), element(A2)),
    "GrElement": tuple(full_symbol(element(A)) for A in (A1, A1, A1_TWIN)),
    # same degree, monomials of algebras of different rank
    "Chain": (chain(A1), chain(A1), chain(A2)),
    "Chain-degree": (chain(A1), chain(A1), tensor_chain([A1.x(1, 1), A1.D(1), A1.x(1, 2)])),
    "DerivationElement": (derivation(A1), derivation(A1), derivation(A2)),
    "Cochain": (cochain(S1), cochain(S1), cochain(sl2like(A1))),
    "Cochain-degree": (cochain(S1), cochain(S1), cochain(S1, 1)),
    "PolyDiffOp": (poisson_std_op(A1), poisson_std_op(A1), poisson_std_op(A1_TWIN)),
}
# the kinds with negation, subtraction and scalar multiples: an operator's
# coefficients are symbols, not payloads, so it only adds
SCALED = sorted(set(CASES) - {"PolyDiffOp"})


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("op", ["add", "sub", "eq"])
def test_different_owners_do_not_combine(kind, op):
    x, _, other = CASES[kind]
    # an operator does not subtract at all, whatever the owners
    refusal = SignatureMismatch if kind in SCALED or op != "sub" else TypeError
    with pytest.raises(refusal):
        {"add": lambda: x + other, "sub": lambda: x - other, "eq": lambda: x == other}[op]()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_equal_objects_hash_equal(kind):
    x, copy, _ = CASES[kind]
    assert x is not copy
    assert x == copy and not x != copy
    assert hash(x) == hash(copy)
    assert len({x, copy}) == 1
    assert x != x + x
    if kind in SCALED:
        assert (x + x - x) == x


@pytest.mark.parametrize("kind", sorted(CASES))
def test_scalars_multiply_from_both_sides(kind):
    x, _, _ = CASES[kind]
    if kind not in SCALED:
        # an operator is refused from both sides (see the test below)
        for product in (lambda: x * 3, lambda: 3 * x, lambda: x.scale(3)):
            with pytest.raises(TypeError):
                product()
        return
    field = x._field()
    for c in (3, Fraction(-1, 2), field.from_rational(Fraction(2, 3)), field.zero):
        assert x * c == c * x == x.scale(c)
    assert x * 2 == x + x
    assert (x * 0).is_zero and not (x * 0)
    assert -x == x * -1 and (x - x).is_zero


def test_scalars_of_another_field_are_refused():
    for kind in SCALED:
        with pytest.raises(SignatureMismatch):
            CASES[kind][0] * A2.field.one


U = A1.one_monomial
# constructor -> (build from one coefficient v, and return the payload stored for it)
CONSTRUCTORS = {
    "Element": lambda v: Element(A1, {U: v}).terms[U],
    "GrElement": lambda v: GrElement(A1, {U: v}).terms[U],
    "Chain": lambda v: Chain(A1, 0, {(U,): v}).terms[(U,)],
    "Cochain": lambda v: Cochain(S1, 1, {(0,): (v, 0, 0)}).terms[((0,), 0)],
    "from_term": lambda v: A1.from_term(U, v).terms[U],
    "tensor_chain": lambda v: tensor_chain([A1.one], v).terms[(U,)],
}


@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
def test_every_constructor_takes_its_coefficients_through_payload(kind):
    build = CONSTRUCTORS[kind]
    for value in (0.5, "1", None, object()):
        with pytest.raises(SignatureMismatch):
            build(value)
    stored = build(True)
    assert stored == 1 and type(stored) is int
    if kind == "Element":
        two = (Element(A1, {U: True}) + A1.one).terms[U]
        assert two == 2 and type(two) is int


def test_a_payload_kind_the_field_cannot_hold_is_refused():
    """A rank-1 field holds no _RatPoly and an hbar-free one no _Series, so
    another field's raw payload of either kind is refused on entry, where it
    was once stored and printed wrong or failed at the next sum."""
    symbol = A2.field.generator(2).pay
    hbar = A1.with_hbar(2).field.hbar.pay
    for build in CONSTRUCTORS.values():
        for pay in (symbol, hbar):
            with pytest.raises(SignatureMismatch, match="not a scalar of this field"):
                build(pay)
    # each kind is kept where the field holds it
    assert Element(A2, {A2.one_monomial: symbol}) == A2.scalar_element(A2.field.generator(2))
    H1 = A1.with_hbar(2)
    assert Element(H1, {H1.one_monomial: hbar}) == H1.scalar_element(H1.field.hbar)


def test_a_symbolic_payload_of_another_rank_is_refused():
    """A rank-3 _RatPoly holds g_3, a symbol a rank-2 field does not have;
    it was once stored over a rank-2 algebra and printed as g_3*D_1."""
    A2r, A3r = rank2(), WeylAlgebra(n=1, rank=3, p=(2,), t=((1, 0, 0),))
    u = A2r.monomial(1, d=1)
    g3 = A3r.field.generator(3)
    for pay in (g3.pay, (1 / (g3 + 1)).pay):
        with pytest.raises(SignatureMismatch, match="another field's rank"):
            Element(A2r, {u: pay})
        with pytest.raises(SignatureMismatch, match="another field's rank"):
            A2r.from_term(u, pay)
    # a rank-2 field's own symbols still enter, in every position of a fraction
    g2 = A2r.field.generator(2)
    for s in (g2, 1 / (g2 + 1), (g2 - 1) / (g2 + 2)):
        assert Element(A2r, {u: s.pay}) == A2r.from_term(u, s)


def test_a_series_of_another_hbar_order_is_refused():
    """A 4-slot _Series belongs to an hbar order 3 field; in an order 2
    element it was once stored and raised only when printed."""
    H1, H2, H3 = (rank1().with_hbar(order) for order in (1, 2, 3))
    U2 = H2.one_monomial
    for pay in (H3.field.hbar.pay, (H3.field.hbar**3).pay, (1 + H1.field.hbar).pay):
        with pytest.raises(SignatureMismatch, match="another field's rank or hbar order"):
            Element(H2, {U2: pay})
    # a series whose slot holds a symbol of a rank the field lacks
    R2 = rank2().with_hbar(2)
    foreign = (R2.field.hbar * R2.field.generator(2)).pay
    with pytest.raises(SignatureMismatch):
        Element(H2, {U2: foreign})
    assert Element(H2, {U2: H2.field.hbar.pay}) == H2.scalar_element(H2.field.hbar)


def test_operators_are_not_negated_subtracted_or_scaled():
    """The inherited _Sparse negation and scalings would run payload ops on
    an operator's GrElement coefficients; they raise TypeError instead."""
    P = CASES["PolyDiffOp"][0]
    for op in (lambda: -P, lambda: P - P, lambda: P * 3, lambda: 3 * P, lambda: P.scale(2)):
        with pytest.raises(TypeError):
            op()


def test_derivation_terms_are_its_coefficient_terms():
    u = derivation(A1) + DerivationElement(A1.x(1, -1) * A1.D(1)) * 2
    f = A1.x(1, 2) * Fraction(1, 2) + A1.exp_sym(1, 1) + A1.x(1, -1) * 2
    assert u.terms == (f * A1.D(1)).terms
    assert u.as_element() == f * A1.D(1)
    span = borel(A1)
    vectors = [b.terms for b in span.basis]
    assert combination(vectors, (span.basis[1] * 3 - span.basis[0]).terms, A1.field) == [
        A1.field.from_rational(v) for v in (-1, 3)
    ]


def test_cochain_table_round_trips():
    omega = cochain(S1)
    rebuilt = Cochain(S1, 2, omega.table)
    assert rebuilt == omega
    # swapped argument tuples fold in with the sign
    assert Cochain(S1, 2, {(j, i): tuple(-c for c in v) for (i, j), v in omega.table.items()}) == omega
    assert set(omega.table) == {(0, 1), (1, 2)}


def test_the_zero_filter_keeps_a_zero_free_dict_and_products_own_theirs():
    """_with adopts a dict without a zero as it is and drops the zero from
    one that holds one, leaving that dict alone; a product's terms are a new
    dict, neither operand's nor any value of the algebra's caches."""
    A = A1
    x = element(A)
    one = A.field.ops.one
    clean = {A.one_monomial: one, A.monomial(1, d=1): 2}
    assert x._with(clean).terms is clean
    dirty = {A.one_monomial: one, A.monomial(1, d=1): 0}
    kept = x._with(dirty).terms
    assert kept == {A.one_monomial: one}
    assert len(dirty) == 2
    for P, Q in ((x, element(A)), (x, A.one), (A.one, x), (A.D(1), A.E(1)), (x, x)):
        R = A.mul(P, Q)
        assert R.terms is not P.terms and R.terms is not Q.terms
        caches = (A._diff_cache, A._diff_pow_cache, A._mono_mul_cache, A._hochschild_cache)
        assert all(R.terms is not v for cache in caches for v in cache.values())
