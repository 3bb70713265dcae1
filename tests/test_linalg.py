"""Exact elimination in linalg, checked against sympy matrices.

The oracle builds every matrix entry twice: once as a kernel Scalar, whose
payload goes into the kernel's vectors, and once as a sympy expression, and compares ranks and solutions with
``sympy.Matrix.rank`` / ``sympy.Matrix.rref``.  It shares no code with linalg.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from expweyl.algebra import WeylAlgebra
from expweyl.homology import Chain, Window, hochschild_b, window_chain_basis
from expweyl.linalg import combination, independent, span_rank
from expweyl.scalars import Scalar, ScalarField

G2 = sympy.Symbol("g_2")
KEYS = ("u", "v", "w", "z", "y")


def to_sympy(s):
    """A hbar-free Scalar as a sympy expression in g_2."""
    data = s.payload_data(0)
    if data[0] == "rat":
        return sympy.Rational(data[1].numerator, data[1].denominator)

    def poly(terms):
        return sum(sympy.Rational(c.numerator, c.denominator) * G2 ** e[0] for e, c in terms)

    return poly(data[1]) / poly(data[2])


def is_zero(expr) -> bool:
    return sympy.cancel(expr) == 0


def entry(field, value):
    """(Scalar, sympy) for an int, or for a pair (a, b) meaning a + b*g_2."""
    if isinstance(value, int):
        return field.from_rational(value), sympy.Integer(value)
    a, b = value
    return field.from_rational(a) + field.from_rational(b) * field.generator(2), a + b * G2


def case(rank):
    """Sparse vectors and a target over a few keys, as (key, value) lists."""
    coeff = st.integers(-2, 2).filter(bool)
    if rank == 2:
        coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
    vector = st.lists(st.tuples(st.sampled_from(KEYS), coeff), max_size=4, unique_by=lambda t: t[0])
    return st.tuples(st.lists(vector, max_size=4), vector, st.lists(st.integers(-1, 1), max_size=4))


def build(field, drawn):
    """Kernel vectors, kernel target and the sympy column matrix [v_1 ... v_m | t].

    The target is shifted by a drawn combination of the vectors, so both
    answers of ``combination`` occur often.
    """
    raw_vectors, raw_target, mix = drawn
    vectors = [dict((k, entry(field, x)) for k, x in v) for v in raw_vectors]
    target = dict((k, entry(field, x)) for k, x in raw_target)
    for c, v in zip(mix, vectors):
        for k, (s, e) in v.items():
            t_s, t_e = target.get(k, (field.zero, sympy.Integer(0)))
            target[k] = (t_s + field.from_rational(c) * s, t_e + c * e)
    cols = vectors + [target]
    zero = sympy.Integer(0)
    matrix = sympy.Matrix(
        [[col.get(k, (None, zero))[1] for col in cols] for k in KEYS]
    )
    kernel_vectors = [{k: s.pay for k, (s, _) in v.items()} for v in vectors]
    kernel_target = {k: s.pay for k, (s, _) in target.items()}
    return kernel_vectors, kernel_target, matrix


def oracle_combination(matrix, m):
    reduced, pivots = matrix.rref(iszerofunc=is_zero, simplify=sympy.cancel)
    if m in pivots:
        return None
    coeffs = [sympy.Integer(0)] * m
    for r, c in enumerate(pivots):
        coeffs[c] = reduced[r, m]
    return coeffs


def check_against_oracle(field, drawn):
    vectors, target, matrix = build(field, drawn)
    m = len(vectors)
    assert span_rank(vectors, field) == matrix[:, :m].rank(iszerofunc=is_zero, simplify=sympy.cancel)
    got = combination(vectors, target, field)
    want = oracle_combination(matrix, m)
    if want is None:
        assert got is None
    else:
        assert got is not None and len(got) == m
        assert all(is_zero(to_sympy(g) - w) for g, w in zip(got, want))


@settings(max_examples=80, deadline=None)
@given(case(1))
def test_rank_and_combination_match_sympy_rank1(drawn):
    check_against_oracle(ScalarField(1), drawn)


@settings(max_examples=25, deadline=None)
@given(case(2))
def test_rank_and_combination_match_sympy_rank2(drawn):
    check_against_oracle(ScalarField(2), drawn)


@settings(max_examples=40, deadline=None)
@given(case(1), st.permutations(KEYS))
def test_key_order_does_not_change_combination(drawn, order):
    field = ScalarField(1)
    vectors, target, _ = build(field, drawn)

    def reorder(v):
        return {k: v[k] for k in order if k in v}

    shuffled = combination([reorder(v) for v in vectors], reorder(target), field)
    assert shuffled == combination(vectors, target, field)


def test_edge_cases():
    F = ScalarField(1)
    one, two, three = (F.from_rational(c) for c in (1, 2, 3))
    # no vectors
    assert span_rank([], F) == 0 and independent([], F)
    assert combination([], {}, F) == []
    assert combination([], {"u": one.pay}, F) is None
    # zero target, with and without an explicit zero entry
    u, v = {"u": one.pay}, {"u": two.pay, "v": one.pay}
    assert span_rank([{"u": F.zero.pay, "v": one.pay}], F) == 1
    assert combination([u, v], {}, F) == [F.zero, F.zero]
    assert combination([u, v], {"u": F.zero.pay}, F) == [F.zero, F.zero]
    # duplicate vectors: the second copy is a free column and gets 0
    assert span_rank([v, v], F) == 1 and not independent([v, v], F)
    assert combination([v, dict(v)], v, F) == [one, F.zero]
    # a target outside the span
    assert combination([u, v], {"w": one.pay}, F) is None
    # free columns receive coefficient zero
    w = {"u": two.pay}
    assert combination([u, w, {"v": one.pay}], {"u": three.pay, "v": two.pay}, F) == [three, F.zero, two]


def test_hbar_twin_pivots():
    F = ScalarField(1).with_hbar(2)
    h, one = F.hbar, F.one
    # 1 + hbar is a unit: the solve goes through and is exact
    v = {"u": (one + h).pay, "v": h.pay}
    target = {"u": ((one + h) * (2 + h)).pay, "v": (h * (2 + h)).pay}
    assert combination([v], target, F) == [2 + h]
    # a pivot with zero constant term: solved over the base field
    assert combination([{"u": h.pay}], {"u": h.pay}, F) == [one]
    assert span_rank([{"u": (h * h).pay, "v": one.pay}], F) == 1


def hbar_case(slots):
    """Vectors, a target and a mix as in ``case``; an entry lists its hbar slots."""
    entry = st.lists(st.integers(-2, 2), min_size=slots, max_size=slots).filter(any)
    vector = st.lists(st.tuples(st.sampled_from(KEYS[:3]), entry), max_size=3, unique_by=lambda t: t[0])
    mix = st.lists(st.lists(st.integers(-1, 1), min_size=slots, max_size=slots), max_size=3)
    return st.tuples(st.lists(vector, max_size=3), vector, mix)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda s: st.tuples(st.just(s), hbar_case(s))))
def test_hbar_linear_algebra_matches_the_expanded_sympy_system(drawn):
    """Over Q[hbar]/(hbar^N) a vector v spans the rational vectors hbar^j * v.

    The oracle writes that system out as a sympy matrix, one row per (key,
    hbar power) and one column per (vector, j), and reads off the rank of the
    span, freeness and the canonical solution.
    """
    slots, (raw_vectors, raw_target, mix) = drawn
    F = ScalarField(1).with_hbar(slots - 1)

    def scalar(values):
        return sum((F.hbar ** t * c for t, c in enumerate(values) if c), F.zero)

    vectors = [{k: scalar(x) for k, x in v} for v in raw_vectors]
    target = {k: scalar(x) for k, x in raw_target}
    for c, v in zip(mix, vectors):
        for k, s in v.items():
            target[k] = target.get(k, F.zero) + scalar(c) * s
    m = len(vectors)

    def column(v, j):
        out = []
        for k in KEYS[:3]:
            slots_of = v[k].coeffs if k in v else (0,) * slots
            out += [sympy.Rational(int(slots_of[t - j])) if t >= j else 0 for t in range(slots)]
        return out

    def matrix(cols):
        return sympy.Matrix([list(r) for r in zip(*cols)]) if cols else sympy.zeros(3 * slots, 0)

    full = [column(v, j) for v in vectors for j in range(slots)]
    shifted = [column(v, j) for v in vectors for j in range(1, slots)]
    rows = [{k: s.pay for k, s in v.items()} for v in vectors]
    assert span_rank(rows, F) == matrix(full).rank() - matrix(shifted).rank()
    assert independent(rows, F) == (matrix(full).rank() == m * slots)

    got = combination(rows, {k: s.pay for k, s in target.items()}, F)
    want = oracle_combination(matrix(full + [column(target, 0)]), m * slots)
    if want is None:
        assert got is None
        return
    assert got is not None and len(got) == m
    for i, c in enumerate(got):
        for t in range(slots):
            q = F.hbar_coefficient(c.pay, t)
            assert sympy.Rational(q.numerator, q.denominator) == want[i * slots + t]
    solved = {}
    for c, v in zip(got, vectors):
        for k, s in v.items():
            solved[k] = solved.get(k, F.zero) + c * s
    assert {k: s for k, s in solved.items() if s} == {k: s for k, s in target.items() if s}


def test_window_rank_of_the_k3_ball_matches_sympy():
    A = WeylAlgebra(n=1, rank=1, p=(2,), t=((0,),))
    ball = []
    for a in range(4):
        for b in range(4 - a):
            ball.extend((A.x(1, a) * A.D(1, b)).terms)
    basis = window_chain_basis(Window(A, ball), 1)
    images = [hochschild_b(Chain(A, 1, {key: A.field.one})).terms for key in basis]
    keys = sorted({k for img in images for k in img}, key=repr)

    def rational(pay):
        q = Scalar(A.field, pay).as_rational()
        assert isinstance(q, Fraction)
        return sympy.Rational(q.numerator, q.denominator)

    matrix = sympy.Matrix([[rational(img[k]) if k in img else 0 for k in keys] for img in images])
    assert len(basis) == 90
    assert span_rank(images, A.field) == matrix.rank()
