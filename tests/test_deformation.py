"""Poisson structures, the star product and its operator oracle, the rank-2
lattice deformation, the shifted differentiation rule, and Maurer-Cartan."""

import random
from fractions import Fraction

import pytest

from expweyl import deformation
from expweyl.algebra import WeylAlgebra
from expweyl.config import SessionConfig, build_algebra
from expweyl.deformation import (
    AntisymMatrix,
    PolyDiffOp,
    contraction_graded_product,
    gerstenhaber_bracket,
    gr_hbar_coefficient,
    gr_partial,
    gr_power,
    hochschild_coboundary,
    lambda_bracket,
    mc_residual,
    poisson_exp,
    poisson_exp_op,
    poisson_std,
    poisson_std_op,
    rank2_cochain,
    rank2_commutator,
    rank2_product,
    star_assoc_check,
    star_cochain,
    symbol_star,
    t_shift_deform,
)
from expweyl.errors import (
    NotAntisymmetric,
    SignatureMismatch,
    UnsupportedElement,
)
from expweyl.grading import GrElement, full_symbol
from expweyl.sampling import random_element, random_weyl_element


def make_algebra(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("rank", 2)
    kw.setdefault("p", (2,) * kw["n"])
    kw.setdefault("t", ((0,) * kw["rank"],) * kw["n"])
    return WeylAlgebra(**kw)


def symbols(A):
    x = full_symbol(A.x(1))
    y = full_symbol(A.D(1))
    u = full_symbol(A.exp_sym(1, (1,) + (0,) * (A.signature.rank - 1)))
    E = full_symbol(A.E(1))
    return x, y, u, E


def random_symbol(A, rng, max_terms=2, bound=2):
    return full_symbol(random_element(A, rng, max_terms=max_terms, bound=bound))


# -- formal partials ---------------------------------------------------------


def test_gr_partial_power_rule():
    A = make_algebra()
    x, y, u, E = symbols(A)
    assert gr_partial(x * x, ("x", 1)) == 2 * x
    assert gr_partial(y * y * y, ("y", 1)) == 3 * y * y
    assert gr_partial(E, ("E", 1)) == full_symbol(A.one)
    assert gr_partial(u, ("u", 1, 1)) == full_symbol(A.one)
    assert gr_partial(x, ("y", 1)).is_zero
    assert gr_partial(full_symbol(A.one), ("x", 1)).is_zero


def test_gr_partial_symbolic_exponent():
    A = make_algebra()
    g2 = A.field.generator(2)
    f = full_symbol(A.x(1, (0, 1)))
    df = gr_partial(f, ("x", 1))
    expected = g2 * full_symbol(A.x(1, (-1, 1)))
    assert df == expected


def test_gr_partial_bad_tag():
    A = make_algebra()
    x, _, _, _ = symbols(A)
    with pytest.raises(SignatureMismatch):
        gr_partial(x, ("x", 2))
    with pytest.raises(SignatureMismatch):
        gr_partial(x, ("q", 1))


# -- poisson structures ------------------------------------------------------


def test_poisson_std_basics():
    A = make_algebra()
    x, y, u, E = symbols(A)
    one = full_symbol(A.one)
    assert poisson_std(x, y) == one
    assert poisson_std(y, x) == -one
    assert poisson_std(x * x, y) == 2 * x
    assert poisson_std(x, x).is_zero
    assert poisson_exp(u, x) == E
    assert poisson_exp(x, y).is_zero


def test_lambda_bracket_interpolates():
    A = make_algebra()
    x, y, u, E = symbols(A)
    one = full_symbol(A.one)
    half = A.field.from_rational(Fraction(1, 2))
    assert lambda_bracket(x, y, 0).is_zero
    assert lambda_bracket(x, y, 1) == one
    assert lambda_bracket(x, y, Fraction(1, 2)) == half * one
    assert lambda_bracket(u, x, 0) == E


def test_lambda_bracket_jacobi_and_antisymmetry():
    A = make_algebra()
    rng = random.Random(7)
    lams = [0, 1, Fraction(1, 2), A.field.generator(2)]
    for lam in lams:
        for _ in range(4):
            f, g, h = (random_symbol(A, rng) for _ in range(3))
            assert (lambda_bracket(f, g, lam) + lambda_bracket(g, f, lam)).is_zero
            jac = (
                lambda_bracket(f, lambda_bracket(g, h, lam), lam)
                + lambda_bracket(g, lambda_bracket(h, f, lam), lam)
                + lambda_bracket(h, lambda_bracket(f, g, lam), lam)
            )
            assert jac.is_zero


# -- star product ------------------------------------------------------------


def test_star_cochain_words():
    A = make_algebra()
    m1 = star_cochain(A, 1)
    assert list(m1.terms) == [((("y", 1),), (("x", 1),))]
    m2 = star_cochain(A, 2)
    ((wl, wr),) = list(m2.terms)
    assert wl == (("y", 1), ("y", 1)) and wr == (("x", 1), ("x", 1))
    half = GrElement(A, {next(iter(full_symbol(A.one).terms)): A.field.from_rational(Fraction(1, 2))})
    assert m2.terms[(wl, wr)] == half
    B = make_algebra(n=2)
    assert len(star_cochain(B, 1).terms) == 2


def test_star_cochain_is_built_once_per_algebra_and_order():
    A = make_algebra()
    m1, m2 = star_cochain(A, 1), star_cochain(A, 2)
    assert star_cochain(A, 1) is m1 and star_cochain(A, 2) is m2 and m1 is not m2
    twin = A.with_hbar(2)
    other = make_algebra()
    for B in (twin, other):
        assert star_cochain(B, 1) is not m1 and star_cochain(B, 1).algebra is B
        assert star_cochain(B, 1) is star_cochain(B, 1)
    with pytest.raises(UnsupportedElement):
        star_cochain(A, -1)
    # arithmetic on the shared operator builds new ones
    def snapshot(op):
        return {k: dict(v.terms) for k, v in op.terms.items()}

    before = snapshot(m1)
    for derived in (m1 + m2, -m1, m1 * 3, 3 * m1, m1.word_product(m1)):
        assert derived is not m1
    assert snapshot(m1) == before and star_cochain(A, 1) is m1
    x, y, _, _ = symbols(A)
    assert m1(y, x) == full_symbol(A.one)


@pytest.mark.parametrize("rank", [1, 2])
def test_symbol_star_with_shared_cochains_matches_the_oracle(rank):
    rng = random.Random(40 + rank)
    A = make_algebra(rank=rank)
    for N in range(5):
        halg = A.with_hbar(N)
        for _ in range(3):
            P = random_weyl_element(A, rng, max_terms=3, bound=N)
            Q = random_weyl_element(A, rng, max_terms=3, bound=3)
            rhs = contraction_graded_product(P, Q, N, halg)
            for _ in range(2):
                assert symbol_star(full_symbol(P), full_symbol(Q), N, halg) == rhs
        assert all(star_cochain(halg, k) is halg._star_cache[k] for k in range(1, N + 1))


def test_star_product_on_generators():
    A = make_algebra()
    x, y, _, _ = symbols(A)
    s = symbol_star(y, x, 2)
    halg = s.algebra
    xh, yh, _, _ = symbols(halg)
    hb = halg.field.hbar
    one = full_symbol(halg.one)
    assert s == xh * yh + hb * one
    assert symbol_star(x, y, 2) == xh * yh
    # f * 1 = f and 1 * f = f
    f = full_symbol(A.x(1, 2)) + y
    fl = GrElement(halg, f.terms)
    assert symbol_star(f, full_symbol(A.one), 2, halg) == fl
    assert symbol_star(full_symbol(A.one), f, 2, halg) == fl


def test_star_commutator_orientation():
    # the hbar coefficient of the star commutator is the reversed-argument
    # standard bracket: [f, g]_star = hbar {g, f}_std + O(hbar^2)
    A = make_algebra()
    x, y, _, _ = symbols(A)
    rng = random.Random(3)
    for _ in range(6):
        f = random_symbol(A, rng)
        g = random_symbol(A, rng)
        s = symbol_star(f, g, 1) - symbol_star(g, f, 1)
        assert gr_hbar_coefficient(s, 1, A) == poisson_std(g, f)


def test_star_matches_contraction_oracle():
    rng = random.Random(21)
    for n, rank, reps in ((1, 2, 10), (2, 1, 5)):
        A = make_algebra(n=n, rank=rank)
        for _ in range(reps):
            P = random_weyl_element(A, rng, max_terms=3, bound=3)
            Q = random_weyl_element(A, rng, max_terms=3, bound=3)
            N = max((sum(m.d) for m, _ in P.sorted_terms()), default=0)
            halg = A.with_hbar(N)
            lhs = symbol_star(full_symbol(P), full_symbol(Q), N, halg)
            rhs = contraction_graded_product(P, Q, N, halg)
            assert lhs == rhs


def test_star_products_refuse_operands_or_targets_with_other_scalars():
    A = make_algebra(rank=1)
    halg = A.with_hbar(2)
    x, y, _, _ = symbols(halg)
    # symbols carrying hbar are not classical symbols
    with pytest.raises(SignatureMismatch):
        symbol_star(y, x, 2)
    with pytest.raises(SignatureMismatch):
        symbol_star(y, x, 2, halg)
    # a target whose scalars are not the operands'
    rank2 = make_algebra(rank=2).with_hbar(2)
    x, y, _, _ = symbols(A)
    with pytest.raises(SignatureMismatch):
        symbol_star(y, x, 2, rank2)
    with pytest.raises(SignatureMismatch):
        contraction_graded_product(A.D(1), A.x(1), 2, rank2)
    with pytest.raises(SignatureMismatch):
        contraction_graded_product(A.D(1), A.zero, 2, rank2)
    # zero operands have no scalar to refuse, as in symbol_star
    assert symbol_star(x - x, y - y, 2, rank2).is_zero
    assert contraction_graded_product(A.zero, A.zero, 2, rank2).is_zero


def test_contraction_oracle_rejects_exponentials():
    A = make_algebra()
    with pytest.raises(UnsupportedElement):
        contraction_graded_product(A.E(1), A.x(1), 2)
    with pytest.raises(UnsupportedElement):
        contraction_graded_product(A.x(1), A.exp_sym(1, (1, 0)), 2)
    with pytest.raises(UnsupportedElement):
        contraction_graded_product(A.x(1, (-1, 0)), A.x(1), 2)


# -- associativity defects ---------------------------------------------------


def test_star_cochains_associative_to_order_two():
    A = make_algebra()
    rng = random.Random(5)
    coch = [star_cochain(A, 1), star_cochain(A, 2)]
    triples = [tuple(random_symbol(A, rng) for _ in range(3)) for _ in range(10)]
    rep = star_assoc_check(coch, triples)
    assert rep.associative
    assert rep.first_nonzero is None
    assert "associative through hbar^2" in rep.as_text()


def test_non_cocycle_first_order_defect():
    A = make_algebra()
    x, y, _, _ = symbols(A)
    bad = PolyDiffOp(A, [((("y", 1), ("y", 1)), (("x", 1),), 1)])
    rep = star_assoc_check([bad], [(y, y, x)])
    assert rep.first_nonzero == 1
    assert rep.triple_index == 0
    assert rep.residual == 2 * full_symbol(A.one)


# -- memoized partials --------------------------------------------------------

EVAL_SIGNATURES = {
    "rank1": {},
    "rank2": {"rank": 2, "t": ((0, 1),)},
    "n2_tower": {"n": 2, "p": (2, 3), "t": ((1,), (0,))},
}


def chained_partial(f, word):
    for gen in word:
        f = gr_partial(f, gen)
    return f


def sum_over_words(op, f, g):
    """sum of coeff * (d_wl f) * (d_wr g), one gr_partial at a time."""
    out = GrElement(op.algebra, {})
    for (wl, wr), coeff in op.terms.items():
        out = out + coeff * chained_partial(f, wl) * chained_partial(g, wr)
    return out


@pytest.mark.parametrize("hbar", [False, True], ids=["plain", "hbar"])
@pytest.mark.parametrize("name", EVAL_SIGNATURES)
def test_the_memoized_evaluator_matches_the_sum_over_words(name, hbar):
    """Unit coefficients (star_cochain(A, 1)), constant ones (k = 2, 3) and
    E_i symbols (poisson_exp_op) all agree with chained gr_partial."""
    A = build_algebra(SessionConfig(**EVAL_SIGNATURES[name]))
    rng = random.Random(f"words:{name}:{hbar}")
    B = A.with_hbar(2) if hbar else A

    def operand(extra):
        s = GrElement(B, (random_symbol(A, rng, max_terms=3, bound=3) + full_symbol(extra)).terms)
        return s * (1 + B.field.hbar) if hbar else s

    ops = [star_cochain(B, k) for k in (1, 2, 3)] + [poisson_exp_op(B)]
    nonzero = [0] * len(ops)
    for _ in range(6):
        f, g = operand(A.x(1) * A.D(1, 3)), operand(A.x(1, 3))
        for i, op in enumerate(ops):
            got = op(f, g)
            assert got == sum_over_words(op, f, g)
            nonzero[i] += not got.is_zero
    assert all(nonzero)


def plain(cochains):
    return [lambda u, v, m=m: m(u, v) for m in cochains]


@pytest.mark.parametrize("name", EVAL_SIGNATURES)
def test_star_assoc_check_reports_alike_for_operators_and_plain_callables(name):
    """Operators read shared partials memos; callables get GrElements, whose
    zero sums are dropped.  Triples (f, f, h) under the antisymmetric bracket
    give inner products that cancel to zero, so the residual's term order
    shows whether the dicts kept those zero sums."""
    A = build_algebra(SessionConfig(**EVAL_SIGNATURES[name]))
    x, y = full_symbol(A.x(1)), full_symbol(A.D(1))
    rng = random.Random(f"plain:{name}")
    m1, m2, m3 = (star_cochain(A, k) for k in (1, 2, 3))
    bad = PolyDiffOp(A, [((("y", 1), ("y", 1)), (("x", 1),), 1)])
    triples = [(y, y, x)]
    for _ in range(8):
        f, g, h = (random_symbol(A, rng, max_terms=3, bound=2) for _ in range(3))
        triples += [(f, g, h), (f, f, h)]
    cochain_lists = (
        [m1, m2, m3], [m1, m2 * 2], [m1, m2 + bad], [bad], [poisson_exp_op(A), m2],
        [poisson_std_op(A), m2 + bad],
    )
    failing = 0
    for cochains in cochain_lists:
        for triple in triples:
            want = star_assoc_check(cochains, [triple])
            for other in (plain(cochains), plain(cochains[:1]) + cochains[1:]):
                got = star_assoc_check(other, [triple])
                assert (got.max_order, got.triples, got.first_nonzero, got.triple_index) == (
                    want.max_order, want.triples, want.first_nonzero, want.triple_index)
                if want.residual is None:
                    assert got.residual is None
                else:
                    assert list(got.residual.terms.items()) == list(want.residual.terms.items())
            failing += not want.associative
    assert failing >= len(triples)


def count_word_steps(monkeypatch):
    """Record each operand's word derivation as (input terms, word) and each
    row build as (algebra, word, monomial); holding the input dicts keeps
    their ids distinct for the whole test."""
    steps, rows = [], []
    real_terms, real_row = deformation._word_terms, deformation._word_row

    def counting_terms(algebra, terms, word):
        steps.append((terms, word))
        return real_terms(algebra, terms, word)

    def counting_row(algebra, word, e):
        rows.append((algebra, word, e))
        return real_row(algebra, word, e)

    monkeypatch.setattr(deformation, "_word_terms", counting_terms)
    monkeypatch.setattr(deformation, "_word_row", counting_row)
    return steps, rows


def distinct_steps(steps):
    return len({(id(terms), word) for terms, word in steps})


def distinct_rows(rows):
    return len({(id(algebra), word, e) for algebra, word, e in rows})


def test_symbol_star_derives_each_operand_word_once(monkeypatch):
    A = build_algebra(SessionConfig(**EVAL_SIGNATURES["n2_tower"]))
    f = full_symbol(A.D(1, 4) * A.D(2, 4) + A.x(1) * A.D(1, 2) * A.D(2))
    g = full_symbol(A.x(1, 4) * A.x(2, 4) + A.x(2, 3))
    words = [w for k in range(1, 5) for w in star_cochain(A, k).terms]

    steps, rows = count_word_steps(monkeypatch)
    star = symbol_star(f, g, 4)
    assert not star.is_zero
    assert distinct_steps(steps) == len(steps) <= len({w[0] for w in words}) + len({w[1] for w in words})
    assert rows and distinct_rows(rows) == len(rows) <= sum(len(terms) for terms, _ in steps)


def test_star_assoc_check_derives_each_operand_word_once_per_triple(monkeypatch):
    A = build_algebra(SessionConfig(**EVAL_SIGNATURES["n2_tower"]))
    f = full_symbol(A.D(1, 2) * A.D(2, 2) + A.x(1, 2) * A.D(2))
    g = full_symbol(A.x(1, 2) * A.D(1, 2) * A.x(2) * A.D(2, 2))
    h = full_symbol(A.x(1, 3) * A.x(2, 2) + A.E(1) * A.x(2))
    cochains = [star_cochain(A, 1), star_cochain(A, 2)]
    steps, rows = count_word_steps(monkeypatch)
    assert star_assoc_check(cochains, [(f, g, h)]).associative
    assert steps and distinct_steps(steps) == len(steps)
    assert rows and distinct_rows(rows) == len(rows)
    # a second check of the triple derives each operand word again, from
    # fresh memos, but every (word, monomial) row is read from the algebra
    first, built = len(steps), len(rows)
    assert star_assoc_check(cochains, [(f, g, h)]).associative
    assert distinct_steps(steps[first:]) == len(steps) - first == first
    assert len(rows) == built


@pytest.mark.parametrize("name", EVAL_SIGNATURES)
def test_star_cochains_read_each_word_row_from_the_algebra_memo(name, monkeypatch):
    """The algebra's word memo holds, by word and then unit monomial e, the
    partial of e along the whole word with the multipliers multiplied
    together: each row equals chained gr_partial on a fresh algebra, a new
    evaluation over seen monomials builds no row, and an hbar twin keeps
    its own memo."""
    A = build_algebra(SessionConfig(**EVAL_SIGNATURES[name]))
    rng = random.Random(f"rows:{name}")
    ops = [star_cochain(A, k) for k in (1, 2, 3)] + [poisson_exp_op(A)]
    pairs = [
        (random_symbol(A, rng, max_terms=3, bound=3) + full_symbol(A.x(1) * A.D(1, 3)),
         random_symbol(A, rng, max_terms=3, bound=3) + full_symbol(A.x(1, 3)))
        for _ in range(4)
    ]
    values = [op(f, g) for f, g in pairs for op in ops]
    memo = A._word_cache
    rows = [(word, e, row) for word, word_rows in memo.items() for e, row in word_rows.items()]
    assert any(row for _, _, row in rows) and not all(row for _, _, row in rows)
    fresh = build_algebra(SessionConfig(**EVAL_SIGNATURES[name]))
    one = fresh.field.one
    for word, e, row in rows:
        assert type(word) is tuple and word == tuple(sorted(word))
        assert row == () or (type(row) is tuple and len(row) == 2 and row[1])
        want = {row[0]: row[1]} if row else {}
        assert chained_partial(GrElement(fresh, {e: one}), word).terms == want

    monkeypatch.setattr(deformation, "_word_row", lambda *args: pytest.fail("row built twice"))
    assert [op(f * 2, g) for f, g in pairs for op in ops] == [v * 2 for v in values]
    monkeypatch.undo()

    twin = A.with_hbar(2)
    for f, g in pairs:
        fh, gh = GrElement(twin, f.terms), GrElement(twin, g.terms)
        assert star_cochain(twin, 2)(fh, gh) == sum_over_words(star_cochain(twin, 2), fh, gh)
    assert twin._word_cache is not memo and twin._word_cache
    after = [(word, e, row) for word, word_rows in memo.items() for e, row in word_rows.items()]
    assert len(after) == len(rows) and all(a[2] is b[2] for a, b in zip(after, rows))


# -- gerstenhaber and maurer-cartan ------------------------------------------


def test_self_bracket_doubles_associator():
    A = make_algebra()
    rng = random.Random(11)
    m1 = star_cochain(A, 1)
    for _ in range(4):
        f, g, h = (random_symbol(A, rng) for _ in range(3))
        lhs = gerstenhaber_bracket(m1, m1)(f, g, h)
        rhs = (m1(m1(f, g), h) - m1(f, m1(g, h))) * 2
        assert lhs == rhs


def test_poisson_std_is_closed():
    A = make_algebra()
    rng = random.Random(13)
    delta = hochschild_coboundary(poisson_std_op(A))
    for _ in range(4):
        f, g, h = (random_symbol(A, rng) for _ in range(3))
        assert delta(f, g, h).is_zero


def test_mc_residual_vanishes_for_star_truncation():
    A = make_algebra()
    rng = random.Random(17)
    m1, m2 = star_cochain(A, 1), star_cochain(A, 2)
    for _ in range(6):
        f, g, h = (random_symbol(A, rng) for _ in range(3))
        assert mc_residual(m1, m2, f, g, h).is_zero


def test_mc_residual_vanishes_for_bracket_square():
    # second-order cochain (1/2) P.P pairs with the full antisymmetric bracket
    A = make_algebra()
    rng = random.Random(19)
    P = poisson_std_op(A)
    m2 = P.word_product(P).scale(Fraction(1, 2))
    for _ in range(6):
        f, g, h = (random_symbol(A, rng) for _ in range(3))
        assert mc_residual(P, m2, f, g, h).is_zero


def test_mc_residual_equals_order_two_defect():
    A = make_algebra()
    x, y, _, _ = symbols(A)
    m1 = star_cochain(A, 1)
    bad = PolyDiffOp(A, [((("y", 1), ("y", 1)), (("x", 1),), 1)])
    m2 = star_cochain(A, 2) + bad
    triple = (y, y, x)
    rep = star_assoc_check([m1, m2], [triple])
    assert rep.first_nonzero == 2
    assert rep.residual == mc_residual(m1, m2, *triple)
    assert not rep.residual.is_zero


def test_defect_report_names_the_order_and_the_triple():
    A = make_algebra()
    x, y, _, _ = symbols(A)
    bad = star_cochain(A, 2) + PolyDiffOp(A, [((("y", 1), ("y", 1)), (("x", 1),), 1)])
    rep = star_assoc_check([star_cochain(A, 1), bad], [(y, y, x)])
    assert not rep.associative
    assert rep.as_text() == "defect at hbar^2 on triple 0 (checked through hbar^2)"


# -- rank-2 lattice deformation ----------------------------------------------


def test_antisym_matrix_validation():
    AntisymMatrix(((0, 1), (-1, 0)))
    with pytest.raises(NotAntisymmetric):
        AntisymMatrix(((0, 1), (1, 0)))
    with pytest.raises(NotAntisymmetric):
        AntisymMatrix(((1, 0), (0, 0)))
    with pytest.raises(NotAntisymmetric):
        AntisymMatrix(((0, 1),))


def test_rank2_product_and_commutator():
    A = make_algebra()
    c = AntisymMatrix(((0, 1), (-1, 0)))
    prod = rank2_product(A, c, (1, 0), (0, 1))
    halg = prod.algebra
    hb = halg.field.hbar
    E = full_symbol(halg.E(1))
    xg = gr_power(halg, (1, 1))
    assert prod == xg + hb * (E * xg)
    comm = rank2_commutator(A, c, (1, 0), (0, 1))
    assert comm == 2 * (hb * (E * xg))
    # pairing extends bilinearly
    comm2 = rank2_commutator(A, c, (2, 0), (0, 1))
    xg2 = gr_power(halg, (2, 1))
    assert comm2 == 4 * (hb * (E * xg2))


def test_rank2_zero_matrix_is_undeformed():
    A = make_algebra()
    c0 = AntisymMatrix(((0, 0), (0, 0)))
    prod = rank2_product(A, c0, (1, 0), (0, 1))
    assert prod == gr_power(prod.algebra, (1, 1))


def test_rank2_generator_triples_associative():
    A = make_algebra()
    halg = A.with_hbar(1)
    m1 = rank2_cochain(halg, AntisymMatrix(((0, 1), (-1, 0))))
    gens = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]
    triples = [
        (gr_power(halg, a), gr_power(halg, b), gr_power(halg, g))
        for a in gens
        for b in gens
        for g in gens
    ]
    rep = star_assoc_check([m1], triples)
    assert rep.associative


def test_rank2_cochain_domain_checks():
    A = make_algebra()
    halg = A.with_hbar(1)
    c = AntisymMatrix(((0, 1), (-1, 0)))
    with pytest.raises(UnsupportedElement):
        rank2_cochain(make_algebra(n=2).with_hbar(1), c)
    m1 = rank2_cochain(halg, c)
    y = full_symbol(halg.D(1))
    with pytest.raises(UnsupportedElement):
        m1(y, y)


# -- shifted differentiation rule --------------------------------------------


def test_t_shift_classical_part_matches():
    A = make_algebra(rank=1, t=((1,),))
    for N in (0, 1, 2):
        rep = t_shift_deform(A, N)
        assert rep.classical == A.mul(A.D(1), A.E(1))
        if N == 0:
            assert rep.first_order.is_zero
        else:
            assert not rep.first_order.is_zero


def test_t_shift_report_text_at_order_zero_computes_no_deviation():
    A = make_algebra(rank=1, t=((1,),))
    assert t_shift_deform(A, 0).as_text() == "t-shift rule at order 0, var 1: hbar^1 deviation not computed at order 0"
    assert t_shift_deform(A, 1).as_text() == "t-shift rule at order 1, var 1: hbar^1 deviation nonzero"


def test_t_shift_first_order_witness():
    # p = 2, t = 1: the hbar coefficient of D E is (4 x^3 + x^4) e^x E
    A = make_algebra(rank=1, t=((1,),))
    rep = t_shift_deform(A, 2)
    e = A.mul(A.exp_sym(1, 1), A.E(1))
    expected = A.mul(4 * A.x(1, 3) + A.x(1, 4), e)
    assert rep.first_order == expected
    assert "nonzero" in rep.as_text()
