"""The Chevalley-Eilenberg differential against the textbook formula.

The structure constants of the presets are written out by hand, with
e_0 = D, e_1 = x D, e_2 = x^2 D:

    [e_0, e_1] = e_0,  [e_0, e_2] = 2 e_1,  [e_1, e_2] = e_2

(borel keeps e_0 and e_1).  With 0-based argument positions,

    (d w)(v_0, ..., v_k) = sum_{a<b} (-1)^(a+b) w([v_a, v_b], v_0, ..^a..^b.., v_k)
                         + sum_a (-1)^a [v_a, w(v_0, ..^a.., v_k)],

computed here with Fraction arithmetic on plain tuples and compared with
``ce_differential`` on seeded random cochains, over the rationals, at rank 2
and over an hbar field.  The oracle uses neither the span's structure
constants nor the cochain's evaluation; one test checks the hand-written
tables against the presets.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from expweyl.algebra import WeylAlgebra
from expweyl.lie import borel, ce_differential, sl2like
from expweyl.sampling import random_cochain

# [e_i, e_j] for i < j, as a coordinate vector
SL2LIKE = {(0, 1): (1, 0, 0), (0, 2): (0, 2, 0), (1, 2): (0, 0, 1)}
BOREL = {(0, 1): (1, 0)}


def bracket(consts, dim, i, j):
    if i == j:
        return (Fraction(0),) * dim
    if i < j:
        return tuple(map(Fraction, consts[(i, j)]))
    return tuple(-Fraction(c) for c in consts[(j, i)])


def perm_sign(p) -> int:
    sign = 1
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if p[a] > p[b]:
                sign = -sign
    return sign


def evaluate(table, dim, args):
    """w(e_args) from the table on increasing index tuples, alternating."""
    if len(set(args)) < len(args):
        return (Fraction(0),) * dim
    order = sorted(range(len(args)), key=lambda a: args[a])
    row = table.get(tuple(args[a] for a in order), (Fraction(0),) * dim)
    sign = perm_sign(order)
    return tuple(sign * c for c in row)


def evaluate_linear(table, dim, first, rest):
    """w(sum_m first_m e_m, e_rest...)."""
    out = [Fraction(0)] * dim
    for m, cm in enumerate(first):
        if cm:
            for j, v in enumerate(evaluate(table, dim, (m,) + rest)):
                out[j] += cm * v
    return out


def textbook_d(table, consts, dim, k):
    out = {}
    for idx in combinations(range(dim), k + 1):
        acc = [Fraction(0)] * dim
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
                br = bracket(consts, dim, idx[a], idx[b])
                for j, v in enumerate(evaluate_linear(table, dim, br, rest)):
                    acc[j] += (-1) ** (a + b) * v
            w = evaluate(table, dim, idx[:a] + idx[a + 1 :])
            for m, wm in enumerate(w):
                for j, c in enumerate(bracket(consts, dim, idx[a], m)):
                    acc[j] += (-1) ** a * wm * c
        if any(acc):
            out[idx] = tuple(acc)
    return out


def rational_table(cochain):
    return {key: tuple(c.as_rational() for c in row) for key, row in cochain.table.items() if any(row)}


ALGEBRAS = {
    "rank1": lambda: WeylAlgebra(),
    "rank2": lambda: WeylAlgebra(rank=2, t=((0, 1),)),
    "hbar2": lambda: WeylAlgebra().with_hbar(2),
}


@pytest.mark.parametrize("preset, consts", [(sl2like, SL2LIKE), (borel, BOREL)], ids=["sl2like", "borel"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_ce_differential_matches_the_textbook_formula(name, preset, consts):
    span = preset(ALGEBRAS[name]())
    dim = span.dim
    rng = random.Random(f"ce:{name}:{dim}")
    for degree in (1, 2):
        for _ in range(6):
            omega = random_cochain(span, rng, degree)
            table = rational_table(omega)
            assert rational_table(ce_differential(omega)) == textbook_d(table, consts, dim, degree)


def test_hand_written_constants_are_the_presets():
    """The oracle's tables are the presets' brackets: d of the identity
    1-cochain is the bracket itself."""
    for preset, consts in ((sl2like, SL2LIKE), (borel, BOREL)):
        span = preset(WeylAlgebra())
        ident = {(j,): tuple(Fraction(int(k == j)) for k in range(span.dim)) for j in range(span.dim)}
        want = textbook_d(ident, consts, span.dim, 1)
        assert {key: tuple(map(Fraction, consts[key])) for key in consts} == want
        assert all(
            tuple(c.as_rational() for c in span.bracket_coords(i, j)) == bracket(consts, span.dim, i, j)
            for i, j in permutations(range(span.dim), 2)
        )
