"""The one-pass commutator against the difference of two products.

``WeylAlgebra.commutator`` forms only the Leibniz rows k >= 1 of P*Q and of
Q*P, since the k = 0 rows f*g*D^(a+b) of the two orders are equal and
cancel.  Here its answer is compared with ``mul(P, Q) - mul(Q, P)`` term for
term on random elements over six signatures, E towers, exponentials and
symbolic and hbar coefficients included, and it is checked to be
antisymmetric, zero on [P, P], and built without a call to ``mul``.
"""

import random

import pytest

from expweyl.algebra import WeylAlgebra
from expweyl.sampling import random_element

SIGNATURES = {
    "rank1": {},
    "rank2": {"rank": 2, "t": ((0, 1),)},
    "rank3": {"rank": 3, "p": (2,), "t": ((1, 0, 1),)},
    "n2_tower": {"n": 2, "p": (2, 3), "t": ((1,), (0,))},
    "tshift2": {"p": (2,), "t": ((1,),), "t_shift": True, "hbar_order": 2},
    "hbar3": {"p": (2,), "t": ((1,),), "hbar_order": 3},
}
PAIRS = 300


def operand(A: WeylAlgebra, rng: random.Random):
    """A random element; over an hbar field each term also gets a random
    hbar part, so the payloads are truncated series."""
    P = random_element(A, rng, max_terms=4, bound=2)
    if A.field.hbar_order is None:
        return P
    hbar = A.field.hbar
    out = A.zero
    for e, c in P.terms.items():
        out = out + A.from_term(e, c) * (1 + hbar * rng.randint(-3, 3) + hbar**2 * rng.randint(-3, 3))
    return out


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_commutator_is_the_difference_of_the_two_products(name):
    A = WeylAlgebra(**SIGNATURES[name])
    rng = random.Random(f"commutator-{name}")
    nonzero = 0
    for _ in range(PAIRS):
        P, Q = operand(A, rng), operand(A, rng)
        C = A.commutator(P, Q)
        M = A.mul(P, Q) - A.mul(Q, P)
        assert C == M
        assert set(C.terms) == set(M.terms)
        assert all(C.terms.values())
        assert A.commutator(Q, P) == -C
        assert A.commutator(P, P).is_zero
        nonzero += not C.is_zero
    # most pairs do not commute, so the comparison is not between zeros
    assert nonzero > PAIRS // 2


def test_commutator_never_calls_mul(monkeypatch):
    A = WeylAlgebra(**SIGNATURES["n2_tower"])
    rng = random.Random(3)
    pairs = [(operand(A, rng), operand(A, rng)) for _ in range(10)]
    expected = [A.mul(P, Q) - A.mul(Q, P) for P, Q in pairs]

    def refuse(*args):
        raise AssertionError("commutator called mul")

    monkeypatch.setattr(WeylAlgebra, "mul", refuse)
    assert [A.commutator(P, Q) for P, Q in pairs] == expected
    assert A.commutator(A.D(1), A.x(1)) == A.one
