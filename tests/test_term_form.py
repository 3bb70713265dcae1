"""The stored form of the kernels' results: exponent tuples and payloads.

After ``A.mul``, ``gr_mul``, ``act``, ``hochschild_b`` and ``ce_differential``
the result's ``terms`` map exponent tuples (tuples of them for a chain,
(index tuple, coordinate) places for a cochain) to payloads of the field,
and no ``Monomial`` or ``Scalar`` was constructed inside the call.  The
derivative caches and the lattice embedding build Scalars once, the first
time they meet an exponent, so each call is made twice and counted the
second time.
"""

import random

import pytest

from expweyl.algebra import Monomial, WeylAlgebra
from expweyl.grading import full_symbol, gr_mul
from expweyl.homology import hochschild_b, tensor_chain
from expweyl.lie import Cochain, ce_differential, sl2like
from expweyl.representation import act
from expweyl.sampling import random_element, random_function_element
from expweyl.scalars import Scalar, _Q, _RatPoly, _Series


def rank1():
    return WeylAlgebra(n=1, rank=1, p=(2,), t=((1,),))


def rank2():
    return WeylAlgebra(n=1, rank=2, p=(2,), t=((0, 1),))


def hbar_twin():
    return rank1().with_t_shift(2)


ALGEBRAS = {"rank1": rank1, "rank2-symbolic": rank2, "hbar-twin": hbar_twin}


def coefficient(field):
    """3, g_2 at rank 2, plus hbar in an hbar field: a payload of each kind."""
    c = field.generator(2) if field.rank > 1 else field.from_rational(3)
    return c + field.hbar if field.hbar_order is not None else c


def inputs(A):
    rng = random.Random(7)
    c = coefficient(A.field)
    P = random_element(A, rng, max_terms=3, bound=2) * c + A.D(1, 2)
    Q = random_element(A, rng, max_terms=3, bound=2) + A.E(1) * A.x(1) * c
    f = random_function_element(A, rng) * c + A.E(1)
    span = sl2like(A)
    omega = Cochain(span, 1, {(j,): (c, c * (j - 1), 1) for j in range(span.dim)})
    return {
        "mul": lambda: A.mul(P, Q),
        "gr_mul": lambda u=full_symbol(P), v=full_symbol(Q): gr_mul(u, v),
        "act": lambda: act(P, f),
        "hochschild_b": lambda chain=tensor_chain([P, Q, f], c): hochschild_b(chain),
        "ce_differential": lambda: ce_differential(omega),
    }


def is_exponent_tuple(A, e) -> bool:
    return type(e) is tuple and len(e) == len(A.one_monomial) and all(type(x) is int for x in e)


def stored_form(A, result) -> bool:
    """Whether every key has the kernel's key form and every value is a payload."""
    for key, value in result.terms.items():
        if isinstance(result, Cochain):
            ok = type(key[0]) is tuple and type(key[1]) is int
        elif type(key[0]) is tuple:
            ok = all(is_exponent_tuple(A, e) for e in key)
        else:
            ok = is_exponent_tuple(A, key)
        kinds = (_Series,) if A.field.hbar_order is not None else (int, _Q, _RatPoly)
        if not ok or type(value) not in kinds:
            return False
    return True


@pytest.mark.parametrize("call", ["mul", "gr_mul", "act", "hochschild_b", "ce_differential"])
@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_kernels_store_exponent_tuples_and_payloads(kind, call, monkeypatch):
    A = ALGEBRAS[kind]()
    run = inputs(A)[call]
    first = run()
    assert first and stored_form(A, first)
    if kind == "rank2-symbolic":
        assert any(type(v) is _RatPoly for v in first.terms.values())

    built = []
    for cls in (Monomial, Scalar):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    second = run()
    monkeypatch.undo()
    assert built == []
    assert second == first
