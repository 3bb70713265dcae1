"""The stored form of the kernels' results: exponent tuples and payloads.

After ``A.mul``, ``gr_mul``, ``act``, ``hochschild_b`` and ``ce_differential``
the result's ``terms`` map exponent tuples (tuples of them for a chain,
(index tuple, coordinate) places for a cochain) to payloads of the field,
and no ``Monomial`` or ``Scalar`` was constructed inside the call.  The
derived layers above them (``symbol_star``, ``star_assoc_check``,
``euler_integrate`` and the rank-2 ``m1``) construct none either.  The
derivative caches and the lattice embedding build Scalars once, the first
time they meet an exponent, so each call is made twice and counted the
second time.
"""

import random
from fractions import Fraction

import pytest

from expweyl.algebra import Monomial, WeylAlgebra
from expweyl.deformation import AntisymMatrix, gr_power, rank2_cochain, star_assoc_check, star_cochain, symbol_star
from expweyl.grading import full_symbol, gr_mul
from expweyl.homology import hochschild_b, tensor_chain
from expweyl.lie import Cochain, ce_differential, euler_integrate, sl2like
from expweyl.representation import act
from expweyl.sampling import random_cochain, random_element, random_function_element
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
        if type(value) is _Series:
            # in an hbar field a value without an hbar part is its slot payload
            ok = ok and A.field.hbar_order is not None and any(value[1:])
        else:
            ok = ok and type(value) in (int, _Q, _RatPoly)
        if not ok:
            return False
    return True


def built_by(run, monkeypatch):
    """The names of the Monomials and Scalars that run() constructs, and its result."""
    built = []
    for cls in (Monomial, Scalar):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    result = run()
    monkeypatch.undo()
    return built, result


@pytest.mark.parametrize("call", ["mul", "gr_mul", "act", "hochschild_b", "ce_differential"])
@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_kernels_store_exponent_tuples_and_payloads(kind, call, monkeypatch):
    A = ALGEBRAS[kind]()
    run = inputs(A)[call]
    first = run()
    assert first and stored_form(A, first)
    if kind == "rank2-symbolic":
        assert any(type(v) is _RatPoly for v in first.terms.values())

    built, second = built_by(run, monkeypatch)
    assert built == []
    assert second == first


def derived_inputs():
    A = rank1()
    # large exponents: a partial multiplies by its exponent as a payload, whatever its size
    f = full_symbol(A.D(1, 257) + A.E(1) * A.D(1))
    g = full_symbol(A.x(1, 258) + A.E(1) * A.x(1))
    h = full_symbol(A.E(1, 2) * A.D(1, 2) + A.x(1))
    star = [star_cochain(A, 1), star_cochain(A, 2)]
    span = sl2like(A)
    omega = ce_differential(random_cochain(span, random.Random(3), 1, ad_degree=2))
    halg = WeylAlgebra(n=1, rank=2, p=(2,), t=((0, 1),)).with_hbar(1)
    m1 = rank2_cochain(halg, AntisymMatrix(((0, Fraction(1, 3)), (Fraction(-1, 3), 0))))
    return {
        "symbol_star": lambda: symbol_star(f, g, 2),
        "star_assoc_check": lambda: star_assoc_check(star, [(f, g, h)]),
        "euler_integrate": lambda: euler_integrate(omega),
        "rank2_m1": lambda: m1(gr_power(halg, (2, 1)), gr_power(halg, (-1, 3))),
    }


@pytest.mark.parametrize("call", ["symbol_star", "star_assoc_check", "euler_integrate", "rank2_m1"])
def test_derived_layers_build_no_monomial_or_scalar(call, monkeypatch):
    run = derived_inputs()[call]
    first = run()
    built, second = built_by(run, monkeypatch)
    assert built == []
    assert second == first
