"""Normal-form arithmetic for Weyl-type algebras over exponential-polynomial rings.

Per variable x_i the algebra carries four exponent slots: an integer power a_i
of the tower exponential E_i = exp(x_i^{p_i} e^{t_i x_i}), a lattice exponent
beta_i for e^{beta_i x_i}, a lattice exponent gamma_i for x_i^{gamma_i}, and a
natural power d_i of the derivative D_i.  A monomial is the product of these
factors in that fixed order; an element is a finite scalar combination of
monomials, kept in normal form (all derivatives on the right), and stores
each term as the monomial's flat exponent tuple and the coefficient's
payload; Monomial views and Scalars are built only for callers that ask.

Multiplication rewrites D^d * f through the Leibniz expansion
D^d f = sum over k <= d of binom(d, k) (D^k f) D^{d-k}, where the derivative of
a function monomial splits by factor:

  E_i^{a_i}:  a_i * (p_i x^{p_i-1} + t_i x^{p_i}) e^{t_i x_i} times the monomial
  e^{b x_i}:  b times the monomial
  x_i^{g}:    g times the monomial with g lowered by one

(lattice exponents act through the field embedding, so the derivative rule is
exact for arbitrary lattice powers).  With the t-shift deformation switched on,
the E rule instead differentiates exp(x^p e^{(t + hbar x) x}) truncated at the
algebra's hbar order; everything downstream is unchanged.

Each algebra builds each variable's derivative rule once (``_rule``) and
caches, as plain (exponent tuple, payload) rows, the derivative of a
function monomial in one variable (``_diff_cache``) and the whole
normal-ordered product D^d * f of a derivative multi-index and a function
monomial, binomials included (``_diff_pow_cache``), so a product adds the
left term's exponents to each row of one table and multiplies by its
coefficient.  The exponent tuples of both caches are interned in ``_exps``.
Every exponent sum goes through ``_add_exps``, the algebra's
``scalars.tuple_adder`` for its tuple length: one unrolled expression,
with no iterator built per sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Mapping, Sequence

from .errors import (
    NegativePower,
    NotAFunction,
    SignatureMismatch,
)
from .scalars import Scalar, ScalarField, power, tuple_adder

__all__ = [
    "Signature", "Monomial", "Element", "WeylAlgebra", "add_terms", "filtration_order", "monomial_sort_key",
]

# (exponent tuple, coefficient payload) pairs: the derivative caches' values
Pairs = tuple[tuple[tuple[int, ...], object], ...]


@dataclass(frozen=True)
class Signature:
    """Shape of an algebra: variable count, lattice rank, tower exponents."""

    n: int = 1
    rank: int = 1
    p: tuple[int, ...] = (1,)
    t: tuple[tuple[int, ...], ...] = ((0,),)
    hbar_order: int | None = None
    t_shift: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise SignatureMismatch("need at least one variable")
        if self.rank < 1:
            raise SignatureMismatch("lattice rank must be >= 1")
        if len(self.p) != self.n or any(pi < 1 for pi in self.p):
            raise SignatureMismatch("p must list one exponent >= 1 per variable")
        if len(self.t) != self.n or any(len(ti) != self.rank for ti in self.t):
            raise SignatureMismatch("t must list one lattice element per variable")
        if self.t_shift and self.hbar_order is None:
            raise SignatureMismatch("t-shift deformation requires an hbar order")


class Monomial:
    """Read-only view of one normally-ordered monomial's exponent tuple.

    One flat int tuple ``exps`` holds, for n variables and lattice rank r, the
    slots in the order a | beta rows | gamma rows | d: E powers a, exponential
    lattice rows beta, power lattice rows gamma, derivative powers d.  The
    graded algebra uses the same tuples with d read as the commuting y.  The
    tuples themselves are the keys of every element's terms; a view names
    their slots for the printers and the other readers outside the kernel.
    """

    __slots__ = ("exps", "n")

    def __init__(self, exps: tuple[int, ...], n: int):
        self.exps = exps
        self.n = n

    def _rows(self, part: int) -> tuple[tuple[int, ...], ...]:
        # part 0 is beta, part 1 is gamma
        n, e = self.n, self.exps
        r = len(e) // (2 * n) - 1
        start = n + part * n * r
        return tuple(e[start + i * r : start + (i + 1) * r] for i in range(n))

    @property
    def a(self) -> tuple[int, ...]:
        return self.exps[: self.n]

    @property
    def beta(self) -> tuple[tuple[int, ...], ...]:
        return self._rows(0)

    @property
    def gamma(self) -> tuple[tuple[int, ...], ...]:
        return self._rows(1)

    @property
    def d(self) -> tuple[int, ...]:
        return self.exps[-self.n :]


def filtration_order(e: tuple[int, ...], n: int) -> int:
    """|a| + l1(beta) + l1(gamma) + d of the exponent tuple e of n variables."""
    return sum(map(abs, e[:-n])) + sum(e[-n:])


def monomial_sort_key(e: tuple[int, ...], n: int):
    """Graded-lex order of exponent tuples, for canonical printing and reports:
    order, then d, the gamma rows, the beta rows and a."""
    gamma0 = len(e) // 2
    return (filtration_order(e, n), e[-n:], e[gamma0:-n], e[n:gamma0], e[:n])


def add_terms(out: dict, pairs, plus=add) -> dict:
    """Add (key, value) pairs into out, summing the values of equal keys
    with plus (a field's ``ops.add`` for payloads).

    The one merge rule of sparse sums; a zero sum stays for the caller's
    zero filter.  Returns out.
    """
    for k, v in pairs:
        cur = out.get(k)
        out[k] = v if cur is None else plus(cur, v)
    return out


class _Sparse:
    """A finite sparse combination: ``terms`` maps keys to nonzero payloads.

    Elements, graded symbols, Hochschild chains, derivations and cochains
    share this linear structure.  An element's key is its monomial's
    exponent tuple, a chain's the tuple of its factors' exponent tuples, and
    every value is a payload of the owner's field, so ``+``, ``-``, scalar
    ``*``, ``==`` and ``hash`` run on plain data through ``field.ops``.  The
    constructor takes each value through ``ScalarField.payload``, which
    refuses a non-scalar; the kernels build their results through
    ``_with``, which only drops zeros.  A Monomial view and a Scalar are
    built only for callers that ask for them (``sorted_terms``).
    A subclass keeps its owner data in its own ``__slots__``; ``_owner()``
    names the owner, and two objects combine only when their owners are
    ``==``; ``_field()`` gives the scalars.  By default a combination lives
    over an algebra, which is its owner and whose field gives the scalars.
    A subclass adds its keys, its product and its printing.
    """

    __slots__ = ("terms",)

    def __init__(self, algebra: "WeylAlgebra", terms: Mapping):
        self.algebra = algebra
        pay = algebra.field.payload
        self._set_terms({k: pay(v) for k, v in terms.items()})

    def _set_terms(self, terms: dict) -> None:
        """The zero filter: keep the terms with a nonzero payload.  A dict
        without a zero is kept as it is, so callers pass one they no longer
        mutate."""
        self.terms = terms if all(terms.values()) else {k: v for k, v in terms.items() if v}

    def _owner(self):
        return self.algebra

    def _field(self) -> ScalarField:
        return self.algebra.field

    def _with(self, terms: dict):
        """An object with this one's owner data over payload terms, zeros
        dropped; the object keeps a zero-free dict itself (see _set_terms)."""
        new = object.__new__(type(self))
        for name in self.__slots__:
            setattr(new, name, getattr(self, name))
        new._set_terms(terms)
        return new

    def _check(self, other) -> bool:
        """Whether other has this type; raises if its owner differs."""
        if type(other) is not type(self):
            return False
        if other._owner() != self._owner():
            raise SignatureMismatch(f"{type(self).__name__} operands have different owners")
        return True

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not self._check(other):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        return self._with(add_terms(dict(self.terms), other.terms.items(), self._field().ops.add))

    def __neg__(self):
        neg = self._field().ops.neg
        return self._with({k: neg(v) for k, v in self.terms.items()})

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        field = self._field()
        c = field.coerce(other)
        if c is None:
            return NotImplemented
        pmul, pay = field.ops.mul, c.pay
        return self._with({k: pmul(v, pay) for k, v in self.terms.items()})

    __rmul__ = __mul__

    def scale(self, c):
        """The combination times a scalar c: an int, a Fraction or a Scalar."""
        s = self._field().coerce(c)
        if s is None:
            raise TypeError(f"cannot scale by {type(c).__name__}")
        return self * s


class Element(_Sparse):
    """Finite scalar combination of monomials; immutable by convention.
    The constructor takes canonical exponent tuples, E powers folded as
    ``WeylAlgebra._fold`` folds them; ``WeylAlgebra.from_term`` folds."""

    __slots__ = ("algebra",)

    # -- inspection ----------------------------------------------------------

    @property
    def is_function_element(self) -> bool:
        n = self.algebra.signature.n
        return not any(any(e[-n:]) for e in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """(Monomial view, Scalar) pairs in the canonical printing order."""
        field, n = self._field(), self.algebra.signature.n
        ordered = sorted(self.terms.items(), key=lambda ec: monomial_sort_key(ec[0], n), reverse=True)
        return [(Monomial(e, n), Scalar(field, c)) for e, c in ordered]

    def as_scalar(self) -> Scalar | None:
        """The element as a scalar if it is one, else None."""
        field = self.algebra.field
        if self.is_zero:
            return field.zero
        if len(self.terms) == 1 and self.algebra.one_monomial in self.terms:
            return Scalar(field, self.terms[self.algebra.one_monomial])
        return None

    # -- arithmetic ----------------------------------------------------------

    def _promote(self, other) -> "Element | None":
        """other as an element of this algebra: a scalar becomes a constant."""
        if isinstance(other, Element):
            return other
        c = self._field().coerce(other)
        return None if c is None else self.algebra.scalar_element(c)

    def __add__(self, other):
        other = self._promote(other)
        return NotImplemented if other is None else _Sparse.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        return NotImplemented if other is None else _Sparse.__sub__(self, other)

    def __rsub__(self, other):
        other = self._promote(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.mul(self, other)
        return _Sparse.__mul__(self, other)

    def __truediv__(self, other):
        if isinstance(other, Element):
            s = other.as_scalar()
            if s is None:
                raise NotAFunction("division is defined by scalars only")
            other = s
        c = self._field().coerce(other)
        if c is None:
            return NotImplemented
        return self * (self.algebra.field.one / c)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise NegativePower("general elements have no negative powers")
        n = self.algebra.signature.n
        if k == 0 or self.is_function_element or not any(any(e[:-n]) for e in self.terms):
            return power(self, k, self.algebra.one)
        # A product costs about (D-order of the left factor) x (terms of the
        # right one), and squaring puts a high D-order on the left, so an
        # operator with a function part is multiplied on the left k-1 times.
        out = self
        for _ in range(k - 1):
            out = self * out
        return out

    def __str__(self) -> str:
        from .expr import format_element

        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({self.__str__()!r})"


class WeylAlgebra:
    """Context object tying a signature to a scalar field and the rewrite rules."""

    def __init__(self, *, _field: ScalarField | None = None, **fields):
        self.signature = signature = Signature(**fields)
        if _field is None:
            _field = ScalarField(signature.rank, signature.hbar_order)
        self.field = _field
        n, r = signature.n, signature.rank
        # the exponent tuple of the unit monomial, and the sum of two exponent tuples
        self.one_monomial = (0,) * (2 * n * (r + 1))
        self._add_exps = tuple_adder(len(self.one_monomial))
        # the variables whose E_i is the lattice exponential exp(g_1 x_i):
        # p_i = 1 and t_i = 0, unless a t-shift with hbar makes E_i
        # exp(x_i e^{hbar x_i^2}); ``_fold`` keeps their E powers in beta
        shifted = signature.t_shift and signature.hbar_order
        self._exp_towers = tuple(
            i0 for i0 in range(n) if signature.p[i0] == 1 and not any(signature.t[i0]) and not shifted
        )
        self.zero = Element(self, {})
        self.one = Element(self, {self.one_monomial: self.field.one})
        # keyed by exponent tuples and holding plain data, no Monomial or Scalar:
        # derivatives by (i0, e), Leibniz products D^d * e by (e, d)
        self._diff_cache: dict[tuple[int, tuple[int, ...]], Pairs] = {}
        self._diff_pow_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Pairs] = {}
        # one object per tuple those two caches hold: exponent tuples, keys and
        # rows alike, and the multi-indices d
        self._exps: dict[tuple[int, ...], tuple[int, ...]] = {}
        # products of unit monomials, keyed (a, b); Hochschild b reads them
        self._mono_mul_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Pairs] = {}
        # Hochschild b of each basis tensor, keyed by the tensor's key: (chain key, payload) pairs
        self._hochschild_cache: dict[tuple[tuple[int, ...], ...], tuple] = {}
        self._twin_cache: dict[tuple, "WeylAlgebra"] = {}
        # star_cochain(self, k) by k, built once per algebra
        self._star_cache: dict[int, object] = {}
        # payloads of hbar^k / k! for k up to the t-shift order; order 0 is the classical rule
        hbar_over_fact = (self.field.ops.one,)
        if signature.t_shift:
            hb = self.field.hbar
            hbar_over_fact = tuple(
                (hb**k * self.field.from_rational(Fraction(1, math.factorial(k)))).pay
                for k in range(signature.hbar_order + 1)
            )
        # each variable's derivative rule, indexed by i0
        self._rules = tuple(self._rule(i0, hbar_over_fact) for i0 in range(n))

    # -- deformed twins -------------------------------------------------------

    def with_hbar(self, order: int) -> "WeylAlgebra":
        return self._twin(order, self.signature.t_shift)

    def with_t_shift(self, order: int) -> "WeylAlgebra":
        return self._twin(order, True)

    def _twin(self, order: int, t_shift: bool) -> "WeylAlgebra":
        # twins share the scalar ops so coefficients lift across without
        # renormalization; cached so repeated calls return the same instance
        key = (order, t_shift)
        twin = self._twin_cache.get(key)
        if twin is None:
            sig = self.signature
            twin = WeylAlgebra(n=sig.n, rank=sig.rank, p=sig.p, t=sig.t, hbar_order=order,
                               t_shift=t_shift, _field=self.field.with_hbar(order))
            self._twin_cache[key] = twin
        return twin

    # -- index and lattice helpers --------------------------------------------

    def _var(self, i: int) -> int:
        if not 1 <= i <= self.signature.n:
            raise SignatureMismatch(f"variable index {i} out of range 1..{self.signature.n}")
        return i - 1

    def lattice(self, value: int | Sequence[int]) -> tuple[int, ...]:
        """Coerce to a lattice element, a tuple of rank ints: an int k means k*g_1."""
        rank = self.signature.rank
        coords = (value,) + (0,) * (rank - 1) if isinstance(value, int) else tuple(value)
        if not all(isinstance(c, int) for c in coords):
            raise TypeError("coordinates must be integers")
        if len(coords) != rank:
            raise SignatureMismatch("lattice element rank does not match the algebra")
        return coords

    # -- element constructors --------------------------------------------------

    def scalar_element(self, c) -> Element:
        return self.from_term(self.one_monomial, c)

    def from_term(self, exps: tuple[int, ...], coeff: Scalar | int = 1) -> Element:
        """coeff times the monomial with exponent tuple exps, its E powers
        folded as ``monomial`` folds them (see ``_fold``)."""
        return self.zero._with({self._fold(exps): self.field.payload(coeff)})

    def slot(self, part: str, i0: int) -> int:
        """Index in an exponent tuple of variable i0's entry in part ("a",
        "beta", "gamma" or "d"); for a lattice row, of its first coordinate."""
        n, r = self.signature.n, self.signature.rank
        starts = {"a": 0, "beta": n, "gamma": n + n * r, "d": n + 2 * n * r}
        return starts[part] + i0 * (r if part in ("beta", "gamma") else 1)

    def monomial(self, i: int, *, a: int = 0, beta=None, gamma=None, d: int = 0) -> tuple[int, ...]:
        """The exponent tuple of E_i^a e^{beta x_i} x_i^gamma D_i^d, one
        variable, with the E power folded into beta where E_i is exp(g_1 x_i)
        (see ``_fold``)."""
        i0 = self._var(i)
        r = self.signature.rank
        exps = list(self.one_monomial)
        exps[self.slot("a", i0)] = a
        exps[self.slot("d", i0)] = d
        for part, coords in (("beta", beta), ("gamma", gamma)):
            if coords is not None:
                start = self.slot(part, i0)
                exps[start : start + r] = coords
        return self._fold(tuple(exps))

    def _fold(self, e: tuple[int, ...]) -> tuple[int, ...]:
        """e with the E power a_i of each variable in ``_exp_towers`` moved
        into the first coordinate of its beta row: E_i^a = exp(a g_1 x_i),
        so one function has one monomial.  Products keep the form, since the
        derivative of a beta row creates no E power."""
        for i0 in self._exp_towers:
            if e[i0]:
                b = self.slot("beta", i0)
                e = e[:i0] + (0,) + e[i0 + 1 : b] + (e[b] + e[i0],) + e[b + 1 :]
        return e

    def x(self, i: int, power: int | Sequence[int] = 1) -> Element:
        """x_i^power, power a lattice element (int means a plain power)."""
        gamma = self.lattice(power)
        if not any(gamma):
            return self.one
        return self.from_term(self.monomial(i, gamma=gamma))

    def D(self, i: int, k: int = 1) -> Element:
        if k < 0:
            raise NegativePower("derivatives have no inverses")
        if k == 0:
            return self.one
        return self.from_term(self.monomial(i, d=k))

    def E(self, i: int, k: int = 1) -> Element:
        if k == 0:
            return self.one
        return self.from_term(self.monomial(i, a=k))

    def exp_sym(self, i: int, alpha: int | Sequence[int]) -> Element:
        """The exponential symbol e^{alpha x_i}."""
        beta = self.lattice(alpha)
        if not any(beta):
            return self.one
        return self.from_term(self.monomial(i, beta=beta))

    # -- derivative rule --------------------------------------------------------

    def _rule(self, i0: int, hbar_over_fact: tuple) -> tuple:
        """Variable i0's derivative rule: the E rows as (exponent delta, payload
        to scale by a_i), in the order of k and then of the factors p x^{p-1},
        t x^p and 2 hbar x^{p+1}, each times hbar^k / k! (no t row when t_i
        is 0); the slices of the beta and gamma rows; the delta that lowers
        gamma."""
        sig, field = self.signature, self.field
        ops, r, p_i, t_i = field.ops, sig.rank, sig.p[i0], sig.t[i0]
        b0, g0 = self.slot("beta", i0), self.slot("gamma", i0)

        def delta(dgamma: int, t: tuple[int, ...]) -> tuple[int, ...]:
            out = [0] * len(self.one_monomial)
            out[b0 : b0 + r] = t
            out[g0] = dgamma
            return tuple(out)

        factors = (p_i, field.embed(t_i).pay, ops.mul(ops.hbar, 2) if len(hbar_over_fact) > 1 else 0)
        rows = []
        for k, hk in enumerate(hbar_over_fact):
            for j, c in enumerate(factors):
                c = c if hk is ops.one else ops.mul(hk, c)
                if c:
                    rows.append((delta(p_i - 1 + j + 2 * k, t_i), c))
        return tuple(rows), slice(b0, b0 + r), slice(g0, g0 + r), delta(-1, (0,) * r)

    def _diff_mono(self, i0: int, e: tuple[int, ...]) -> Pairs:
        """Derivative in variable i0 (0-based) of the function monomial with
        exponents e, by the variable's rule (``_rule``): the E rows scaled by
        a_i, then beta times e and gamma times e with gamma lowered by one."""
        key = (i0, e)
        hit = self._diff_cache.get(key)
        if hit is not None:
            return hit
        field, add = self.field, self._add_exps
        pmul = field.ops.mul
        e_rows, beta, gamma, down = self._rules[i0]
        a_i = e[i0]
        rows = [(add(e, de), pmul(a_i, c)) for de, c in e_rows] if a_i else []
        if any(e[beta]):
            rows.append((e, field.embed(e[beta]).pay))
        if any(e[gamma]):
            rows.append((add(e, down), field.embed(e[gamma]).pay))
        intern = self._exps.setdefault
        merged = add_terms({}, rows, field.ops.add).items()
        result = self._diff_cache[(i0, intern(e, e))] = tuple((intern(de, de), c) for de, c in merged if c)
        return result

    def _diff_pow_mono(self, e: tuple[int, ...], d: tuple[int, ...]) -> Pairs:
        """The normal-ordered product D^d * e of the derivative multi-index d
        and the function monomial with exponents e: the Leibniz sum of
        binom(d, k) (D^k e) D^{d-k} over k <= d, as (exps, payload) pairs in
        the order of k and then of the derivative's rows, each exps with
        d - k in its D slots and each payload with its binomial.  The first
        row is (e with d, ``ops.one``); a first-order table continues with
        the ``_diff_cache`` rows themselves.  ``_leibniz`` asks only for a
        nonzero d."""
        hit = self._diff_pow_cache.get((e, d))
        if hit is not None:
            return hit
        ops = self.field.ops
        pmul, padd, one, intern = ops.mul, ops.add, ops.one, self._exps.setdefault
        e, d = intern(e, e), intern(d, d)
        n = len(d)
        if sum(d) == 1:
            # D_i e = e D_i + the derivative of e: binomials 1, no ladder
            head = e[:-n] + d
            rows = ((intern(head, head), one),) + self._diff_mono(d.index(1), e)
            self._diff_pow_cache[(e, d)] = rows
            return rows
        # the derivatives D^k e by k, each from the one below in its first nonzero
        # index; merged inline as in mul, since this loop is a cold product's main cost
        ladder: dict[tuple[int, ...], dict] = {}
        diff = self._diff_mono
        rows = []
        for k in product(*(range(di + 1) for di in d)):
            if any(k):
                i0 = next(i for i, ki in enumerate(k) if ki)
                dk_e: dict[tuple[int, ...], object] = {}
                for pe, pc in ladder[tuple(ki - 1 if i == i0 else ki for i, ki in enumerate(k))].items():
                    for de, dc in diff(i0, pe):
                        v = pmul(pc, dc)
                        cur = dk_e.get(de)
                        dk_e[de] = v if cur is None else padd(cur, v)
                if not all(dk_e.values()):
                    dk_e = {de: c for de, c in dk_e.items() if c}
            else:
                dk_e = {e: one}
            ladder[k] = dk_e
            d_k = tuple(map(sub, d, k))
            binom = math.prod(map(math.comb, d, k))
            for de, c in dk_e.items():
                row = de[:-n] + d_k
                rows.append((intern(row, row), c if binom == 1 else pmul(binom, c)))
        result = self._diff_pow_cache[(e, d)] = tuple(rows)
        return result

    def diff_function(self, f: Element, i: int) -> Element:
        """Formal partial derivative of a function element in variable x_i."""
        self._check(f)
        if not f.is_function_element:
            raise NotAFunction("derivative rule applies to function elements")
        i0 = self._var(i)
        ops = self.field.ops
        pairs = ((de, ops.mul(c, dc)) for e, c in f.terms.items() for de, dc in self._diff_mono(i0, e))
        return f._with(add_terms({}, pairs, ops.add))

    # -- multiplication -----------------------------------------------------------

    def _check(self, e: Element) -> None:
        if not isinstance(e, Element) or e.algebra is not self:
            raise SignatureMismatch("element belongs to a different algebra")

    def mul(self, P: Element, Q: Element) -> Element:
        """Normal-ordered product, accumulated on coefficient payloads with
        the field's ops (in an hbar field a payload is the whole truncated
        series, multiplied by convolution), keyed by exponent tuples."""
        self._check(P)
        self._check(Q)
        return P._with(self._leibniz({}, P, Q, False, False))

    def _leibniz(self, acc: dict, P: Element, Q: Element, tail: bool, negate: bool) -> dict:
        """Add into acc the Leibniz rows of every term product P_i * Q_j and
        return acc.  With tail, only the rows k >= 1 of each pair (a pair
        with no D on the left or a unit function part on the right has only
        k = 0 and is skipped); with negate, those rows are subtracted, one
        ``ops.neg`` per pair.  ``mul`` takes all rows of P * Q, ``commutator``
        the tails of P * Q and, negated, of Q * P."""
        ops = self.field.ops
        pmul = ops.mul
        padd = ops.add
        neg = ops.neg
        one = ops.one
        add = self._add_exps
        n = self.signature.n
        no_d = (0,) * n
        start = 1 if tail else 0
        # each left term's head (all but d) and d, sliced once; d is None without a D part
        left = [(eP, eP[:-n], payP, eP[-n:] if any(eP[-n:]) else None) for eP, payP in P.terms.items()]
        if tail:
            left = [t for t in left if t[3] is not None]
        for eQ, payQ in Q.terms.items():
            fQ = eQ[:-n] + no_d
            dQ = eQ[-n:]
            # a unit function part on the right or no D on the left: only k = 0
            # of the Leibniz sum contributes
            pure = not any(fQ)
            if tail and pure:
                continue
            for eP, headP, payP, d1 in left:
                c = payQ if payP is one else payP if payQ is one else pmul(payP, payQ)
                if pure or d1 is None:
                    e = add(eP, eQ)
                    cur = acc.get(e)
                    acc[e] = c if cur is None else padd(cur, c)
                    continue
                if negate:
                    c = neg(c)
                # each row of D^d1 fQ carries its own D part: add eP's head and dQ
                base = headP + dQ
                for de, coef in self._diff_pow_mono(fQ, d1)[start:]:
                    e = add(base, de)
                    v = c if coef is one else coef if c is one else pmul(c, coef)
                    cur = acc.get(e)
                    acc[e] = v if cur is None else padd(cur, v)
        return acc

    def _mono_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> Pairs:
        """The product of the unit monomials with exponent tuples a and b, as
        (exps, payload) pairs; computed once by ``mul`` and cached under (a, b)."""
        key = (a, b)
        hit = self._mono_mul_cache.get(key)
        if hit is None:
            one = self.field.ops.one
            prod = self.mul(self.zero._with({a: one}), self.zero._with({b: one}))
            hit = self._mono_mul_cache[key] = tuple(prod.terms.items())
        return hit

    def commutator(self, P: Element, Q: Element) -> Element:
        """[P, Q] = P*Q - Q*P in one pass per order, without ``mul``: the
        k = 0 Leibniz rows f*g*D^(a+b) of P_i*Q_j and Q_j*P_i are equal,
        since functions and payloads commute, so only the rows k >= 1 of
        each order are formed (see ``_leibniz``)."""
        self._check(P)
        self._check(Q)
        acc = self._leibniz({}, P, Q, True, False)
        return P._with(self._leibniz(acc, Q, P, True, True))

    def __repr__(self):
        sig = self.signature
        extra = ""
        if sig.hbar_order is not None:
            extra += f", hbar<={sig.hbar_order}"
        if sig.t_shift:
            extra += ", t-shift"
        return f"WeylAlgebra(n={sig.n}, rank={sig.rank}, p={sig.p}, t={sig.t}{extra})"
