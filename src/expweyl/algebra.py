"""Normal-form arithmetic for Weyl-type algebras over exponential-polynomial rings.

Per variable x_i the algebra carries four exponent slots: an integer power a_i
of the tower exponential E_i = exp(x_i^{p_i} e^{t_i x_i}), a lattice exponent
beta_i for e^{beta_i x_i}, a lattice exponent gamma_i for x_i^{gamma_i}, and a
natural power d_i of the derivative D_i.  A monomial is the product of these
factors in that fixed order; an element is a finite scalar combination of
monomials, kept in normal form (all derivatives on the right).

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
from .scalars import GroupElement, Scalar, ScalarField, power

__all__ = ["Signature", "Monomial", "Element", "WeylAlgebra", "add_terms", "monomial_sort_key"]


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
    """Exponent data of one normally-ordered monomial (immutable by convention).

    One flat int tuple ``exps`` holds, for n variables and lattice rank r, the
    slots in the order a | beta rows | gamma rows | d: E powers a, exponential
    lattice rows beta, power lattice rows gamma, derivative powers d.  The
    graded algebra uses the same monomials with d read as the commuting y.
    ``a``, ``beta``, ``gamma`` and ``d`` are read-only views.  The hash is
    cached because monomials are used as dict keys throughout the
    multiplication kernel.
    """

    __slots__ = ("exps", "n", "_hash")

    def __init__(self, exps: tuple[int, ...], n: int):
        self.exps = exps
        self.n = n
        self._hash = hash(exps)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._hash == other._hash and self.exps == other.exps and self.n == other.n

    def __repr__(self):
        return f"Monomial(a={self.a}, beta={self.beta}, gamma={self.gamma}, d={self.d})"

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

    @property
    def is_function(self) -> bool:
        return not any(self.d)

    def function_part(self) -> "Monomial":
        if self.is_function:
            return self
        return Monomial(self.exps[: -self.n] + (0,) * self.n, self.n)

    def shift(self, delta: Sequence[int], d: tuple[int, ...] | None = None) -> "Monomial":
        """The monomial with exponents exps + delta; a given d replaces the d part.

        This is the only exponent addition: products, derivative shifts and
        the module action all go through it.
        """
        if d is None:
            return Monomial(tuple(map(add, self.exps, delta)), self.n)
        return Monomial(tuple(map(add, self.exps, delta[: -self.n])) + d, self.n)

    def filtration_order(self) -> int:
        """|a| + l1(beta) + l1(gamma) + d."""
        e, n = self.exps, self.n
        return sum(map(abs, e[:-n])) + sum(e[-n:])


def monomial_sort_key(m: Monomial):
    """Graded-lex order used for canonical printing and reports:
    order, then d, the gamma rows, the beta rows and a."""
    e, n = m.exps, m.n
    gamma0 = len(e) // 2
    return (m.filtration_order(), e[-n:], e[gamma0:-n], e[n:gamma0], e[:n])


def add_terms(out: dict, pairs) -> dict:
    """Add (key, value) pairs into out, summing the values of equal keys.

    The one merge rule of sparse sums; a zero sum stays for the caller's
    zero filter.  Returns out.
    """
    for k, v in pairs:
        cur = out.get(k)
        out[k] = v if cur is None else cur + v
    return out


class _Sparse:
    """A finite sparse combination: ``terms`` maps keys to nonzero values.

    Elements, graded symbols, Hochschild chains, derivations, cochains and
    bidifferential operators all share this linear structure.  The values
    are Scalars (graded symbols for PolyDiffOp); only ``+``, unary ``-``,
    ``*`` and truth are used on them.  A subclass keeps its owner data in its
    own ``__slots__``; ``_owner()`` names the owner, and two objects combine
    only when their owners are ``==``; ``_field()`` gives the scalars that
    ``*`` takes.  By default a combination lives over an algebra, which is
    its owner and whose field gives the scalars.  A subclass adds its keys,
    its product and its printing.
    """

    __slots__ = ("terms",)

    def __init__(self, algebra: "WeylAlgebra", terms: Mapping):
        self.algebra = algebra
        self._set_terms(terms)

    def _set_terms(self, terms: Mapping) -> None:
        """The zero filter: keep the terms with a nonzero value."""
        self.terms = {k: v for k, v in terms.items() if v}

    def _owner(self):
        return self.algebra

    def _field(self) -> ScalarField:
        return self.algebra.field

    def _with(self, terms: Mapping):
        """An object with this one's owner data over terms, zeros dropped."""
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
        return self._with(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._with({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        c = self._field().coerce(other)
        if c is None:
            return NotImplemented
        return self._with({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def scale(self, c):
        """The combination times a scalar c: an int, a Fraction or a Scalar."""
        out = _Sparse.__mul__(self, c)
        if out is NotImplemented:
            raise TypeError(f"cannot scale by {type(c).__name__}")
        return out


class Element(_Sparse):
    """Finite scalar combination of monomials; immutable by convention."""

    __slots__ = ("algebra",)

    @classmethod
    def _nonzero(cls, algebra: "WeylAlgebra", terms: dict[Monomial, Scalar]) -> "Element":
        """An element over terms already known to have no zero coefficient."""
        e = cls.__new__(cls)
        e.algebra = algebra
        e.terms = terms
        return e

    # -- inspection ----------------------------------------------------------

    @property
    def is_function_element(self) -> bool:
        return all(m.is_function for m in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda mc: monomial_sort_key(mc[0]), reverse=True)

    def as_scalar(self) -> Scalar | None:
        """The element as a scalar if it is one, else None."""
        if self.is_zero:
            return self.algebra.field.zero
        if len(self.terms) == 1 and self.algebra.one_monomial in self.terms:
            return self.terms[self.algebra.one_monomial]
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
        unit = self.algebra.one_monomial
        if k == 0 or self.is_function_element or all(m.function_part() == unit for m in self.terms):
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

    def __init__(self, signature: Signature | None = None, _field: ScalarField | None = None, **kwargs):
        if signature is None:
            signature = Signature(**kwargs)
        elif kwargs:
            raise TypeError("pass either a signature or keyword fields, not both")
        self.signature = signature
        if _field is None:
            _field = ScalarField(signature.rank, signature.hbar_order)
        self.field = _field
        n, r = signature.n, signature.rank
        self.one_monomial = Monomial((0,) * (2 * n * (r + 1)), n)
        self.zero = Element(self, {})
        self.one = Element(self, {self.one_monomial: self.field.one})
        self._embed_t = tuple(self.field.embed(GroupElement(ti)) for ti in signature.t)
        self._diff_cache: dict[tuple[int, Monomial], tuple[tuple[Monomial, Scalar], ...]] = {}
        self._diff_pow_cache: dict[tuple[Monomial, tuple[int, ...]], tuple[tuple[Monomial, Scalar], ...]] = {}
        self._kbinom_cache: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]] = {}
        self._twin_cache: dict[tuple, "WeylAlgebra"] = {}
        # hbar^k / k! for k up to the t-shift order; order 0 is the classical rule
        self._hbar_over_fact: tuple[Scalar, ...] = (self.field.one,)
        if signature.t_shift:
            hb = self.field.hbar
            self._hbar_over_fact = tuple(
                hb**k * self.field.from_rational(Fraction(1, math.factorial(k)))
                for k in range(signature.hbar_order + 1)
            )

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
            twin = WeylAlgebra(
                Signature(sig.n, sig.rank, sig.p, sig.t, order, t_shift),
                _field=self.field.with_hbar(order),
            )
            self._twin_cache[key] = twin
        return twin

    # -- index and lattice helpers --------------------------------------------

    def _var(self, i: int) -> int:
        if not 1 <= i <= self.signature.n:
            raise SignatureMismatch(f"variable index {i} out of range 1..{self.signature.n}")
        return i - 1

    def lattice(self, value: int | Sequence[int] | GroupElement) -> GroupElement:
        """Coerce to a lattice element: an int k means k*g_1."""
        if isinstance(value, GroupElement):
            ge = value
        elif isinstance(value, int):
            ge = GroupElement((value,) + (0,) * (self.signature.rank - 1))
        else:
            ge = GroupElement(tuple(value))
        if ge.rank != self.signature.rank:
            raise SignatureMismatch("lattice element rank does not match the algebra")
        return ge

    # -- element constructors --------------------------------------------------

    def scalar_element(self, c) -> Element:
        return self.from_term(self.one_monomial, c)

    def from_term(self, monomial: Monomial, coeff: Scalar | int = 1) -> Element:
        c = self.field.coerce(coeff)
        if c is None:
            raise SignatureMismatch(f"not a scalar: {type(coeff).__name__}")
        return Element(self, {monomial: c})

    def slot(self, part: str, i0: int) -> int:
        """Index in Monomial.exps of variable i0's entry in part ("a", "beta",
        "gamma" or "d"); for a lattice row, of its first coordinate."""
        n, r = self.signature.n, self.signature.rank
        starts = {"a": 0, "beta": n, "gamma": n + n * r, "d": n + 2 * n * r}
        return starts[part] + i0 * (r if part in ("beta", "gamma") else 1)

    def monomial(self, i: int, *, a: int = 0, beta=None, gamma=None, d: int = 0) -> Monomial:
        """The monomial E_i^a e^{beta x_i} x_i^gamma D_i^d of one variable."""
        i0 = self._var(i)
        r = self.signature.rank
        exps = list(self.one_monomial.exps)
        exps[self.slot("a", i0)] = a
        exps[self.slot("d", i0)] = d
        for part, ge in (("beta", beta), ("gamma", gamma)):
            if ge is not None:
                start = self.slot(part, i0)
                exps[start : start + r] = ge.coords
        return Monomial(tuple(exps), self.signature.n)

    def x(self, i: int, power: int | Sequence[int] | GroupElement = 1) -> Element:
        """x_i^power, power a lattice element (int means a plain power)."""
        ge = self.lattice(power)
        if ge.is_zero:
            return self.one
        return self.from_term(self.monomial(i, gamma=ge))

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

    def exp_sym(self, i: int, alpha: int | Sequence[int] | GroupElement) -> Element:
        """The exponential symbol e^{alpha x_i}."""
        ge = self.lattice(alpha)
        if ge.is_zero:
            return self.one
        return self.from_term(self.monomial(i, beta=ge))

    # -- derivative rule --------------------------------------------------------

    def _diff_mono(self, i0: int, m: Monomial) -> tuple[tuple[Monomial, Scalar], ...]:
        """Derivative of a function monomial in variable i0 (0-based)."""
        key = (i0, m)
        hit = self._diff_cache.get(key)
        if hit is not None:
            return hit
        sig = self.signature
        field = self.field
        out: list[tuple[Monomial, Scalar]] = []
        r = sig.rank
        b0, g0 = self.slot("beta", i0), self.slot("gamma", i0)
        a_i = m.exps[i0]
        beta_i = m.exps[b0 : b0 + r]
        gamma_i = m.exps[g0 : g0 + r]

        def shifted(dgamma: int, add_t: bool) -> Monomial:
            delta = [0] * len(m.exps)
            delta[g0] = dgamma
            if add_t:
                delta[b0 : b0 + r] = sig.t[i0]
            return m.shift(delta)

        if a_i:
            p_i = sig.p[i0]
            a_scal = field.from_rational(a_i)
            N = len(self._hbar_over_fact) - 1
            two_hbar = field.hbar * 2 if N else None
            for k, hk in enumerate(self._hbar_over_fact):
                base = a_scal * hk
                out.append((shifted(p_i - 1 + 2 * k, True), base * p_i))
                if not self._embed_t[i0].is_zero:
                    out.append((shifted(p_i + 2 * k, True), base * self._embed_t[i0]))
                if k < N:
                    out.append((shifted(p_i + 1 + 2 * k, True), base * two_hbar))
        if any(beta_i):
            out.append((m, field.embed(GroupElement(beta_i))))
        if any(gamma_i):
            out.append((shifted(-1, False), field.embed(GroupElement(gamma_i))))

        merged = add_terms({}, ((mono, c) for mono, c in out if not c.is_zero))
        result = tuple((mono, c) for mono, c in merged.items() if not c.is_zero)
        self._diff_cache[key] = result
        return result

    def _diff_pow_mono(self, m: Monomial, k: tuple[int, ...]) -> tuple[tuple[Monomial, Scalar], ...]:
        """k-fold derivative (multi-index) of a function monomial."""
        if not any(k):
            return ((m, self.field.one),)
        key = (m, k)
        hit = self._diff_pow_cache.get(key)
        if hit is not None:
            return hit
        i0 = next(i for i, ki in enumerate(k) if ki)
        prev_k = tuple(ki - 1 if i == i0 else ki for i, ki in enumerate(k))
        prev = self._diff_pow_mono(m, prev_k)
        acc = add_terms({}, ((dm, pc * dc) for pm, pc in prev for dm, dc in self._diff_mono(i0, pm)))
        result = tuple((mono, c) for mono, c in acc.items() if not c.is_zero)
        self._diff_pow_cache[key] = result
        return result

    def diff_function(self, f: Element, i: int) -> Element:
        """Formal partial derivative of a function element in variable x_i."""
        self._check(f)
        if not f.is_function_element:
            raise NotAFunction("derivative rule applies to function elements")
        i0 = self._var(i)
        pairs = ((dm, c * dc) for m, c in f.terms.items() for dm, dc in self._diff_mono(i0, m))
        return Element(self, add_terms({}, pairs))

    # -- multiplication -----------------------------------------------------------

    def _check(self, e: Element) -> None:
        if not isinstance(e, Element) or e.algebra is not self:
            raise SignatureMismatch("element belongs to a different algebra")

    def _kbinom(self, d1: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Leibniz splittings of a derivative multi-index with their binomials."""
        hit = self._kbinom_cache.get(d1)
        if hit is not None:
            return hit
        rows = []
        for k in product(*(range(di + 1) for di in d1)):
            binom = 1
            for di, ki in zip(d1, k):
                binom = binom * math.comb(di, ki)
            rows.append((k, binom))
        result = tuple(rows)
        self._kbinom_cache[d1] = result
        return result

    def mul(self, P: Element, Q: Element) -> Element:
        """Normal-ordered product, accumulated on raw coefficient payloads
        with the field's ops (in an hbar field a payload is the whole
        truncated series, multiplied by convolution)."""
        self._check(P)
        self._check(Q)
        field = self.field
        one = field.one
        ops = field.ops
        pmul = ops.mul
        padd = ops.add
        left = [(m, c.pay, m.d) for m, c in P.terms.items()]
        acc: dict[Monomial, object] = {}
        for mQ, cQ in Q.terms.items():
            payQ = cQ.pay
            fQ = mQ.function_part()
            dQ = mQ.d
            # a unit function part on the right or no D on the left: only k = 0
            # of the Leibniz sum contributes
            pure = fQ == self.one_monomial
            for mP, payP, d1 in left:
                c = pmul(payP, payQ)
                if pure or not any(d1):
                    mono = mP.shift(mQ.exps)
                    cur = acc.get(mono)
                    acc[mono] = c if cur is None else padd(cur, c)
                    continue
                for k, binom in self._kbinom(d1):
                    cb = c if binom == 1 else pmul(c, field.from_rational(binom).pay)
                    d = tuple(map(add, map(sub, d1, k), dQ))
                    for fm, fc in self._diff_pow_mono(fQ, k):
                        mono = mP.shift(fm.exps, d)
                        v = cb if fc is one else pmul(cb, fc.pay)
                        cur = acc.get(mono)
                        acc[mono] = v if cur is None else padd(cur, v)
        # one zero filter, on the payloads; the Element needs no second pass
        return Element._nonzero(self, {m: Scalar(field, c) for m, c in acc.items() if c})

    def commutator(self, P: Element, Q: Element) -> Element:
        return self.mul(P, Q) + (-self.mul(Q, P))

    def __repr__(self):
        sig = self.signature
        extra = ""
        if sig.hbar_order is not None:
            extra += f", hbar<={sig.hbar_order}"
        if sig.t_shift:
            extra += ", t-shift"
        return f"WeylAlgebra(n={sig.n}, rank={sig.rank}, p={sig.p}, t={sig.t}{extra})"
