"""Exact scalar arithmetic for the kernel.

Scalars form the field Q(g_2, ..., g_r): multivariate rational functions over Q
in the independent symbols attached to the exponent-lattice generators
(g_1 = 1 always, so rank 1 means plain rationals).  An element of the
exponent lattice is a tuple of r ints, its coordinates over g_1..g_r, and
ScalarField.embed maps it to sum coords[j] * g_j.  A field may additionally
carry a truncated hbar series mode: scalars are then polynomials in hbar cut
off above a fixed order, with componentwise addition, convolution product, and
division by series with invertible constant term.

Representation: a scalar holds one payload, and its field's ``ops`` is the
only arithmetic on it.  In a field without an hbar order the payload is a
slot payload.  At every rank a constant value is a Python int when it is
integral and otherwise a _Q, a slotted rational in lowest terms; at rank >= 2
a value with symbols is a reduced numerator/denominator pair of sympy ring
polynomials (gcd cancelled, denominator primitive with integer coefficients
and positive leading coefficient), whose coefficients are sympy QQ
rationals: QQ appears only inside those polynomials.  In an hbar field the
payload is a _Series, a tuple of slot payloads, one per power of hbar.  Each
value has one payload, so structural equality is canonical-form equality,
and every zero payload is falsy, so a zero test is a truth test.  Polynomial
arithmetic is delegated to sympy's dense ring elements; everything above
that layer is defined here.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from sympy.polys.domains import QQ
from sympy.polys.rings import ring as _sympy_ring

from .errors import (
    DivisionByZero,
    HbarModeOff,
    NonInvertibleSeries,
    SignatureMismatch,
)

__all__ = ["Scalar", "ScalarField"]


# ---------------------------------------------------------------------------
# Payload adapters: one per coefficient representation
# ---------------------------------------------------------------------------

class _Q:
    """The non-integral constant payload: numerator/denominator in lowest
    terms, denominator > 1, never zero (so truthy).  Integral values are
    plain ints, so each value has one payload; == and hash agree with Fraction."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other):
        if isinstance(other, (_Q, int, Fraction)):
            return self.numerator == other.numerator and self.denominator == other.denominator
        return NotImplemented

    def __hash__(self):
        # Fraction's rule: |numerator| / denominator modulo the hash modulus,
        # and inf when the denominator has no inverse there
        try:
            h = hash(hash(abs(self.numerator)) * pow(self.denominator, -1, sys.hash_info.modulus))
        except ValueError:
            h = sys.hash_info.inf
        if self.numerator < 0:
            h = -h
        return -2 if h == -1 else h

    def __neg__(self):
        return _Q(-self.numerator, self.denominator)

    def __repr__(self):
        return f"_Q({self.numerator}, {self.denominator})"


# int/_Q arithmetic, with Fraction's gcd shortcuts; ints carry .numerator and
# .denominator too

def _qadd(x, y):
    if type(x) is int:
        if type(y) is int:
            return x + y
        # n/d + x keeps the reduced denominator d
        return _Q(y.numerator + x * y.denominator, y.denominator)
    if type(y) is int:
        return _Q(x.numerator + y * x.denominator, x.denominator)
    na, da, nb, db = x.numerator, x.denominator, y.numerator, y.denominator
    g = gcd(da, db)
    if g == 1:
        return _Q(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g = gcd(t, g)
    den = s * (db // g)
    return t // g if den == 1 else _Q(t // g, den)


def _qmul(x, y):
    if type(x) is int:
        if type(y) is int:
            return x * y
        x, y = y, x
    elif type(y) is not int:
        na, da, nb, db = x.numerator, x.denominator, y.numerator, y.denominator
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        den = (da // g2) * (db // g1)
        num = (na // g1) * (nb // g2)
        return num if den == 1 else _Q(num, den)
    # x is a _Q, y an int
    g = gcd(y, x.denominator)
    num, den = x.numerator * (y // g), x.denominator // g
    return num if den == 1 else _Q(num, den)


def _qdiv(x, y):
    if not y:
        raise DivisionByZero("scalar division by zero")
    na, da, nb, db = x.numerator, x.denominator, y.numerator, y.denominator
    g1 = gcd(na, nb)
    g2 = gcd(da, db)
    num = (na // g1) * (db // g2)
    den = (da // g2) * (nb // g1)
    if den < 0:
        num, den = -num, -den
    return num if den == 1 else _Q(num, den)


def _qq(c):
    """An int/_Q constant in a form a PolyElement takes: an int as it is, a
    _Q as an element of sympy's QQ."""
    return c if type(c) is int else QQ(c.numerator, c.denominator)


def _from_qq(q):
    """A QQ element (reduced, positive denominator) as an int/_Q constant."""
    num, den = int(q.numerator), int(q.denominator)
    return num if den == 1 else _Q(num, den)


class _SlotOps:
    """What the two slot payload kinds share: subtraction, the one-slot layout
    and the int/_Q constants."""

    zero = 0
    one = 1

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def coeffs(self, x) -> tuple:
        return (x,)

    def lift(self, coeffs: tuple):
        return coeffs[0]

    def rational(self, num: int, den: int):
        """The payload of num/den (den nonzero)."""
        return _qdiv(num, den)


class _RationalOps(_SlotOps):
    """Rank-1 payloads: a Python int when the value is integral, otherwise a
    _Q.  Zero is the int 0, which is falsy: ``not c`` is the zero test.
    Plain integers (the common case: binomials, derivative factors,
    window-rank coefficients) never pay for a gcd."""

    def add(self, x, y):
        return _qadd(x, y)

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return _qmul(x, y)

    def div(self, x, y):
        return _qdiv(x, y)


class _RatPoly:
    """Reduced fraction of ring polynomials; canonical by construction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __bool__(self):
        # canonical pairs are never zero (zero demotes to the int 0); only the
        # transient pairs of _RatPolyOps._lift can be
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, _RatPoly)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # PolyElement caches its own hash and sympy mutates polys in place
        # during construction, so hash the term content directly.
        num = tuple(sorted(self.num.items(), key=lambda kv: kv[0]))
        den = tuple(sorted(self.den.items(), key=lambda kv: kv[0]))
        return hash((num, den))

    def __repr__(self):
        return f"_RatPoly({self.num}, {self.den})"


class _RatPolyOps(_SlotOps):
    """Rank >= 2 payloads.

    A constant value (the common case in kernel arithmetic) is an int or a
    _Q, as at rank 1; a value with symbols is a reduced _RatPoly pair over
    Q[g_2..g_r].  A constant becomes a QQ element only where it meets a
    PolyElement (``ground_new``, ``mul_ground`` and division by a constant), and
    a ground polynomial is demoted back, so representations stay canonical
    and the polynomial machinery only runs when symbols are actually present.
    """

    def __init__(self, rank: int):
        created = _sympy_ring(",".join(f"g_{j}" for j in range(2, rank + 1)), QQ)
        self.ring = created[0]
        # canonical pairs reuse this exact object for trivial denominators,
        # so hot paths can test `den is self.pone` instead of polynomial ==
        self.pone = self.ring.one

    def _lift(self, x):
        if isinstance(x, _RatPoly):
            return x
        return _RatPoly(self.ring.ground_new(_qq(x)), self.pone)

    def _demote(self, x: _RatPoly):
        if x.den is self.pone:
            if not x.num:
                return 0
            if x.num.is_ground:
                return _from_qq(next(iter(x.num.values())))
        return x

    def _new(self, num, den):
        one = self.pone
        if not num:
            return 0
        if den is not one:
            g = num.gcd(den)
            if not g.is_ground:
                num = num.quo(g)
                den = den.quo(g)
            if den.is_ground:
                q = next(iter(den.values()))
                if q != QQ.one:
                    num = num.mul_ground(QQ.one / q)
                den = one
            else:
                c = den.content()
                if den.LC < 0:
                    c = -c
                if c != QQ.one:
                    inv = QQ.one / c
                    num = num.mul_ground(inv)
                    den = den.mul_ground(inv)
        return self._demote(_RatPoly(num, den))

    def add(self, x, y):
        xp, yp = isinstance(x, _RatPoly), isinstance(y, _RatPoly)
        if not xp and not yp:
            return _qadd(x, y)
        if xp != yp:
            # constant + reduced pair: numerator shift keeps the pair reduced
            if xp:
                x, y = y, x
            if not x:
                return y
            return _RatPoly(y.num + y.den.mul_ground(_qq(x)), y.den)
        if x.den is self.pone and y.den is self.pone:
            return self._demote(_RatPoly(x.num + y.num, self.pone))
        if x.den == y.den:
            return self._new(x.num + y.num, x.den)
        return self._new(x.num * y.den + y.num * x.den, x.den * y.den)

    def neg(self, x):
        if not isinstance(x, _RatPoly):
            return -x
        return _RatPoly(-x.num, x.den)

    def mul(self, x, y):
        xp, yp = isinstance(x, _RatPoly), isinstance(y, _RatPoly)
        if not xp and not yp:
            return _qmul(x, y)
        if xp != yp:
            # scaling a reduced pair by a constant cannot create a common factor
            if xp:
                x, y = y, x
            if not x:
                return 0
            return _RatPoly(y.num.mul_ground(_qq(x)), y.den)
        if x.den is self.pone and y.den is self.pone:
            return _RatPoly(x.num * y.num, self.pone)
        return self._new(x.num * y.num, x.den * y.den)

    def div(self, x, y):
        if not isinstance(y, _RatPoly):
            if not isinstance(x, _RatPoly):
                return _qdiv(x, y)
            return _RatPoly(x.num.mul_ground(_qq(_qdiv(1, y))), x.den)
        x = self._lift(x)
        if not y.num:
            raise DivisionByZero("scalar division by zero")
        return self._new(x.num * y.den, x.den * y.num)

    def gen(self, j: int) -> _RatPoly:
        return _RatPoly(self.ring.gens[j - 2], self.pone)


class _Series(tuple):
    """Payload of an hbar field, one slot payload per power of hbar.  Falsy
    exactly when every slot is zero; without an hbar part it hashes like its
    constant term, so == and hash agree with ints and Fractions."""

    __slots__ = ()

    def __bool__(self):
        return any(self)

    def __hash__(self):
        return tuple.__hash__(self) if any(self[1:]) else hash(self[0])


class _SeriesOps:
    """Payload arithmetic of an hbar field: truncated series over the slot ops.

    Addition is componentwise, the product is the convolution cut off at the
    last slot, and division multiplies by the inverse series, which exists
    when the constant term is nonzero.
    """

    def __init__(self, ops, slots: int):
        self.ops = ops
        self.slots = slots
        self.zero = self.lift(())
        self.one = self.lift((ops.one,))
        self.hbar = self.lift((ops.zero, ops.one)[:slots])

    def coeffs(self, x: _Series) -> tuple:
        return tuple(x)

    def lift(self, coeffs: tuple) -> _Series:
        """The series with these leading slots, zero above them."""
        return _Series(coeffs + (self.ops.zero,) * (self.slots - len(coeffs)))

    def add(self, x: _Series, y: _Series) -> _Series:
        return _Series(map(self.ops.add, x, y))

    def neg(self, x: _Series) -> _Series:
        return _Series(map(self.ops.neg, x))

    def sub(self, x: _Series, y: _Series) -> _Series:
        return _Series(map(self.ops.sub, x, y))

    def mul(self, x: _Series, y: _Series) -> _Series:
        # pair only the nonzero slots, and stop at the truncation order
        ops, slots = self.ops, self.slots
        out = [ops.zero] * slots
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                for j, yj in ys:
                    k = i + j
                    if k >= slots:
                        break
                    out[k] = ops.add(out[k], ops.mul(xi, yj))
        return _Series(out)

    def div(self, x: _Series, y: _Series) -> _Series:
        ops = self.ops
        if not y:
            raise DivisionByZero("scalar division by zero")
        y0 = y[0]
        if not y0:
            raise NonInvertibleSeries("series has zero constant term")
        inv = [ops.div(ops.one, y0)]
        for k in range(1, self.slots):
            acc = ops.zero
            for j in range(1, k + 1):
                if y[j]:
                    acc = ops.add(acc, ops.mul(y[j], inv[k - j]))
            inv.append(ops.neg(ops.div(acc, y0)))
        return self.mul(x, _Series(inv))


def power(x, k: int, one):
    """x**k for k >= 0 by square-and-multiply: about 2*log2(k) products.

    The products are exact and associative, so the result is the k-fold one.
    """
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

class Scalar:
    """Immutable field element: one payload, computed on by its field's ops."""

    __slots__ = ("field", "pay")

    def __init__(self, field: "ScalarField", pay):
        self.field = field
        self.pay = pay

    # -- arithmetic ---------------------------------------------------------
    # A Scalar of the same field skips coerce.

    def __add__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = field.coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(field, field.ops.add(self.pay, other.pay))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field.ops.neg(self.pay))

    def __sub__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = field.coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(field, field.ops.sub(self.pay, other.pay))

    def __rsub__(self, other):
        o = self.field.coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = field.coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(field, field.ops.mul(self.pay, other.pay))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.field.coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.ops.div(self.pay, o.pay))

    def __rtruediv__(self, other):
        o = self.field.coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (1 / self) ** (-e)
        return power(self, e, self.field.one)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return other.field is self.field and self.pay == other.pay

    def __hash__(self):
        # agrees with __eq__ against ints and Fractions: a payload kind hashes
        # a rational value without an hbar part like the equal Fraction
        return hash(self.pay)

    def __bool__(self):
        return bool(self.pay)

    @property
    def is_zero(self) -> bool:
        return not self.pay

    @property
    def coeffs(self) -> tuple:
        """The slot payloads, one per power of hbar (one without hbar)."""
        return self.field.ops.coeffs(self.pay)

    @property
    def is_unit(self) -> bool:
        """Invertible: nonzero constant term."""
        return bool(self.coeffs[0])

    def hbar_coefficient(self, k: int) -> "Scalar":
        """Coefficient of hbar^k, as a scalar of the hbar-free base field."""
        if not 0 <= k < self.field.slots:
            raise HbarModeOff(f"no hbar^{k} slot in this field")
        return Scalar(self.field.base, self.coeffs[k])

    def as_rational(self) -> Fraction | None:
        """The value as a plain rational, if it is one; else None."""
        c0, *rest = self.coeffs
        if any(rest) or isinstance(c0, _RatPoly):
            # canonical pairs are never constant (they would be demoted)
            return None
        return Fraction(c0.numerator, c0.denominator)

    def payload_data(self, k: int):
        """Slot-k payload as primitive data for renderers.

        Returns ("rat", Fraction) for rational payloads and
        ("poly", num_terms, den_terms) for symbolic ones, where each terms
        tuple lists (exponents over g_2.., coefficient) descending.
        """
        p = self.coeffs[k]
        if isinstance(p, _RatPoly):
            return ("poly", _poly_terms(p.num), _poly_terms(p.den))
        return ("rat", Fraction(p.numerator, p.denominator))

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        from .expr import format_scalar

        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.coeffs!r})"


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class ScalarField:
    """Context object: rank, optional hbar truncation order; the generators
    are g_1..g_r."""

    def __init__(
        self,
        rank: int = 1,
        hbar_order: int | None = None,
        _slot_ops=None,
        _base: "ScalarField | None" = None,
    ):
        if rank < 1:
            raise SignatureMismatch("rank must be >= 1")
        if hbar_order is not None and hbar_order < 0:
            raise SignatureMismatch("hbar order must be >= 0")
        self.rank = rank
        self.hbar_order = hbar_order
        self.slots = 1 if hbar_order is None else hbar_order + 1
        if _slot_ops is None:
            _slot_ops = _RationalOps() if rank == 1 else _RatPolyOps(rank)
        self._slot_ops = _slot_ops
        # the one arithmetic on this field's payloads
        self.ops = _slot_ops if hbar_order is None else _SeriesOps(_slot_ops, self.slots)
        self._base = _base
        self.zero = Scalar(self, self.ops.zero)
        self.one = Scalar(self, self.ops.one)
        self._int_cache: dict[int, Scalar] = {0: self.zero, 1: self.one}
        self._embed_cache: dict[tuple[int, ...], Scalar] = {}

    @property
    def base(self) -> "ScalarField":
        """The hbar-free field with the same rank, sharing payload arithmetic."""
        if self.hbar_order is None:
            return self
        if self._base is None:
            self._base = ScalarField(self.rank, None, _slot_ops=self._slot_ops)
        return self._base

    def with_hbar(self, order: int) -> "ScalarField":
        """An hbar-truncated twin of this field (payloads interoperable)."""
        return ScalarField(self.rank, order, _slot_ops=self._slot_ops, _base=self.base)

    def lift(self, s: Scalar) -> Scalar:
        """Reinterpret a scalar from an ops-sharing twin inside this field."""
        if s.field is self:
            return s
        if s.field._slot_ops is not self._slot_ops or len(s.coeffs) > self.slots:
            raise SignatureMismatch("scalar does not lift into this field")
        return Scalar(self, self.ops.lift(s.coeffs))

    def from_hbar_coefficients(self, cs) -> Scalar:
        """sum_k cs[k] * hbar^k for scalars cs[k] of the base field."""
        return Scalar(self, self.ops.lift(tuple(c.pay for c in cs)))

    @property
    def hbar(self) -> Scalar:
        if self.hbar_order is None:
            raise HbarModeOff("field has no hbar (enable a truncation order)")
        return Scalar(self, self.ops.hbar)

    def coerce(self, value) -> Scalar | None:
        """value as a scalar of this field: a Scalar of this field as it is,
        an int or a Fraction through from_rational, anything else None.  A
        Scalar of another field raises SignatureMismatch."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise SignatureMismatch("scalars from different fields")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        return None

    def from_rational(self, value: int | Fraction) -> Scalar:
        if isinstance(value, int):
            cached = self._int_cache.get(value)
            if cached is not None:
                return cached
            num, den = value, 1
        else:
            num, den = value.numerator, value.denominator
        s = Scalar(self, self.ops.lift((self._slot_ops.rational(num, den),)))
        if isinstance(value, int) and -64 <= value <= 256:
            self._int_cache[value] = s
        return s

    def generator(self, j: int) -> Scalar:
        """The scalar g_j (1-based); g_1 is the unit."""
        if not 1 <= j <= self.rank:
            raise SignatureMismatch(f"generator index {j} out of range 1..{self.rank}")
        if j == 1:
            return self.one
        return Scalar(self, self.ops.lift((self._slot_ops.gen(j),)))

    def embed(self, coords: tuple[int, ...]) -> Scalar:
        """Lattice embedding of an int tuple: sum of coords[j] * g_j (g_1 = 1)."""
        hit = self._embed_cache.get(coords)
        if hit is not None:
            return hit
        if len(coords) != self.rank:
            raise SignatureMismatch("lattice element rank does not match field")
        out = self.zero
        for j, c in enumerate(coords, start=1):
            if c:
                out = out + self.generator(j) * c
        self._embed_cache[coords] = out
        return out

    def __repr__(self):
        hb = f", hbar<= {self.hbar_order}" if self.hbar_order is not None else ""
        return f"ScalarField(rank={self.rank}{hb})"


# ---------------------------------------------------------------------------
# Renderer data
# ---------------------------------------------------------------------------

def _poly_terms(p) -> tuple:
    out = []
    for monom, coeff in p.terms():
        out.append((tuple(monom), Fraction(int(coeff.numerator), int(coeff.denominator))))
    out.sort(reverse=True)
    return tuple(out)
