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
only arithmetic on it.  A slot payload is a value of the hbar-free field.  At
every rank a constant value is a Python int when it is integral and otherwise
a _Q, a slotted rational in lowest terms; at rank >= 2 a value with symbols is
a _RatPoly, a numerator/denominator pair over Z[g_2, ..., g_r] in the
canonical form of that UFD's fraction field: the two are coprime, integer
content included, and the denominator is a positive Python int or a
polynomial with positive lex-leading coefficient.  A side with symbols is a
_Poly, a dict from exponent tuples to Python ints.  In an hbar field a value
without an hbar part is its slot payload too, and a value with one is a
_Series, a tuple of slot payloads, one per power of hbar.  Each value has
one payload, so structural equality is canonical-form equality, == and hash
agree with ints and Fractions, and zero is always the int 0, so a zero test
is a truth test.  Z[g] arithmetic runs on the _Poly dicts here; sympy's
sparse ring computes only the gcds where neither side's primitive part
divides the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import sub

# top level on purpose: perfbench's sympy_import_us needs a top-level sympy import
from sympy.polys.domains import PythonIntegerRing
from sympy.polys.rings import ring as _sympy_ring

from .errors import (
    DivisionByZero,
    HbarModeOff,
    NonInvertibleSeries,
    SignatureMismatch,
)

__all__ = ["Scalar", "ScalarField", "tuple_adder"]


# ---------------------------------------------------------------------------
# Exponent sums
# ---------------------------------------------------------------------------

# one adder per tuple length, generated on first use
_ADDERS: dict = {}


def tuple_adder(length: int):
    """The componentwise sum of two int tuples of this length, as one
    unrolled expression ``(a[0] + b[0], a[1] + b[1], ...)``: it builds no
    iterator per call, which ``tuple(map(add, a, b))`` does.  Generated
    once per length from that fixed template, whose only input is
    ``range(length)``, and cached, so one length gives one function."""
    adder = _ADDERS.get(length)
    if adder is None:
        body = "".join(f"a[{i}] + b[{i}], " for i in range(length))
        adder = _ADDERS[length] = eval(f"lambda a, b: ({body})", {})
    return adder


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
        return hash(Fraction(self.numerator, self.denominator))

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


class _SlotOps:
    """What every payload arithmetic shares: subtraction and the int/_Q
    constants; the one-slot layout for the two slot payload kinds."""

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
        return num if den == 1 else _qdiv(num, den)


# The slot ops stay plain methods: perfbench's tracer wraps them and replays cls.__dict__[op](ops, x, y).
class _RationalOps(_SlotOps):
    """Rank-1 payloads: a Python int when the value is integral, otherwise a
    _Q.  Zero is the int 0, which is falsy: ``not c`` is the zero test.
    Plain integers (the common case: binomials, derivative factors,
    window-rank coefficients) never pay for a gcd."""

    def add(self, x, y):
        return x + y if type(x) is int and type(y) is int else _qadd(x, y)

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y if type(x) is int and type(y) is int else _qmul(x, y)

    def div(self, x, y):
        return _qdiv(x, y)


# Z[g] arithmetic: each side of a fraction is a Python int or a _Poly

class _Poly(dict):
    """A polynomial with a symbol: exponent tuples over g_2..g_r to nonzero
    Python ints (without a symbol it is an int).  Immutable by convention."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))


def _demote(terms):
    """The nonzero terms as a _Poly, or as an int when none has a symbol."""
    terms = {m: c for m, c in terms.items() if c}
    if len(terms) > 1 or any(map(any, terms)):
        return _Poly(terms)
    return sum(terms.values())


def _sum(p, q):
    """p + q for ints or polynomials."""
    if type(p) is int:
        if type(q) is int:
            return p + q
        p, q = q, p
    out = dict(p)
    for m, c in q.items() if type(q) is not int else (((0,) * len(next(iter(p))), q),):
        out[m] = out.get(m, 0) + c
    return _demote(out)


def _prod(p, q):
    """p * q for nonzero ints or polynomials, without a pass for a unit factor."""
    if type(p) is int:
        p, q = q, p
    if type(q) is int:
        return p if q == 1 else p * q if type(p) is int else _Poly({m: c * q for m, c in p.items()})
    out = {}
    add = tuple_adder(len(next(iter(p))))
    for n, b in q.items():
        for m, a in p.items():
            k = add(m, n)
            out[k] = out.get(k, 0) + a * b
    return _Poly({m: c for m, c in out.items() if c})


def _exquo(p, k: int):
    """p / k for an int k that divides p."""
    return p if k == 1 else p // k if type(p) is int else _Poly({m: c // k for m, c in p.items()})


def _quo(p, q):
    """p / q when the polynomial q divides p in Z[g], else None: division by
    lex-leading terms leaves no remainder exactly when q divides p."""
    lm = max(q)
    lc = q[lm]
    add = tuple_adder(len(lm))
    rest = [(n, b) for n, b in q.items() if n != lm]
    r = dict(p)
    out = {}
    while r:
        m = max(r)
        e = tuple(map(sub, m, lm))
        k, rem = divmod(r.pop(m), lc)
        if rem or min(e) < 0:
            return None
        out[e] = k
        for n, b in rest:
            t = add(e, n)
            c = r.get(t, 0) - k * b
            if c:
                r[t] = c
            else:
                del r[t]
    return _demote(out)


def _cof(a, b, ring):
    """(g, a/g, b/g) for g = gcd(a, b) of nonzero ints or polynomials, up to
    a unit.  Where a side is an int, g is math.gcd of it and the other's
    coefficients; where one polynomial's primitive part divides the other, the
    quotient and the two contents give g; else sympy's gcd in ``ring`` does."""
    if type(a) is int:
        k, p = a, b
    elif type(b) is int:
        k, p = b, a
    elif a == b:
        return a, 1, 1
    else:
        ca, cb = gcd(*a.values()), gcd(*b.values())
        h = gcd(ca, cb)
        # a = q * (b / cb) with q of content ca, so g = h * b / cb
        pb = _exquo(b, cb)
        q = _quo(a, pb)
        if q is not None:
            return _prod(pb, h), _exquo(q, h), cb // h
        pa = _exquo(a, ca)
        q = _quo(b, pa)
        if q is not None:
            return _prod(pa, h), ca // h, _exquo(q, h)
        return tuple(map(_demote, ring.from_dict(a).cofactors(ring.from_dict(b))))
    g = _content_gcd(k, p)
    return (1, a, b) if g == 1 else (g, _exquo(a, g), _exquo(b, g))


def _content_gcd(k: int, p) -> int:
    """gcd of the int k and the content of the int or polynomial p."""
    return 1 if k == 1 else gcd(k, p) if type(p) is int else gcd(k, *p.values())


def _pair(num, den):
    """The payload of num/den for coprime nonzero ints or polynomials."""
    if type(den) is int:
        if den < 0:
            num, den = _prod(num, -1), -den
        if type(num) is int:
            return num if den == 1 else _Q(num, den)
    elif den[max(den)] < 0:
        # the sign rule: a positive lex-leading coefficient
        num, den = _prod(num, -1), _prod(den, -1)
    return _RatPoly(num, den)


class _RatPoly:
    """A value with symbols: num/den over Z[g], canonical in the fraction
    field of that UFD.  Each side is an int or a _Poly, not both ints; they are
    coprime, integer content included; den is an int > 0 or a _Poly with
    positive lex-leading coefficient.  Never zero, so always truthy."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __eq__(self, other):
        return type(other) is _RatPoly and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"_RatPoly({self.num}, {self.den})"


def _parts(x):
    """A rank >= 2 slot payload as (numerator, denominator)."""
    return (x.num, x.den) if type(x) is _RatPoly else (x.numerator, x.denominator)


class _RatPolyOps(_SlotOps):
    """Rank >= 2 payloads.

    A constant value (the common case in kernel arithmetic) is an int or a
    _Q, as at rank 1; a value with symbols is a _RatPoly over Z[g_2..g_r].
    Where a pair takes part, each operand reads as a coprime fraction a/b of
    ints or polynomials, and a result without symbols is demoted to an int
    or _Q.  A product (a/b)(c/d) cancels gcd(a, d) and gcd(c, b) before it
    multiplies.  Where b and d are ints (every value in Q[g], the common
    case) those are gcds of an int with a content, and mul builds the pair
    directly, without _cof or _pair's sign rule.  A quotient is the product
    with the swapped pair d/c, so it takes no gcd of its own; a sum takes
    g = gcd(b, d) first and then only the gcd of the numerator with g
    (Henrici).  ``ring``, sympy's sparse ring over pure-Python ints, takes
    only the gcds that _cof cannot get by exact division.  add, mul and div
    call none of each other.  add and mul read the pairs inline; where both
    denominators are ints, add takes their gcd directly and mul takes no
    content gcd with a denominator of 1.
    """

    def __init__(self, rank: int):
        # Python int coefficients whatever sympy's ground types (ZZ holds mpz or
        # fmpz with gmpy2 or python-flint, which `type(...) is int` would misroute)
        names = ",".join(f"g_{j}" for j in range(2, rank + 1))
        self.ring = _sympy_ring(names, PythonIntegerRing())[0]

    def _cross(self, a, b, c, d):
        """(a/b)(c/d) for coprime pairs: the product of the cofactors is coprime."""
        _, a, d = _cof(a, d, self.ring)
        _, c, b = _cof(c, b, self.ring)
        return _pair(_prod(a, c), _prod(b, d))

    def add(self, x, y):
        if type(x) is not _RatPoly and type(y) is not _RatPoly:
            return _qadd(x, y)
        if not x:
            return y
        if not y:
            return x
        a, b = (x.num, x.den) if type(x) is _RatPoly else (x.numerator, x.denominator)
        c, d = (y.num, y.den) if type(y) is _RatPoly else (y.numerator, y.denominator)
        if type(b) is int and type(d) is int:
            g = gcd(b, d)
            b, d = b // g, d // g
        else:
            g, b, d = _cof(b, d, self.ring)
        t = _sum(a if d == 1 else _prod(a, d), c if b == 1 else _prod(c, b))
        if not t:
            return 0
        den = _prod(b, d)
        if g != 1:
            _, t, g = _cof(t, g, self.ring)
            den = _prod(den, g)
        return _pair(t, den)

    def neg(self, x):
        return _RatPoly(_prod(x.num, -1), x.den) if type(x) is _RatPoly else -x

    def mul(self, x, y):
        if type(x) is not _RatPoly and type(y) is not _RatPoly:
            return _qmul(x, y)
        if not x or not y:
            return 0
        a, b = (x.num, x.den) if type(x) is _RatPoly else (x.numerator, x.denominator)
        c, d = (y.num, y.den) if type(y) is _RatPoly else (y.numerator, y.denominator)
        if type(b) is int and type(d) is int:
            # what _cross computes here: the denominator stays a positive int
            # and the product of the symbol-bearing numerators keeps a symbol
            if d != 1:
                g = _content_gcd(d, a)
                a, d = _exquo(a, g), d // g
            if b != 1:
                g = _content_gcd(b, c)
                c, b = _exquo(c, g), b // g
            return _RatPoly(_prod(a, c), b * d)
        return self._cross(a, b, c, d)

    def div(self, x, y):
        if type(x) is not _RatPoly and type(y) is not _RatPoly:
            return _qdiv(x, y)
        if not y:
            raise DivisionByZero("scalar division by zero")
        if not x:
            return 0
        (a, b), (d, c) = _parts(x), _parts(y)
        return self._cross(a, b, c, d)

    def gen(self, j: int) -> _RatPoly:
        return _RatPoly(_Poly({tuple(int(i == j) for i in range(2, self.ring.ngens + 2)): 1}), 1)


class _Series(tuple):
    """Payload of an hbar-field value with an hbar part: one slot payload per
    power of hbar, some slot above 0 nonzero.  A value without one is its slot
    payload, so a _Series is never zero and never equal to a constant."""

    __slots__ = ()


def _series(slots):
    """The payload with these slots: the constant slot when no slot above it is nonzero."""
    return _Series(slots) if any(slots[1:]) else slots[0]


class _SeriesOps(_SlotOps):
    """Payload arithmetic of an hbar field: truncated series over the slot ops.

    Two slot payloads go to the slot ops.  A nonzero slot payload times a
    _Series scales its slots, and the slot field has no zero divisors, so the
    hbar part stays nonzero.  Otherwise addition is componentwise and the
    product is the convolution cut off at the last slot, both over the
    nonzero slots only, and a result whose hbar part cancels is its constant
    slot.  Division multiplies by the inverse series, which exists when the
    constant term is nonzero.
    """

    def __init__(self, ops, slots: int):
        self.ops = ops
        self.slots = slots
        self.hbar = self.lift((0, 1)[:slots])

    def coeffs(self, x) -> tuple:
        return tuple(x) if type(x) is _Series else (x,) + (0,) * (self.slots - 1)

    def lift(self, coeffs: tuple):
        """The payload with these leading slots, zero above them."""
        return _series(coeffs + (0,) * (self.slots - len(coeffs)))

    def add(self, x, y):
        ops = self.ops
        if type(x) is not _Series:
            if type(y) is not _Series:
                return ops.add(x, y)
            return _Series((ops.add(x, y[0]), *y[1:]))
        if type(y) is not _Series:
            return _Series((ops.add(x[0], y), *x[1:]))
        return _series(tuple(ops.add(a, b) if a and b else a or b for a, b in zip(x, y)))

    def neg(self, x):
        return _Series(map(self.ops.neg, x)) if type(x) is _Series else self.ops.neg(x)

    def mul(self, x, y):
        ops = self.ops
        if type(x) is not _Series:
            if type(y) is not _Series:
                return ops.mul(x, y)
            return _Series([ops.mul(x, yj) if yj else 0 for yj in y]) if x else 0
        if type(y) is not _Series:
            return _Series([ops.mul(xi, y) if xi else 0 for xi in x]) if y else 0
        # pair only the nonzero slots, and stop at the truncation order
        slots = self.slots
        out = [0] * slots
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                for j, yj in ys:
                    k = i + j
                    if k >= slots:
                        break
                    v = ops.mul(xi, yj)
                    out[k] = ops.add(out[k], v) if out[k] else v
        return _series(out)

    def div(self, x, y):
        ops, y = self.ops, self.coeffs(y)
        y0 = y[0]
        if not y0:
            if any(y):
                raise NonInvertibleSeries("series has zero constant term")
            raise DivisionByZero("scalar division by zero")
        inv = [ops.div(1, y0)]
        for k in range(1, self.slots):
            acc = 0
            for j in range(1, k + 1):
                if y[j]:
                    acc = ops.add(acc, ops.mul(y[j], inv[k - j]))
            inv.append(ops.neg(ops.div(acc, y0)))
        return self.mul(x, _series(inv))


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

def _operators(op):
    """The forward and reverse operators of the payload op ``op(ops)``, as
    Fraction builds its own: the other operand is coerced into self's field
    (a Scalar of that field as it is), and one coerce rejects is NotImplemented."""

    def forward(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = field.coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(field, op(field.ops)(self.pay, other.pay))

    def reverse(self, other):
        other = self.field.coerce(other)
        return NotImplemented if other is None else forward(other, self)

    return forward, reverse


class Scalar:
    """Immutable field element: one payload, computed on by its field's ops."""

    __slots__ = ("field", "pay")

    def __init__(self, field: "ScalarField", pay):
        self.field = field
        self.pay = pay

    # -- arithmetic ---------------------------------------------------------

    __add__, __radd__ = _operators(lambda ops: ops.add)
    __sub__, __rsub__ = _operators(lambda ops: ops.sub)
    __mul__, __rmul__ = _operators(lambda ops: ops.mul)
    __truediv__, __rtruediv__ = _operators(lambda ops: ops.div)

    def __neg__(self):
        return Scalar(self.field, self.field.ops.neg(self.pay))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (1 / self) ** (-e)
        return power(self, e, self.field.one)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # payloads are canonical: a constant is an int or a _Q
            return self.pay == other
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
        return bool(self.field.hbar_coefficient(self.pay, 0))

    def as_rational(self) -> Fraction | None:
        """The value as a plain rational, if it is one; else None."""
        p = self.pay
        if type(p) is _Series or type(p) is _RatPoly:
            # canonical payloads: a constant is an int or a _Q
            return None
        return Fraction(p.numerator, p.denominator)

    def payload_data(self, k: int):
        """Slot-k payload as primitive data for renderers.

        Returns ("rat", Fraction) for rational payloads and
        ("poly", num_terms, den_terms) for symbolic ones, where each terms
        tuple lists (exponents over g_2.., coefficient) descending.
        """
        p = self.field.hbar_coefficient(self.pay, k)
        if type(p) is _RatPoly:
            # den primitive, num over den's integer content
            c = p.den if type(p.den) is int else gcd(*p.den.values())
            one = (0,) * (self.field.rank - 1)
            return ("poly", _poly_terms(p.num, c, one), _poly_terms(p.den, c, one))
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
        # the payload kinds this field's values take: symbols from rank 2, a
        # _Series only where some power of hbar above 0 has a slot
        self._payload_types = frozenset(
            (int, _Q) + (_RatPoly,) * (rank > 1) + (_Series,) * (self.slots > 1)
        )
        self.zero = Scalar(self, self.ops.zero)
        self.one = Scalar(self, self.ops.one)
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

    def hbar_coefficient(self, pay, k: int):
        """The coefficient of hbar^k in a payload of this field, a payload of
        the hbar-free base field."""
        if not 0 <= k < self.slots:
            raise HbarModeOff(f"no hbar^{k} slot in this field")
        return pay[k] if type(pay) is _Series else 0 if k else pay

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

    def payload(self, value):
        """The one entry rule for a sparse value's coefficients: a payload of
        a kind this field holds (an int or _Q; a _RatPoly at rank >= 2; a
        _Series with an hbar slot) as it is, another scalar through coerce; a
        value that is no scalar, or a payload kind this field cannot hold,
        raises SignatureMismatch."""
        if type(value) in self._payload_types:
            return value
        c = self.coerce(value)
        if c is None:
            raise SignatureMismatch(f"not a scalar of this field: {type(value).__name__}")
        return c.pay

    def from_rational(self, value: int | Fraction) -> Scalar:
        return Scalar(self, self.ops.rational(value.numerator, value.denominator))

    def generator(self, j: int) -> Scalar:
        """The scalar g_j (1-based); g_1 is the unit."""
        if not 1 <= j <= self.rank:
            raise SignatureMismatch(f"generator index {j} out of range 1..{self.rank}")
        if j == 1:
            return self.one
        return Scalar(self, self._slot_ops.gen(j))

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

def _poly_terms(p, c: int, one: tuple) -> tuple:
    """p's terms over c: (exponents over g_2.., Fraction), descending; an int is at ``one``."""
    terms = ((one, p),) if type(p) is int else p.items()
    return tuple(sorted(((m, Fraction(a, c)) for m, a in terms), reverse=True))
