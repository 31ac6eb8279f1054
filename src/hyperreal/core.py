"""Exact truncated-series model of an ordered field with infinitesimals.

An element is a finite sum ``c1*eps^q1 + ... + ck*eps^qk`` where ``eps`` is a
fixed positive infinitesimal, the exponents ``qi`` are strictly increasing
exact rationals and the coefficients ``ci`` are nonzero exact rationals.  The
``order_bound`` marks truncation: the element is known exactly modulo terms
of exponent >= ``order_bound``; a bound of infinity (``None``) means the
representation is exact.  The leading (least-exponent) term decides sign,
ordering and classification:

* leading exponent > 0  -> infinitesimal,
* leading exponent = 0  -> appreciable,
* leading exponent < 0  -> unlimited.

``omega = eps**-1`` is the canonical positive unlimited element.  No floating
point enters this module; order decisions are exact.  All values are
immutable and every operation is a pure function, so elements are safe to
share between threads.  Truncating operations take the precision explicitly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    ExactZeroDivisionError,
    InsufficientPrecisionError,
    NegativeLeadingCoefficientError,
    RootNotExactError,
    UnlimitedShadowError,
    UnresolvedZeroError,
)

Rational = Union[int, Fraction]


class Classification(Enum):
    """Sign/magnitude class of a resolvable element."""

    ZERO = "zero"
    POSITIVE_INFINITESIMAL = "positive-infinitesimal"
    NEGATIVE_INFINITESIMAL = "negative-infinitesimal"
    APPRECIABLE = "appreciable"
    POSITIVE_UNLIMITED = "positive-unlimited"
    NEGATIVE_UNLIMITED = "negative-unlimited"

    @property
    def is_infinitesimal(self) -> bool:
        return self in (
            Classification.ZERO,
            Classification.POSITIVE_INFINITESIMAL,
            Classification.NEGATIVE_INFINITESIMAL,
        )

    @property
    def is_limited(self) -> bool:
        return self.is_infinitesimal or self is Classification.APPRECIABLE

    @property
    def is_unlimited(self) -> bool:
        return self in (Classification.POSITIVE_UNLIMITED, Classification.NEGATIVE_UNLIMITED)


class Ordering(Enum):
    """Outcome of comparing two elements.

    UNKNOWN occurs only when the difference has an empty term list with a
    finite order bound (an unresolved zero).
    """

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Precision:
    """Relative truncation order used by inexact operations (inverse, roots)."""

    relative_order: int = 16

    def __post_init__(self):
        if not isinstance(self.relative_order, int) or self.relative_order < 1:
            raise ValueError("precision must be a positive integer")

    @staticmethod
    def of(value: "Precision | int | None") -> "Precision":
        if value is None:
            return DEFAULT_PRECISION
        if isinstance(value, Precision):
            return value
        return Precision(value)


DEFAULT_PRECISION = Precision()


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or rational string to an exact Fraction.

    Floats are rejected: the field is exact and binary floats would smuggle
    in unintended values.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass Fraction, int or a 'p/q' string")
    return Fraction(value)


def _min_bound(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _shift_bound(bound: Fraction | None, offset: Fraction | None) -> Fraction | None:
    # None acts as +infinity on either side.
    if bound is None or offset is None:
        return None
    return bound + offset


class HyperReal:
    """One element of the field: sorted term list plus truncation bound."""

    __slots__ = ("terms", "order_bound")

    def __init__(
        self,
        terms: Iterable[tuple[Rational, Rational]] = (),
        order_bound: Rational | None = None,
    ):
        bound = None if order_bound is None else as_fraction(order_bound)
        merged: dict[Fraction, Fraction] = {}
        for exponent, coefficient in terms:
            e = as_fraction(exponent)
            c = as_fraction(coefficient)
            merged[e] = merged.get(e, Fraction(0)) + c
        kept = sorted(
            (e, c) for e, c in merged.items() if c != 0 and (bound is None or e < bound)
        )
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "order_bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("HyperReal values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational) -> "HyperReal":
        q = as_fraction(value)
        return cls(((Fraction(0), q),)) if q else cls()

    @classmethod
    def monomial(cls, coefficient: Rational, exponent: Rational) -> "HyperReal":
        return cls(((as_fraction(exponent), as_fraction(coefficient)),))

    # -- structure ----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.order_bound is None

    @property
    def is_exact_zero(self) -> bool:
        return not self.terms and self.order_bound is None

    @property
    def is_unresolved(self) -> bool:
        """True when nothing is known except an order bound."""
        return not self.terms and self.order_bound is not None

    @property
    def lead_exponent(self) -> Fraction | None:
        return self.terms[0][0] if self.terms else None

    @property
    def lead_coefficient(self) -> Fraction | None:
        return self.terms[0][1] if self.terms else None

    @property
    def _lead_floor(self) -> Fraction | None:
        # Least exponent any completion of this value can have; None = +inf.
        if self.terms:
            return self.terms[0][0]
        return self.order_bound

    def coefficient(self, exponent: Rational) -> Fraction:
        e = as_fraction(exponent)
        for te, tc in self.terms:
            if te == e:
                return tc
        return Fraction(0)

    def truncate(self, bound: Rational) -> "HyperReal":
        """Forget everything from exponent ``bound`` upward."""
        return HyperReal(self.terms, _min_bound(self.order_bound, as_fraction(bound)))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value) -> "HyperReal | None":
        if isinstance(value, HyperReal):
            return value
        if isinstance(value, (int, Fraction)):
            return HyperReal.from_rational(value)
        return None

    def __add__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HyperReal(self.terms + o.terms, _min_bound(self.order_bound, o.order_bound))

    __radd__ = __add__

    def __neg__(self) -> "HyperReal":
        return HyperReal(tuple((e, -c) for e, c in self.terms), self.order_bound)

    def __sub__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        bound = _min_bound(
            _shift_bound(self.order_bound, o._lead_floor),
            _shift_bound(o.order_bound, self._lead_floor),
        )
        products = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms
            for e2, c2 in o.terms
            if bound is None or e1 + e2 < bound
        ]
        return HyperReal(products, bound)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "HyperReal":
        """Integer power; negative exponents go through ``inv()``.

        Writes the element as ``c*eps^q*(1+u)`` and expands ``(1+u)^N`` by
        Miller's power recurrence (``_unit_power``).  An exact element gives
        the exact polynomial power; an order bound ``B`` becomes
        ``B + (N-1)*q``, and an unresolved ``O(eps^B)`` becomes
        ``O(eps^(N*B))``.
        """
        if not isinstance(exponent, int):
            raise TypeError("only integer powers; use root() for rational exponents")
        if exponent < 0:
            return (self ** (-exponent)).inv()
        if exponent == 0:
            return HyperReal.from_rational(1)
        if not self.terms:
            # Exact zero stays exact zero; O(eps^B) becomes O(eps^(N*B)).
            return self if self.order_bound is None else HyperReal((), self.order_bound * exponent)
        q, c = self.terms[0]
        u = self._unit_part()
        return HyperReal.monomial(c**exponent, q * exponent) * _unit_power(u, exponent, u.order_bound)

    def __truediv__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __abs__(self) -> "HyperReal":
        if self.terms:
            return self if self.terms[0][1] > 0 else -self
        # |O(eps^b)| is again O(eps^b); exact zero is its own magnitude.
        return self

    # -- truncating operations -----------------------------------------

    def _unit_part(self) -> "HyperReal":
        # u with self = c*eps^q*(1+u), where c*eps^q is the leading term.
        q, c = self.terms[0]
        return HyperReal(
            ((e - q, a / c) for e, a in self.terms[1:]), _shift_bound(self.order_bound, -q)
        )

    def inv(self, precision: Precision | int | None = None) -> "HyperReal":
        """Multiplicative inverse to the given relative order ``T``.

        Writes the element as ``c*eps^q*(1+u)`` and expands ``(1+u)^-1`` by
        Miller's power recurrence (``_unit_power``) below relative order
        ``min(T, B-q)``, where ``B`` is the input's order bound; the result's
        bound is ``min(T, B-q) - q``.  The residual of ``x*x.inv() - 1``
        has order at least the relative precision.
        """
        if not self.terms:
            if self.order_bound is None:
                raise ExactZeroDivisionError("inverse of exact zero")
            raise UnresolvedZeroError(
                f"cannot invert a value known only to be O(eps^{self.order_bound})"
            )
        T = Precision.of(precision).relative_order
        q, c = self.terms[0]
        u = self._unit_part()
        scale = HyperReal.monomial(1 / c, -q)
        if u.is_exact_zero:
            return scale
        return scale * _unit_power(u, -1, _min_bound(u.order_bound, Fraction(T)))

    def root(self, degree: int, precision: Precision | int | None = None) -> "HyperReal":
        """Exact-leading-coefficient n-th root to the given relative order ``T``.

        The leading coefficient must be an exact rational n-th power
        (negative allowed for odd degrees).  Writes the element as
        ``c*eps^q*(1+u)`` and expands ``(1+u)^(1/n)`` by Miller's power
        recurrence (``_unit_power``) below relative order ``min(T, B-q)``; the
        result's bound is ``min(T, B-q) + q/n``.  Roots preserve the class of
        the input: root of an infinitesimal is infinitesimal, of an
        appreciable appreciable, of an unlimited unlimited.
        """
        if not isinstance(degree, int) or degree < 1:
            raise ValueError("root degree must be a positive integer")
        if degree == 1:
            return self
        if not self.terms:
            if self.order_bound is None:
                return self  # root of exact zero is exact zero
            raise UnresolvedZeroError(
                f"cannot take a root of a value known only to be O(eps^{self.order_bound})"
            )
        T = Precision.of(precision).relative_order
        q, c = self.terms[0]
        if c < 0 and degree % 2 == 0:
            raise NegativeLeadingCoefficientError(
                f"even root of element with negative leading coefficient {c}"
            )
        mono = HyperReal.monomial(_rational_nth_root(c, degree), q / degree)
        u = self._unit_part()
        if u.is_exact_zero:
            return mono
        return mono * _unit_power(u, Fraction(1, degree), _min_bound(u.order_bound, Fraction(T)))

    # -- order and classification ---------------------------------------

    def compare(self, other) -> Ordering:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare HyperReal with {type(other).__name__}")
        d = self - o
        if d.terms:
            return Ordering.GREATER if d.terms[0][1] > 0 else Ordering.LESS
        return Ordering.EQUAL if d.order_bound is None else Ordering.UNKNOWN

    def classify(self) -> Classification:
        if self.is_exact_zero:
            return Classification.ZERO
        if not self.terms:
            raise UnresolvedZeroError(
                f"cannot classify a value known only to be O(eps^{self.order_bound})"
            )
        e, c = self.terms[0]
        if e > 0:
            return (
                Classification.POSITIVE_INFINITESIMAL
                if c > 0
                else Classification.NEGATIVE_INFINITESIMAL
            )
        if e == 0:
            return Classification.APPRECIABLE
        return (
            Classification.POSITIVE_UNLIMITED if c > 0 else Classification.NEGATIVE_UNLIMITED
        )

    def is_infinitesimal(self) -> bool:
        """True when every completion of this value is infinitesimal (0 included)."""
        if self.terms:
            return self.terms[0][0] > 0
        if self.order_bound is None or self.order_bound > 0:
            return True
        raise UnresolvedZeroError(
            f"O(eps^{self.order_bound}) with no known terms: infinitesimality undecidable"
        )

    def is_limited(self) -> bool:
        """True when every completion of this value is limited."""
        if self.terms:
            return self.terms[0][0] >= 0
        if self.order_bound is None or self.order_bound >= 0:
            return True
        raise UnresolvedZeroError(
            f"O(eps^{self.order_bound}) with no known terms: limitedness undecidable"
        )

    def is_appreciable(self) -> bool:
        return self.classify() is Classification.APPRECIABLE

    def is_unlimited(self) -> bool:
        return not self.is_limited()

    def sign(self) -> int:
        if self.terms:
            return 1 if self.terms[0][1] > 0 else -1
        if self.order_bound is None:
            return 0
        raise UnresolvedZeroError("sign of an unresolved zero")

    def shadow(self) -> Fraction:
        """The unique real infinitesimally close to a limited element."""
        if self.terms and self.terms[0][0] < 0:
            raise UnlimitedShadowError(f"{self} is unlimited and has no shadow")
        if self.order_bound is not None and self.order_bound <= 0:
            raise InsufficientPrecisionError(
                f"order bound {self.order_bound} leaves the constant term undetermined"
            )
        return self.coefficient(0)

    # -- comparisons ------------------------------------------------------

    def _ordering_or_raise(self, other) -> Ordering:
        result = self.compare(other)
        if result is Ordering.UNKNOWN:
            raise UnresolvedZeroError("comparison undecidable at current order bound")
        return result

    def __lt__(self, other):
        return self._ordering_or_raise(other) is Ordering.LESS

    def __le__(self, other):
        return self._ordering_or_raise(other) in (Ordering.LESS, Ordering.EQUAL)

    def __gt__(self, other):
        return self._ordering_or_raise(other) is Ordering.GREATER

    def __ge__(self, other):
        return self._ordering_or_raise(other) in (Ordering.GREATER, Ordering.EQUAL)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Representation equality: same terms and same order bound.
        return self.terms == o.terms and self.order_bound == o.order_bound

    def __hash__(self):
        return hash((self.terms, self.order_bound))

    def __bool__(self):
        if self.is_exact_zero:
            return False
        if self.terms:
            return True
        raise UnresolvedZeroError("truth value of an unresolved zero")

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        pieces = []
        for e, c in self.terms:
            body = _term_text(e, abs(c))
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        if self.order_bound is not None:
            pieces.append(("+ " if pieces else "") + f"O({_power_text(self.order_bound)})")
        return " ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"HyperReal('{self}')"


def _term_text(exponent: Fraction, magnitude: Fraction) -> str:
    if exponent == 0:
        return str(magnitude)
    power = _power_text(exponent)
    return power if magnitude == 1 else f"{magnitude}*{power}"


def _power_text(exponent: Fraction) -> str:
    if exponent == 1:
        return "eps"
    if exponent.denominator == 1:
        return f"eps^{exponent}"
    return f"eps^({exponent})"


def _unit_power(u: HyperReal, alpha: Rational, cut: Fraction | None) -> HyperReal:
    """``(1+u)^alpha`` below exponent ``cut``, for ``u`` of positive order.

    ``cut`` None asks for the exact result; ``u`` must then be exact and
    ``alpha`` a non-negative integer, so the result is a polynomial.  With
    ``d`` the lcm of the exponent denominators of ``u``, the series is one in
    ``z = eps^(1/d)``: ``1+u = sum g_k z^k`` with ``g_0 = 1``, and the
    coefficients of ``(1+u)^alpha = sum f_n z^n`` follow J.C.P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7)::

        f_0 = 1,   n*f_n = sum_{k=1..n} ((alpha+1)*k - n) * g_k * f_{n-k}.

    Only indices in the additive monoid generated by the indices of ``u`` can
    carry a coefficient, so only those are visited, in increasing order from
    a heap frontier: a sparse ``u`` with a huge exponent span never builds a
    dense array.  For a non-negative integer ``alpha`` only sums of at most
    ``alpha`` indices of ``u`` can, since ``(1+u)^N = sum_j C(N,j) u^j``;
    ``depth`` keeps the fewest summands that reach each index, final when the
    index is popped because every smaller index is popped before it.
    Nothing at or past the cut is computed.
    """
    d = math.lcm(*(e.denominator for e, _ in u.terms))
    steps = [(e.numerator * (d // e.denominator), c) for e, c in u.terms]
    limit = math.inf if cut is None else math.ceil(cut * d)
    max_depth = alpha if isinstance(alpha, int) and alpha >= 0 else math.inf
    a = Fraction(alpha) + 1
    p, r = a.numerator, a.denominator
    coefficients = {0: Fraction(1)}
    frontier = [k for k, _ in steps if k < limit]
    heapq.heapify(frontier)
    depth = dict.fromkeys(frontier, 1)
    while frontier:
        n = heapq.heappop(frontier)
        total = 0
        for k, g in steps:
            if k > n:
                break
            f = coefficients.get(n - k)
            if f is not None:
                total += (p * k - r * n) * g * f
        if total:
            coefficients[n] = total / (r * n)
        reach = depth[n] + 1
        if reach > max_depth:
            continue
        for k, _ in steps:
            m = n + k
            if m >= limit:
                break
            if m not in depth:
                depth[m] = reach
                heapq.heappush(frontier, m)
            elif reach < depth[m]:
                depth[m] = reach
    return HyperReal(((Fraction(n, d), f) for n, f in coefficients.items()), cut)


def _int_nth_root(value: int, degree: int) -> int:
    """Largest integer r with r**degree <= value (value >= 0)."""
    if value < 2:
        return value
    r = 1 << ((value.bit_length() + degree - 1) // degree)
    while True:
        shrunk = ((degree - 1) * r + value // r ** (degree - 1)) // degree
        if shrunk >= r:
            break
        r = shrunk
    while r**degree > value:
        r -= 1
    return r


def _rational_nth_root(value: Fraction, degree: int) -> Fraction:
    sign = 1
    if value < 0:
        sign = -1
        value = -value
    p, q = value.numerator, value.denominator
    rp = _int_nth_root(p, degree)
    rq = _int_nth_root(q, degree)
    if rp**degree != p or rq**degree != q:
        raise RootNotExactError(f"{sign * value} has no exact rational root of degree {degree}")
    return Fraction(sign * rp, rq)


ZERO = HyperReal()
ONE = HyperReal.from_rational(1)
EPS = HyperReal.monomial(1, 1)
OMEGA = HyperReal.monomial(1, -1)


# Operation-style aliases mirroring the method API.

def compare(x: HyperReal, y) -> Ordering:
    return x.compare(y)


def classify(x: HyperReal) -> Classification:
    return x.classify()


def shadow(x: HyperReal) -> Fraction:
    return x.shadow()


def halo_equiv(x: HyperReal, y) -> bool:
    """True when x - y is infinitesimal (x and y share a halo)."""
    d = x - y if isinstance(y, HyperReal) else x - HyperReal.from_rational(y)
    return d.is_infinitesimal()


def galaxy_equiv(x: HyperReal, y) -> bool:
    """True when x - y is limited (x and y share a galaxy)."""
    d = x - y if isinstance(y, HyperReal) else x - HyperReal.from_rational(y)
    return d.is_limited()


def galaxy_compare(x: HyperReal, y: HyperReal) -> Ordering:
    """Order of the galaxies of x and y; Equal when they coincide."""
    d = x - y
    if d.is_limited():
        return Ordering.EQUAL
    return Ordering.GREATER if d.terms[0][1] > 0 else Ordering.LESS
