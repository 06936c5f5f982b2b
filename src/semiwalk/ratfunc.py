"""Functions of one variable t over exact rationals, for the t -> 0 limit.

Limit mode runs the t-killed walk on the expansion of S, weights scaled by
(1-t): t times a walk weight is a state's mass on the expansion of S with a
zero of weight t adjoined, and the law is its limit t -> 0.  ``Series``
carries only the low-order terms, which is all the limit reads, as integer
numerators over one shared denominator, so each operation reduces once
instead of once per coefficient; its limit is a ``Fraction``.  ``RatF``
carries the full rational function over ``Fraction`` coefficients and
serves as an independent reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Coeffs = tuple[Fraction, ...]


class PrecisionLost(ArithmeticError):
    """A cancellation left a truncated series with no known coefficient."""


class Series:
    """Truncated Laurent series t^val * (c0 + c1*t + ... + c_{p-1}*t^(p-1)).

    The p known coefficients are c_k = nums[k] / denom: integer numerators
    over one positive integer denominator, with gcd(denom, *nums) = 1 and
    nums[0] != 0.  p is the relative precision and the terms from t^(val+p)
    on are unknown.  Every known coefficient is exact, so arithmetic never
    returns a wrong known term: when a sum cancels every known coefficient
    it raises PrecisionLost instead.  ``cs`` reads the coefficients as
    ``Fraction``s.  There is no ``==``: two series compare by identity.
    """

    __slots__ = ("val", "nums", "denom")

    def __init__(self, val: int, cs: Sequence):
        """The series t^val * sum(cs[k] * t^k), from exact coefficients."""
        cs = [Fraction(c) for c in cs]
        if not cs or cs[0] == 0:
            raise ValueError("a series needs a nonzero leading coefficient")
        # the lcm of the denominators leaves gcd(denom, *nums) = 1
        denom = lcm(*[c.denominator for c in cs])
        self.val = val
        self.nums = tuple(c.numerator * (denom // c.denominator) for c in cs)
        self.denom = denom

    @staticmethod
    def const(q, prec: int) -> "Series":
        """The nonzero constant q, with prec known coefficients."""
        return Series(0, (q,) + (0,) * (prec - 1))

    @staticmethod
    def variable(prec: int) -> "Series":
        return Series(1, (1,) + (0,) * (prec - 1))

    def one(self) -> "Series":
        return Series.const(1, len(self.nums))

    @property
    def cs(self) -> Coeffs:
        """The known coefficients, c0 first."""
        d = self.denom
        return tuple(Fraction(n, d) for n in self.nums)

    def __add__(self, other: "Series") -> "Series":
        a, b = (self, other) if self.val <= other.val else (other, self)
        shift = b.val - a.val
        an, bn = a.nums, b.nums
        # Known up to the smaller absolute precision, counted from a.val.
        end = min(len(an), shift + len(bn))
        g = gcd(a.denom, b.denom)
        fa, fb = b.denom // g, a.denom // g  # both sides over the lcm
        out = [x * fa for x in an[:end]]
        for i in range(shift, end):
            out[i] += bn[i - shift] * fb
        for k, c in enumerate(out):
            if c:
                return _reduced(a.val + k, out[k:], a.denom * fa)
        raise PrecisionLost(
            f"sum cancels every known coefficient below t^{a.val + end}"
        )

    def __neg__(self) -> "Series":
        return _reduced(self.val, [-x for x in self.nums], self.denom)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        a, b = self.nums, other.nums
        out = []
        for k in range(min(len(a), len(b))):
            s = a[0] * b[k]
            for i in range(1, k + 1):
                s += a[i] * b[k - i]
            out.append(s)
        return _reduced(self.val + other.val, out, self.denom * other.denom)

    def inverse(self) -> "Series":
        """1/self to the same relative precision, O(p^2).

        With A = sum nums[k] t^k, 1/A = sum b_k t^k where b_k * a0^(k+1) is
        an integer, so c_k = b_k * a0^p is an integer and c_k * a0 is minus
        the sum of a_i * c_{k-i}: the division by a0 is exact.
        """
        a = self.nums
        p = len(a)
        a0 = a[0]
        out = [a0 ** (p - 1)]
        for k in range(1, p):
            s = 0
            for i in range(1, k + 1):
                s += a[i] * out[k - i]
            out.append(-(s // a0))
        d = self.denom
        denom = a0 ** p
        if denom < 0:
            d, denom = -d, -denom
        return _reduced(-self.val, [d * c for c in out], denom)

    def __truediv__(self, other: "Series") -> "Series":
        return self * other.inverse()

    def limit_at_zero(self) -> Fraction:
        """lim t->0, exact; raises if there is a pole at 0."""
        if self.val < 0:
            raise ZeroDivisionError("pole at t=0")
        return Fraction(self.nums[0], self.denom) if self.val == 0 else Fraction(0)


_new = object.__new__


def _reduced(val: int, nums: list, denom: int) -> Series:
    """A series from numerators over denom > 0, nums[0] != 0, reduced here."""
    g = gcd(denom, *nums)
    s = _new(Series)
    if g == 1:
        s.val, s.nums, s.denom = val, tuple(nums), denom
    else:
        s.val, s.nums, s.denom = val, tuple([x // g for x in nums]), denom // g
    return s


def _trim(cs: Sequence[Fraction]) -> Coeffs:
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim(out)


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-v for v in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def _pdivmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv = 1 / b[-1]
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] * inv
        if c:
            q[k] = c
            for i, bv in enumerate(b):
                r[k + i] -= c * bv
        r.pop()
    return _trim(q), _trim(r)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    x, y = a, b
    while y:
        _, r = _pdivmod(x, y)
        x, y = y, r
    if not x:
        return ()
    lead = x[-1]
    return tuple(v / lead for v in x)


class RatF:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[Fraction], den: Sequence[Fraction] = (Fraction(1),)):
        n, d = _trim(num), _trim(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            self.num: Coeffs = ()
            self.den: Coeffs = (Fraction(1),)
            return
        g = _pgcd(n, d)
        if len(g) > 1:
            n, _ = _pdivmod(n, g)
            d, _ = _pdivmod(d, g)
        lead = d[-1]
        if lead != 1:
            n = tuple(v / lead for v in n)
            d = tuple(v / lead for v in d)
        self.num, self.den = n, d

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(q) -> "RatF":
        return RatF((Fraction(q),))

    @staticmethod
    def variable() -> "RatF":
        return RatF((Fraction(0), Fraction(1)))

    def one(self) -> "RatF":
        return RatF.const(1)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatF):
            return other
        if isinstance(other, (int, Fraction)):
            return RatF.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatF(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatF(_pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatF(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatF(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return False
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return not self.num

    # -- the limit -----------------------------------------------------------

    def limit_at_zero(self) -> Fraction:
        """lim t->0, exact; raises if there is a pole at 0."""
        if not self.num:
            return Fraction(0)
        num, den = self.num, self.den
        nlow = next(i for i, v in enumerate(num) if v)
        dlow = next(i for i, v in enumerate(den) if v)
        k = min(nlow, dlow)
        n0 = Fraction(0) if nlow > k else num[k]
        d0 = Fraction(0) if dlow > k else den[k]
        if d0 == 0:
            raise ZeroDivisionError("pole at t=0")
        return n0 / d0

    def __repr__(self):
        def poly(cs):
            if not cs:
                return "0"
            terms = []
            for i, c in enumerate(cs):
                if c == 0:
                    continue
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*t")
                else:
                    terms.append(f"{c}*t^{i}")
            return " + ".join(terms)

        if self.den == (Fraction(1),):
            return poly(self.num)
        return f"({poly(self.num)})/({poly(self.den)})"
