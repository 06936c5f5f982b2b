"""Rational functions of one variable t over exact rationals.

``RatF`` keeps num/den in lowest terms, with ``Fraction`` coefficients and
a monic denominator, and reads the limit t -> 0 exactly.  The stationary
path needs no functions of t: limit mode reads the t -> 0 limit in closed
form (see ``stationary``).  ``RatF`` is the independent reference for it:
the direct pipeline on S with a zero of weight t adjoined, run over
``RatF`` weights, has that limit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Coeffs = tuple[Fraction, ...]


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

    # -- the limit -----------------------------------------------------------

    def limit_at_zero(self) -> Fraction:
        """lim t->0, exact; raises if there is a pole at 0."""
        if not self.num:
            return Fraction(0)
        num, den = self.num, self.den
        nlow = next(i for i, v in enumerate(num) if v)
        dlow = next(i for i, v in enumerate(den) if v)
        if dlow > nlow:
            raise ZeroDivisionError("pole at t=0")
        return num[nlow] / den[dlow] if nlow == dlow else Fraction(0)

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
