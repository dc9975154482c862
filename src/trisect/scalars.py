"""Exact cyclotomic-rational scalars, with a float fallback.

Every invariant computed by this package is a value of this scalar type.
``Cyc(n, coords)`` is an element of the n-th cyclotomic field written in the
power basis 1, z, ..., z^(d-1) where z = exp(2*pi*i/n) and d = deg Phi_n.
It is stored as ``level`` n, a tuple ``num`` of d ``int`` numerators and one
positive ``int`` denominator ``den``, in lowest terms: gcd(den, *num) == 1,
so zero is ``num`` all 0 over ``den`` 1, and two values of one level are
equal exactly when their ``(num, den)`` are.  Phi_n is monic with integer
coefficients, so products and the reduction of powers z^k >= z^d stay in
integers.  So does the inverse: the product of the other Galois conjugates
over the norm, which is rational; no field operation does ``Fraction``
arithmetic.  ``coords`` is the read-only ``Fraction`` view of ``num / den``.
Arithmetic between different levels promotes to the lcm level.  Plain
``complex`` is accepted everywhere as the approximate backend.

A scalar is falsy exactly when it is zero; that is the one zero test, and
only exact zeros (every coordinate 0, or a complex 0j) are ever dropped.
An exact value never ``==`` a float: mixed comparisons go through
``approx_eq``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm
from numbers import Number

_cyclo_cache: dict[int, list[int]] = {}
_reduce_cache: dict[int, list[tuple[int, ...]]] = {}
_trace_cache: dict[int, tuple[Fraction, ...]] = {}


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials by a monic ``den``."""
    num = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = num[k + len(den) - 1]
        quo[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quo, num


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    # x^n - 1 divided by the cyclotomic polynomials of all proper divisors
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(d))
            assert rem == [0]
    _cyclo_cache[n] = poly
    return poly


def _reduction_rows(n: int) -> list[tuple[int, ...]]:
    """Row k: integer coordinates of z^k in the power basis, for 0 <= k < max(n, 2d)."""
    if n in _reduce_cache:
        return _reduce_cache[n]
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (d - 1)
    for _ in range(max(n, 2 * d)):
        rows.append(tuple(cur))
        # multiply by z: shift, then reduce z^d = -(phi[0] + ... + phi[d-1] z^(d-1))
        top = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if top:
            for j in range(d):
                nxt[j] -= top * phi[j]
        cur = nxt
    _reduce_cache[n] = rows
    return rows


def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Entry k: the trace of z^k over Q(z), divided by the degree.

    The trace is the sum of the conjugates z^(jk), gcd(j, n) = 1; it is
    rational, so it is the first coordinate of their sum.
    """
    if n not in _trace_cache:
        rows = _reduction_rows(n)
        units = [j for j in range(n) if gcd(j, n) == 1]
        d = len(rows[0])
        _trace_cache[n] = tuple(Fraction(sum(rows[j * k % n][0] for j in units), len(units)) for k in range(d))
    return _trace_cache[n]


def _make(level: int, num: tuple[int, ...], den: int) -> "Cyc":
    """The ``Cyc`` num / den at ``level``, brought to lowest terms; ``den`` > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    out = object.__new__(Cyc)
    out.level = level
    out.num = num
    out.den = den
    return out


class Cyc:
    """Element of the cyclotomic field of the given level: integer ``num`` over ``den``."""

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coords) -> None:
        d = len(cyclotomic_poly(level)) - 1
        coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
        if len(coords) != d:
            raise ValueError(f"level {level} needs {d} coordinates, got {len(coords)}")
        # the lcm of reduced denominators leaves no common factor with the numerators
        den = lcm(*(c.denominator for c in coords))
        self.level = level
        self.num = tuple([c.numerator * (den // c.denominator) for c in coords])
        self.den = den

    @classmethod
    def rational(cls, q) -> "Cyc":
        if type(q) is int:
            return _make(1, (q,), 1)
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyc":
        """z_n^k, reduced into the power basis."""
        if n < 1:
            raise ValueError("level must be >= 1")
        k %= n
        g = gcd(k, n) if k else n
        n2, k2 = n // g, k // g
        if n2 == 1:
            return cls.rational(1)
        if n2 == 2:
            return cls.rational(-1 if k2 % 2 else 1)
        return _make(n2, _reduction_rows(n2)[k2], 1)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates in the power basis, as ``Fraction``s."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def _substituted(self, m: int, j: int) -> "Cyc":
        """The value with z replaced by z_m^j, at level ``m``: the same value when
        m = j * level, a Galois conjugate when m = level and gcd(j, m) = 1."""
        rows = _reduction_rows(m)
        out = [0] * len(rows[0])
        for k, c in enumerate(self.num):
            if c:
                for i, r in enumerate(rows[k * j % m]):
                    if r:
                        out[i] += c * r
        return _make(m, tuple(out), self.den)

    def _promoted(self, m: int) -> "Cyc":
        return self if m == self.level else self._substituted(m, m // self.level)

    @staticmethod
    def _coerce(x) -> "Cyc":
        if isinstance(x, Cyc):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyc.rational(x)
        raise TypeError(f"cannot treat {type(x).__name__} as an exact scalar")

    def _pair(self, other) -> tuple["Cyc", "Cyc"]:
        other = self._coerce(other)
        if self.level == other.level:
            return self, other
        m = self.level * other.level // gcd(self.level, other.level)
        return self._promoted(m), other._promoted(m)

    def __add__(self, other):
        if type(other) is int:
            num = list(self.num)
            num[0] += other * self.den
            return _make(self.level, tuple(num), self.den)
        if type(other) is Cyc and other.level == self.level:
            a, b = self, other
        elif isinstance(other, complex):
            return self.to_complex() + other
        else:
            a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            return _make(a.level, tuple([x + y for x, y in zip(a.num, b.num)]), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make(a.level, tuple([x * fa + y * fb for x, y in zip(a.num, b.num)]), da * fa)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.level, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            return _make(self.level, tuple([other * x for x in self.num]), self.den)
        if type(other) is not Cyc:
            if isinstance(other, complex):
                return self.to_complex() * other
            other = self._coerce(other)
        if other.level == 1:
            q = other.num[0]
            return _make(self.level, tuple([q * x for x in self.num]), self.den * other.den)
        if self.level == 1:
            q = self.num[0]
            return _make(other.level, tuple([q * x for x in other.num]), self.den * other.den)
        a, b = (self, other) if self.level == other.level else self._pair(other)
        d = len(a.num)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        rows = _reduction_rows(a.level)
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                for j, r in enumerate(rows[k]):
                    if r:
                        out[j] += c * r
        return _make(a.level, tuple(out), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return (self ** (-e)).inverse()
        out = Cyc.rational(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "Cyc":
        """The product of the other Galois conjugates divided by the norm, which is rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n = self.level
        others = Cyc.rational(1)._promoted(n)
        for j in range(2, n):
            if gcd(j, n) == 1:
                others = others * self._substituted(n, j)
        norm = self * others  # rational: num[0] / den
        s = norm.den if norm.num[0] > 0 else -norm.den
        return _make(n, tuple([s * x for x in others.num]), others.den * abs(norm.num[0]))

    def __truediv__(self, other):
        if isinstance(other, complex):
            return self.to_complex() / other
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        if isinstance(other, complex):
            return other / self.to_complex()
        return self._coerce(other) * self.inverse()

    def __eq__(self, other) -> bool:
        if type(other) is Cyc and other.level == self.level:
            a, b = self, other
        else:
            try:
                a, b = self._pair(other)
            except TypeError:
                return NotImplemented
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # the trace divided by the degree does not change when a value is
        # promoted to a higher level, so equal values hash equal; on a
        # rational it is the rational itself, as ``== q`` requires
        return hash(sum(c * w for c, w in zip(self.coords, _trace_weights(self.level)) if c))

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        z = cmath.exp(2j * cmath.pi / self.level)
        den = self.den
        return sum((complex(x / den) * z**k for k, x in enumerate(self.num)), 0j)

    def __repr__(self) -> str:
        return f"Cyc({self.level}, {[str(c) for c in self.coords]})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.as_fraction())
        parts = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = f"z{self.level}" + (f"^{k}" if k > 1 else "")
                parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(parts).replace("+ -", "- ") or "0"



def to_complex(x) -> complex:
    if isinstance(x, Cyc):
        return x.to_complex()
    return complex(x)


def approx_eq(a, b) -> bool:
    """The one rule for whether two values agree: exact ``==`` unless a side
    is complex; then equal within 1e-9, relative.

    A side that is not a scalar, such as a normalized invariant, is compared
    by its own ``==``.
    """
    if not (isinstance(a, complex) or isinstance(b, complex)):
        return a == b
    if not isinstance(a, (Cyc, Number)):
        return a == b
    if not isinstance(b, (Cyc, Number)):
        return b == a
    x, y = to_complex(a), to_complex(b)
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


def render(x) -> str:
    """Exact form together with a decimal approximation.

    A part of the decimal is left out only when it is below 1e-12 |z|, so a
    tiny value keeps both its parts.
    """
    z = to_complex(x)
    small = 1e-12 * abs(z)
    re = f"{z.real:.12g}" if abs(z.real) > small or abs(z.imag) <= small else ""
    im = f"{z.imag:+.12g}i" if abs(z.imag) > small else ""
    dec = (re + im).lstrip("+")
    if isinstance(x, Cyc):
        return f"{x} (~ {dec})"
    return dec
