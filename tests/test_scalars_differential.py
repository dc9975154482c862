"""``Cyc`` on integer numerators over one denominator, against ``Fraction`` coordinates.

``FractionCyc`` is the earlier arithmetic, which kept a tuple of ``Fraction``
coordinates and built its reduction rows from ``Fraction`` polynomials.  It
stays here as the oracle: every operation of ``Cyc`` must give the same
level, the same coordinates, the same ``repr``, ``str`` and ``hash``, and the
same ``to_complex`` bit for bit.  Its inverse is still the Gaussian
elimination over ``Fraction`` that ``Cyc`` no longer does.
"""

import cmath
from fractions import Fraction
from functools import cache
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.scalars import Cyc

LEVELS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 24)


def _poly_divmod(num, den):
    num = list(num)
    quo = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        quo[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quo, num


@cache
def _cyclotomic(n):
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(d))
            assert rem == [Fraction(0)]
    return poly


@cache
def _rows(n):
    phi = _cyclotomic(n)
    d = len(phi) - 1
    rows, cur = [], [Fraction(1)] + [Fraction(0)] * (d - 1)
    for _ in range(max(n, 2 * d)):
        rows.append(tuple(cur))
        top, nxt = cur[d - 1], [Fraction(0)] + cur[: d - 1]
        if top:
            for j in range(d):
                nxt[j] -= top * phi[j]
        cur = nxt
    return rows


@cache
def _trace_weights(n):
    rows = _rows(n)
    units = [j for j in range(n) if gcd(j, n) == 1]
    return tuple(sum(rows[j * k % n][0] for j in units) / len(units) for k in range(len(rows[0])))


class FractionCyc:
    """The oracle: an element of the level-n cyclotomic field with ``Fraction`` coordinates."""

    def __init__(self, level, coords):
        self.level = level
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == len(_cyclotomic(level)) - 1

    @staticmethod
    def rational(q):
        return FractionCyc(1, (Fraction(q),))

    def _promoted(self, m):
        if m == self.level:
            return self
        step, rows = m // self.level, _rows(m)
        out = [Fraction(0)] * len(rows[0])
        for k, c in enumerate(self.coords):
            for j, r in enumerate(rows[k * step]):
                out[j] += c * r
        return FractionCyc(m, out)

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, FractionCyc) else FractionCyc.rational(x)

    def _pair(self, other):
        other = self._coerce(other)
        m = self.level * other.level // gcd(self.level, other.level)
        return self._promoted(m), other._promoted(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyc(a.level, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyc(self.level, [-x for x in self.coords])

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        # a rational factor keeps the other operand's level
        if self.level == 1 or other.level == 1:
            (q,), x = (self.coords, other) if self.level == 1 else (other.coords, self)
            return FractionCyc(x.level, [q * c for c in x.coords])
        a, b = self._pair(other)
        d = len(a.coords)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coords):
            for j, y in enumerate(b.coords):
                conv[i + j] += x * y
        rows, out = _rows(a.level), conv[:d]
        for k in range(d, 2 * d - 1):
            for j in range(d):
                out[j] += conv[k] * rows[k][j]
        return FractionCyc(a.level, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return (self ** -e).inverse()
        out = FractionCyc.rational(1)
        for _ in range(e):
            out = out * self
        return out

    def inverse(self):
        d = len(self.coords)
        z = FractionCyc(self.level, _rows(self.level)[1]) if self.level > 1 else FractionCyc.rational(1)
        cols, zj = [], FractionCyc.rational(1)._promoted(self.level)
        for _ in range(d):
            cols.append((self * zj).coords)
            zj = zj * z
        mat = [[cols[j][i] for j in range(d)] for i in range(d)]
        rhs = [Fraction(int(i == 0)) for i in range(d)]
        for col in range(d):
            piv = next(r for r in range(col, d) if mat[r][col])
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / mat[col][col]
            mat[col] = [x * inv for x in mat[col]]
            rhs[col] *= inv
            for r in range(d):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                    rhs[r] -= f * rhs[col]
        return FractionCyc(self.level, rhs)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coords == b.coords

    def __hash__(self):
        return hash(sum(c * w for c, w in zip(self.coords, _trace_weights(self.level)) if c))

    def __bool__(self):
        return any(self.coords)

    def to_complex(self):
        z = cmath.exp(2j * cmath.pi / self.level)
        return sum((complex(c) * z**k for k, c in enumerate(self.coords)), 0j)

    def __repr__(self):
        return f"Cyc({self.level}, {[str(c) for c in self.coords]})"

    def __str__(self):
        if not any(self.coords[1:]):
            return str(self.coords[0])
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


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def assert_agrees(got, want: FractionCyc) -> None:
    assert type(got) is Cyc
    # canonical form: lowest terms over a positive denominator
    assert got.den > 0 and gcd(got.den, *got.num) == 1
    assert got.level == want.level and got.coords == want.coords
    assert repr(got) == repr(want) and str(got) == str(want) and hash(got) == hash(want) and bool(got) == bool(want)
    assert _bits(got.to_complex()) == _bits(want.to_complex())


coordinates = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.integers(-(10**20), 10**20).map(Fraction),
    st.just(Fraction(0)),
)


@st.composite
def cyclotomics(draw):
    """The same random value as a ``Cyc`` and as a ``FractionCyc``."""
    n = draw(st.sampled_from(LEVELS))
    coords = draw(st.lists(coordinates, min_size=len(_cyclotomic(n)) - 1, max_size=len(_cyclotomic(n)) - 1))
    return Cyc(n, coords), FractionCyc(n, coords)


# an operand: a value at any level, or a plain int or Fraction, the same on both sides
operands = st.one_of(
    cyclotomics(),
    st.integers(-50, 50).map(lambda k: (k, k)),
    st.fractions(min_value=-20, max_value=20, max_denominator=9).map(lambda q: (q, q)),
)


@settings(max_examples=300, deadline=None)
@given(cyclotomics(), operands, st.integers(-2, 3))
def test_arithmetic_agrees_with_fraction_coordinates(a, b, e):
    (x, fx), (y, fy) = a, b
    assert_agrees(x, fx)
    assert_agrees(x + y, fx + fy)
    assert_agrees(y + x, fy + fx)
    assert_agrees(x - y, fx - fy)
    assert_agrees(y - x, fy - fx)
    assert_agrees(x * y, fx * fy)
    assert_agrees(y * x, fy * fx)
    assert_agrees(-x, -fx)
    if x:
        assert_agrees(x.inverse(), fx.inverse())
    if y:
        assert_agrees(x / y, fx / fy)
    if x:
        assert_agrees(y / x, fy / fx)
    if x or e >= 0:
        assert_agrees(x**e, fx**e)
    assert (x == y) == (fx == fy) and (x != y) == (fx != fy)
    assert (x == x * 1) and (x == y) <= (hash(x) == hash(y))


@settings(max_examples=100, deadline=None)
@given(cyclotomics(), st.sampled_from(LEVELS))
def test_promoted_values_agree_and_compare_equal(a, m):
    # multiplying by z_m and its inverse promotes to the lcm level
    x, fx = a
    # like Cyc.zeta, write z_1 and z_2 as the rationals 1 and -1
    fzm = FractionCyc(m, _rows(m)[1]) if m > 2 else FractionCyc.rational((-1) ** (m - 1))
    y, fy = x * Cyc.zeta(m) * Cyc.zeta(m, -1), fx * fzm * fzm.inverse()
    assert_agrees(y, fy)
    assert y == x and hash(y) == hash(x)
