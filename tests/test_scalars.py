import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.scalars import Cyc, approx_eq, cyclotomic_poly, render, to_complex


def test_cyclotomic_polynomials():
    # low -> high coefficients
    assert cyclotomic_poly(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_poly(2) == [Fraction(1), Fraction(1)]
    assert cyclotomic_poly(3) == [Fraction(1), Fraction(1), Fraction(1)]
    assert cyclotomic_poly(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_poly(6) == [Fraction(1), Fraction(-1), Fraction(1)]
    assert cyclotomic_poly(12) == [Fraction(1), 0, Fraction(-1), 0, Fraction(1)]


def test_roots_of_unity_relations():
    z3 = Cyc.zeta(3)
    assert not 1 + z3 + z3 * z3
    assert Cyc.zeta(4) ** 2 == -1
    assert Cyc.zeta(5) ** 5 == 1
    assert Cyc.zeta(6) == 1 + Cyc.zeta(3)  # z6 = 1 + z3
    assert Cyc.zeta(8, 2) == Cyc.zeta(4)


def test_cross_level_arithmetic():
    # z6^3 = -1 computed across levels
    assert Cyc.zeta(6) ** 3 == Cyc.rational(-1)
    x = Cyc.zeta(4) + Cyc.zeta(3)
    assert x - Cyc.zeta(3) == Cyc.zeta(4)
    assert x.level == 12


def test_inverse_and_division():
    for val in (Cyc.rational(Fraction(3, 7)), Cyc.zeta(5) + 2, 1 + Cyc.zeta(8) * 3):
        assert val * val.inverse() == 1
        assert (val / val) == 1
    with pytest.raises(ZeroDivisionError):
        Cyc.rational(0).inverse()


def test_conjugate_and_complex():
    z, zbar = Cyc.zeta(7, 3), Cyc.zeta(7, 4)
    c = z.to_complex()
    assert abs(zbar.to_complex() - c.conjugate()) < 1e-12
    assert z * zbar == 1 and abs((z * zbar).to_complex() - 1) < 1e-12


def test_rationality_checks():
    assert Cyc.zeta(4, 3) == -Cyc.zeta(4)
    g = Cyc.zeta(3) + Cyc.zeta(3, 2)
    assert g.is_rational() and g.as_fraction() == -1
    with pytest.raises(ValueError):
        Cyc.zeta(3).as_fraction()


def test_gauss_sums():
    # sum of zeta_n^(k^2): vanishes for n = 2 mod 4
    for n, mag2 in ((2, 0), (3, 3), (4, 8), (5, 5), (6, 0)):
        s = sum((Cyc.zeta(n, (k * k) % n) for k in range(n)), Cyc.rational(0))
        assert abs(abs(s.to_complex()) ** 2 - mag2) < 1e-9


def test_helpers():
    assert not Cyc.rational(0) and Cyc.zeta(3)
    assert approx_eq(Cyc.zeta(4), 1j)
    assert "~" in render(Cyc.zeta(3))
    assert to_complex(2 + 0j) == 2 + 0j


def test_an_exact_value_never_equals_a_float():
    # equal values must hash equal, and no exact value hashes like a nearby float
    one = Cyc.rational(1)
    assert one != 1 + 1e-12j and 1 + 1e-12j != one
    assert one != 1 + 0j and Cyc.zeta(4) != 1j
    assert approx_eq(one, 1 + 1e-12j) and approx_eq(1j, Cyc.zeta(4))
    assert not approx_eq(one, 1 + 1e-6j)
    # two exact values compare exactly: a difference far inside the float rule still counts
    assert not approx_eq(one, one + Fraction(1, 10**12))


def test_complex_over_an_exact_scalar_is_complex():
    # as an exact scalar over a complex one already is
    assert (1 + 0j) / Cyc.rational(2) == 0.5 + 0j
    assert Cyc.rational(2) / (1 + 0j) == 2 + 0j
    assert approx_eq(1j / Cyc.zeta(4), 1 + 0j)


@pytest.mark.parametrize("call, message", [
    (lambda: Cyc(3, [1]), "level 3 needs 2 coordinates, got 1"),
    (lambda: Cyc.zeta(0), "level must be >= 1"),
], ids=["coordinate-count", "zeta-level-0"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_render_hides_only_parts_below_the_relative_threshold():
    assert render(1e-20 + 1e-20j) == "1e-20+1e-20i"
    assert render(1.48e-16 + 0.5773502691896258j) == "0.57735026919i"
    assert render(0.25 - 1e-17j) == "0.25"
    assert render(-0.5j) == "-0.5i"
    assert render(0j) == "0"
    assert render(Cyc.zeta(3)) == "z3 (~ -0.5+0.866025403784i)"


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6]))
    d = len(cyclotomic_poly(n)) - 1
    return Cyc(n, [draw(small_rationals) for _ in range(d)])


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a


def test_equal_values_hash_equal():
    # the product sits at level 12, zeta(3) at level 3
    a = Cyc.zeta(3) * Cyc.zeta(4) * Cyc.zeta(4, 3)
    assert a == Cyc.zeta(3) and a.level == 12
    assert len({a, Cyc.zeta(3)}) == 1
    assert hash(Cyc.rational(Fraction(3, 2))) == hash(Fraction(3, 2))


@given(st.integers(-10**30, 10**30))
def test_rational_of_an_int_is_the_rational_of_its_fraction(n):
    # an int skips the Fraction; the stored form, the value and the hash are those of the Fraction's
    got, want = Cyc.rational(n), Cyc.rational(Fraction(n))
    assert (got.level, got.num, got.den) == (want.level, want.num, want.den) == (1, (n,), 1)
    assert got == want == n and hash(got) == hash(want) == hash(n)
    assert Cyc.rational(True) == 1 and type(Cyc.rational(True).num[0]) is int


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12]))
def test_promotion_keeps_the_hash(a, m):
    # multiplying by zeta(m) and its inverse promotes a to the lcm level
    b = a * Cyc.zeta(m) * Cyc.zeta(m, -1)
    assert b == a
    assert hash(b) == hash(a)


@settings(max_examples=40, deadline=None)
@given(cyclotomics())
def test_embedding_consistency(a):
    # exact arithmetic commutes with the complex embedding
    z = a.to_complex()
    assert abs((a * a).to_complex() - z * z) < 1e-9
    assert abs((a + a).to_complex() - 2 * z) < 1e-9
