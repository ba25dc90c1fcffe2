"""Polynomial engine checks, with sympy as the independent gcd oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from lpa import polys


def randpoly(rng, nvars, p, deg=3, terms=4):
    d = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        c = rng.randint(-5, 5)
        if p:
            c %= p
        if c:
            d[e] = Fraction(c) if not p else c
    return d


def to_sympy(d, syms, p):
    dom = sympy.QQ if p == 0 else sympy.GF(p)
    expr = 0
    for e, c in d.items():
        coeff = sympy.Rational(c.numerator, c.denominator) if not p else int(c)
        term = coeff
        for s, k in zip(syms, e):
            term *= s ** k
        expr += term
    return sympy.Poly(expr, *syms, domain=dom)


@pytest.mark.parametrize("p", [0, 5, 2])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_gcd_matches_sympy_on_cofactor_products(p, nvars):
    rng = random.Random(1000 * p + nvars)
    syms = sympy.symbols(f"x0:{nvars}")
    for _ in range(60 if nvars < 3 else 15):
        f0, g0, h0 = (randpoly(rng, nvars, p) for _ in range(3))
        f = polys.pmul(f0, h0, p)
        g = polys.pmul(g0, h0, p)
        mine = polys.pgcd(f, g, p)
        sf, sg = to_sympy(f, syms, p), to_sympy(g, syms, p)
        sgcd = sf.gcd(sg)
        smine = to_sympy(mine, syms, p)
        assert smine.is_zero == sgcd.is_zero
        if not smine.is_zero:
            assert sympy.div(sgcd, smine, *syms)[1].is_zero
            assert sympy.div(smine, sgcd, *syms)[1].is_zero


@pytest.mark.parametrize("p", [0, 7])
def test_gcd_divides_and_divexact_roundtrip(p):
    rng = random.Random(7 + p)
    for _ in range(80):
        a = randpoly(rng, 2, p)
        b = randpoly(rng, 2, p)
        g = polys.pgcd(a, b, p)
        if a:
            qa = polys.pdivexact(a, g, p)
            assert polys.pmul(qa, g, p) == a
        if b:
            qb = polys.pdivexact(b, g, p)
            assert polys.pmul(qb, g, p) == b


def test_gcd_is_monic_and_symmetric():
    rng = random.Random(3)
    for p in (0, 5):
        for _ in range(40):
            a = randpoly(rng, 2, p)
            b = randpoly(rng, 2, p)
            g1 = polys.pgcd(a, b, p)
            g2 = polys.pgcd(b, a, p)
            assert g1 == g2
            if g1:
                _, lc = polys.plead(g1)
                assert lc == 1


def test_divexact_raises_when_not_divisible():
    p = 0
    a = {(1, 0): Fraction(1), (0, 0): Fraction(1)}      # x + 1
    b = {(0, 1): Fraction(1)}                           # y
    with pytest.raises(polys.NotDivisibleError):
        polys.pdivexact(a, b, p)


def test_grlex_leading_term():
    # 2*x^2 + x*y + y: grlex compares degree, then lexicographically
    a = {(2, 0): Fraction(2), (1, 1): Fraction(1), (0, 1): Fraction(1)}
    e, c = polys.plead(a)
    assert e == (2, 0) and c == 2


def test_pstr_deterministic():
    a = {(2, 0): Fraction(2), (1, 1): Fraction(-1), (0, 0): Fraction(3)}
    assert polys.pstr(a, ("s", "t")) == "2*s^2 - s*t + 3"
