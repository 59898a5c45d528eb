"""The sparse integer polynomials of the scalar kernel, against sympy's
PolyElement over the same names: every operation, and the gcd cofactors
exactly (sign included)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.heuristicgcd import heugcd

from nilkaehler import poly
from nilkaehler.poly import HeuristicGCDFailed, ring_for
from sympy_oracle import from_sympy, to_sympy

NAMES = ("a", "lambda", "psi11", "x")


@st.composite
def rings(draw):
    return ring_for(tuple(sorted(draw(st.sets(st.sampled_from(NAMES), min_size=1)))))


def _polys(draw, R, max_terms=5, top=3, coeffs=st.integers(-20, 20)):
    monoms = st.tuples(*[st.integers(0, top)] * len(R._scalar_names))
    return R.poly(draw(st.dictionaries(monoms, coeffs.filter(bool), max_size=max_terms)))


@st.composite
def poly_pairs(draw):
    """Two polynomials of one ring: drawn apart, one of them a single term,
    or f*h and g*h for a shared multivariate h."""
    R = draw(rings())
    f, g = _polys(draw, R), _polys(draw, R)
    mode = draw(st.sampled_from(("apart", "single", "shared")))
    if mode == "single":
        g = _polys(draw, R, max_terms=1, coeffs=st.integers(-10**20, 10**20))
    elif mode == "shared":
        h = _polys(draw, R, max_terms=4, top=2)
        f, g = f * h, g * h
    return f, g


def _same(got, want):
    assert got.ring is ring_for(tuple(s.name for s in want.ring.symbols))
    assert got == from_sympy(want) and dict(got) == dict(want)


@given(poly_pairs(), st.integers(-5, 5))
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_sympy(pair, c):
    f, g = pair
    F, G = to_sympy(f), to_sympy(g)
    for got, want in [(f + g, F + G), (f - g, F - G), (f * g, F * G), (-f, -F),
                      (f + c, F + c), (c + f, c + F), (f - c, F - c), (c - f, c - F),
                      (f * c, F * c), (c * f, c * F)]:
        _same(got, want)
    assert (f == g) == (F == G) and (f != g) == (F != G)
    assert (f == c) == (F == c) and (f != c) == (F != c)


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_division_content_and_order_match_sympy(pair):
    f, g = pair
    F, G = to_sympy(f), to_sympy(g)
    if g:
        _same((f * g).exquo(g), (F * G).exquo(G))
    assert f.content() == F.content()
    assert f.LC == F.LC
    if f:
        assert f.terms()[0] == F.terms()[0]
    assert f.terms() == F.terms()


def _sympy_cofactors(F, G):
    # sympy's cofactors divides each variable's exponents by their gcd before
    # it runs heugcd, which can flip the sign of h; poly runs GCDHEU on the
    # operands as they are
    if len(F) > 1 and len(G) > 1:
        return heugcd(F, G)
    return F.cofactors(G)


@given(poly_pairs())
@settings(max_examples=200, deadline=None)
def test_cofactors_match_sympy(pair):
    f, g = pair
    for got, want in zip(f.cofactors(g), _sympy_cofactors(to_sympy(f), to_sympy(g))):
        _same(got, want)


def test_an_inexact_division_raises():
    x, y = ring_for(("x", "y")).gens
    with pytest.raises(ArithmeticError):
        (x * x + y).exquo(x + y)
    with pytest.raises(ArithmeticError):
        (2 * x).exquo(3 * x)


def test_cofactors_of_deflated_and_zero_operands():
    # GCDHEU alone handles operands whose exponents share a factor
    x, y = ring_for(("x", "y")).gens
    x2, y2 = x * x, y * y
    f, g = x2 * x2 - y2, x2 * x2 * x2 + y2 * y
    h, cf, cg = f.cofactors(g)
    assert h == x2 + y and h * cf == f and h * cg == g
    zero = f * 0
    assert zero.cofactors(-g) == (g, zero, -1)
    assert (-g).cofactors(zero) == (g, -1, zero)
    # sympy's cofactors divides the exponents of y by 3 first, and returns -h
    y3 = y2 * y
    f, g = (x * y3 - y3 * y3) * (2 + 2 * y3), (x * y3 - y3 * y3) * (2 * x - 4 * y3 - 2 * x * x)
    h, cf, cg = f.cofactors(g)
    assert h == 2 * (y3 * y3 - x * y3) and h * cf == f and h * cg == g
    assert from_sympy(to_sympy(f).cofactors(to_sympy(g))[0]) == -h


def test_gcdheu_raises_when_its_evaluation_points_run_out(monkeypatch):
    x, y = ring_for(("x", "y")).gens
    monkeypatch.setattr(poly, "HEU_GCD_MAX", 0)
    assert (x * y).cofactors(x + x * y) == (x, y, 1 + y)  # a single term needs no GCDHEU
    with pytest.raises(HeuristicGCDFailed):
        (x + y).cofactors(x - y)
