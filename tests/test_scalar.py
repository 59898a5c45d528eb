"""Exact scalar arithmetic: canonical forms, parsing, field axioms."""

import math
import operator
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilkaehler import catalog
from nilkaehler.scalar import (
    ONE,
    ZERO,
    ParamBinding,
    Scalar,
    ScalarSyntaxError,
    _canonical,
    _R0,
    _ring_for,
    as_scalar,
    parse_expr,
)

# ---------------------------------------------------------------- parsing


def test_parse_zero_is_canonical_zero():
    z = parse_expr("0")
    assert z.is_zero()
    assert z == ZERO
    assert str(z) == "0"


def test_parse_rational_function():
    v = parse_expr("(psi11^2+1)/psi12")
    assert v.free_params() == {"psi11", "psi12"}
    assert str(v) == "(psi11^2 + 1)/psi12"


def test_parse_cancels_common_factor():
    assert parse_expr("(x^2-1)/(x-1)") == parse_expr("x+1")


def test_rational_literal_binds_tighter_than_division():
    assert parse_expr("1/2").as_fraction() == Fraction(1, 2)
    assert parse_expr("x/2*y") == parse_expr("(x*y)/2")


def test_unary_minus_and_powers():
    assert parse_expr("-x^2") == -(Scalar.param("x") ** 2)
    assert parse_expr("x^0") == ONE
    assert parse_expr("2^3") == Scalar.from_int(8)


@pytest.mark.parametrize(
    "text,position",
    [
        ("x +", 3),
        ("(x", 2),
        ("x^y", 2),
        ("2 @ 3", 2),
        ("", 0),
        ("x (y)", 2),
    ],
)
def test_syntax_errors_report_position(text, position):
    with pytest.raises(ScalarSyntaxError) as info:
        parse_expr(text)
    assert info.value.position == position


def test_parse_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        parse_expr("x/(y-y)")
    with pytest.raises(ZeroDivisionError):
        parse_expr("1/0")


# ---------------------------------------------------------------- arithmetic


def test_rational_arithmetic():
    assert parse_expr("1/2") + parse_expr("1/3") == parse_expr("5/6")


def test_multiplicative_inverse_of_quotient():
    x, y = Scalar.param("x"), Scalar.param("y")
    assert (x / y) * (y / x) == ONE


def test_expand_product_against_hand_result():
    lam = Scalar.param("lambda")
    psi12 = Scalar.param("psi12")
    got = ((3 * lam - 1) / (lam - 1)) * psi12
    assert got == parse_expr("(3*lambda*psi12 - psi12)/(lambda - 1)")


def test_division_by_zero_scalar():
    with pytest.raises(ZeroDivisionError):
        1 / ZERO


def test_negative_integer_power():
    x = Scalar.param("x")
    assert x**-2 == 1 / (x * x)
    with pytest.raises(ZeroDivisionError):
        ZERO**-1


def test_operators_coerce_scalar_like():
    assert parse_expr("1/2") + "1/3" == parse_expr("5/6")
    assert "x" - parse_expr("x") == ZERO
    assert parse_expr("x") * 0 == ZERO
    assert -as_scalar("x") == parse_expr("-x")
    assert parse_expr("(x+1)*(x-1) - (x^2-1)").is_zero()
    assert not parse_expr("psi12").is_zero()


# ---------------------------------------------------------------- substitution


def test_substitute_full_binding():
    v = parse_expr("-(3*lambda - 1)*psi12/(lambda - 1)")
    assert v.substitute({"lambda": 2, "psi12": 1}) == Scalar.from_int(-5)


def test_substitute_identity_and_partial():
    x = Scalar.param("x")
    assert x.substitute({}) == x
    v = parse_expr("x*y + y^2")
    assert v.substitute({"x": 1}) == parse_expr("y + y^2")


def test_substitute_vanishing_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_expr("1/psi12").substitute({"psi12": 0})


def test_substitute_rejects_floats():
    with pytest.raises(TypeError, match="exact rational"):
        parse_expr("x").substitute({"x": 0.5})


def test_binding_reserves_sqrt2_name():
    with pytest.raises(ValueError):
        ParamBinding({"s": 1})


# ---------------------------------------------------------------- sqrt(2)


def test_sqrt2_square_reduces():
    s = Scalar.sqrt2()
    assert s * s == Scalar.from_int(2)
    assert s**3 == 2 * s
    assert parse_expr("s^2 - 2").is_zero()


def test_sqrt2_denominators_are_rationalized():
    s = Scalar.sqrt2()
    assert 1 / (1 + s) == s - 1
    v = (1 + s) / (3 - s)
    assert v == parse_expr("(4*s + 5)/7")
    assert "s" not in str(v).split("/")[-1]


def test_sqrt2_float_value():
    v = parse_expr("s/2")
    assert v.evaluate() == pytest.approx(2**0.5 / 2)


def test_sign_is_exact_over_q_sqrt2():
    assert parse_expr("1 - s").sign() == -1
    assert parse_expr("3 - 2*s").sign() == 1  # 9 > 8
    assert parse_expr("(2*s - 3)/5").sign() == -1
    assert ZERO.sign() == 0
    with pytest.raises(ValueError):
        parse_expr("x - s").sign()


# ---------------------------------------------------------------- evaluation


def test_evaluate_requires_full_binding():
    v = parse_expr("x/y")
    assert v.evaluate({"x": 1, "y": 4}) == 0.25
    with pytest.raises(ValueError):
        v.evaluate({"x": 1})


def test_constants_hash_as_the_equal_number():
    for value in (0, 1, 3, -7, 2**70, Fraction(1, 2), Fraction(-5, 3)):
        assert as_scalar(value) == value
        assert hash(as_scalar(value)) == hash(value)
    assert len({as_scalar(3), 3}) == 1
    assert {3: "three"}.get(as_scalar(3)) == "three"
    assert {Fraction(1, 2): "half"}.get(parse_expr("2/4")) == "half"


def test_a_scalar_never_equals_a_string_or_bool():
    # == does not parse: a string never hashes as the Scalar it names
    x = parse_expr("x")
    assert x != "x" and as_scalar(3) != "3"
    assert len({x, "x"}) == 2
    assert {"x": 1}.get(x) is None
    assert as_scalar(3) == 3 and hash(as_scalar(3)) == hash(3)
    # a bool is not a Scalar value: unequal, and no TypeError from ==
    assert as_scalar(1) != True and True not in {as_scalar(1)}  # noqa: E712


def test_as_fraction_round_trip():
    assert as_scalar(Fraction(-7, 3)).as_fraction() == Fraction(-7, 3)
    with pytest.raises(ValueError):
        parse_expr("x").as_fraction()


# ---------------------------------------------------------------- properties

PARAMS = ("x", "y", "z")


@st.composite
def polys(draw, max_terms=3):
    total = ZERO
    for _ in range(draw(st.integers(1, max_terms))):
        term = Scalar.from_int(draw(st.integers(-6, 6)))
        for name in PARAMS:
            term = term * Scalar.param(name) ** draw(st.integers(0, 2))
        total = total + term
    return total


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys())
    assume(not den.is_zero())
    return num / den


@given(scalars(), scalars(), scalars())
@settings(max_examples=50, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars())
@settings(max_examples=50, deadline=None)
def test_multiplicative_inverse(a):
    assume(not a.is_zero())
    assert a * (ONE / a) == ONE


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_canonical_form_cancels_common_factor(p, q, r):
    assume(not q.is_zero() and not r.is_zero())
    assert (p * r) / (q * r) == p / q


@given(scalars())
@settings(max_examples=50, deadline=None)
def test_print_parse_round_trip(a):
    assert parse_expr(str(a)) == a


@given(scalars(), scalars(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=50, deadline=None)
def test_substitute_commutes_with_arithmetic(a, b, xv, yv):
    binding = {"x": Fraction(xv), "y": Fraction(yv)}
    try:
        sa, sb = a.substitute(binding), b.substitute(binding)
        s_sum, s_prod = (a + b).substitute(binding), (a * b).substitute(binding)
    except ZeroDivisionError:
        assume(False)
    assert s_sum == sa + sb
    assert s_prod == sa * sb


@given(st.integers(-20, 20), st.integers(1, 20), st.integers(-20, 20), st.integers(1, 20))
def test_constants_agree_with_fractions(p, q, r, t):
    a, b = Fraction(p, q), Fraction(r, t)
    assert (as_scalar(a) + as_scalar(b)).as_fraction() == a + b
    assert (as_scalar(a) - as_scalar(b)).as_fraction() == a - b
    assert (as_scalar(a) * as_scalar(b)).as_fraction() == a * b
    if b:
        assert (as_scalar(a) / as_scalar(b)).as_fraction() == a / b
    else:
        with pytest.raises(ZeroDivisionError):
            as_scalar(a) / as_scalar(b)


# ints, small fractions and the 53-bit dyadic rationals of floats, with
# zero and negative values among them
rational_constants = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**12, 10**12).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(Fraction),
)

OPERATORS = {
    "+": (operator.add, lambda n1, d1, n2, d2: (n1 * d2 + n2 * d1, d1 * d2)),
    "-": (operator.sub, lambda n1, d1, n2, d2: (n1 * d2 - n2 * d1, d1 * d2)),
    "*": (operator.mul, lambda n1, d1, n2, d2: (n1 * n2, d1 * d2)),
    "/": (operator.truediv, lambda n1, d1, n2, d2: (n1 * d2, d1 * n2)),
}


@given(st.sampled_from(sorted(OPERATORS)), rational_constants, rational_constants)
@settings(max_examples=300, deadline=None)
def test_constant_arithmetic_matches_the_polynomial_path(symbol, a, b):
    apply, cross = OPERATORS[symbol]
    assume(symbol != "/" or b)
    want = apply(a, b)
    # the same operation through polynomial arithmetic over the
    # parameter-free ring, as a parametric operand would take it
    ints = (_R0(x) for x in (a.numerator, a.denominator, b.numerator, b.denominator))
    reference = _canonical(*cross(*ints), _R0)
    for got in (apply(as_scalar(a), as_scalar(b)), apply(a, as_scalar(b))):
        assert got._num.ring is _R0 and reference._num.ring is _R0
        assert got._num == reference._num and got._den == reference._den
        assert got == reference == want
        assert got.as_fraction() == want
        assert str(got) == str(reference) == str(want)
        assert hash(got) == hash(reference) == hash(want)
        assert got.is_one() == reference.is_one() == (want == 1)
        assert got.is_zero() == (want == 0)
        assert got.is_constant()


@given(rational_constants)
@settings(max_examples=100, deadline=None)
def test_rational_constants_are_stored_as_ints(c):
    # whatever path makes a rational constant, it is held as two ints and
    # never as polynomials, and reads the same as the int or Fraction
    a = Scalar.param("a")
    results = [
        ((a + c) - a, c),
        ((c * a) / a, c),
        ((c * a / (a + 1)).substitute({"a": 1}) * 2, c),
        (parse_expr("a^2 - a*a + 3/2"), Fraction(3, 2)),
        (Scalar.sqrt2() * Scalar.sqrt2(), Fraction(2)),
        (Scalar.sqrt2() * Scalar.sqrt2() / 2, Fraction(1)),
    ]
    for got, want in results:
        assert got._p is None and got._q is None
        assert got == as_scalar(want) == want
        assert hash(got) == hash(as_scalar(want)) == hash(want)
        assert str(got) == str(as_scalar(want)) == str(want)
        assert got.as_fraction() == want
        assert got.is_constant() and not got.free_params()
        # the polynomial view that printing and tracing code reads
        assert got._num.ring is _R0 and got._den.ring is _R0
        assert got._num == _R0(want.numerator) and got._den == _R0(want.denominator)


def test_a_constant_times_a_parameter_is_the_parsed_product():
    a = Scalar.param("a")
    assert a * 2 == 2 * a == parse_expr("2*a")
    assert hash(a * 2) == hash(parse_expr("2*a"))
    assert (a * 2)._p is not None
    assert a / Fraction(1, 2) - a == a


# (A, B) stands for A + B*sqrt(2) with rational A, B: an independent model
# of Q(sqrt 2) in Fractions
MODEL = {
    "+": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "-": lambda x, y: (x[0] - y[0], x[1] - y[1]),
    "*": lambda x, y: (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    "/": lambda x, y: MODEL["*"](x, (y[0] / (y[0] ** 2 - 2 * y[1] ** 2),
                                    -y[1] / (y[0] ** 2 - 2 * y[1] ** 2))),
}
RS = _ring_for(("s",))


def _poly_pair(a: Fraction, b: Fraction):
    # a + b*s as numerator and denominator over ZZ[s]
    d = a.denominator * b.denominator
    s = RS.gens[0]
    return RS(a.numerator * b.denominator) + s * (b.numerator * a.denominator), RS(d)


def _model_pow(x, e):
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        acc = MODEL["*"](acc, x)
    return MODEL["/"]((Fraction(1), Fraction(0)), acc) if e < 0 else acc


def _outcome(thunk):
    try:
        return thunk()
    except OverflowError:
        return OverflowError


def _check_q_sqrt2_evaluate(got, A, B):
    # against A + B*sqrt(2) in 60-digit decimals: a value whose terms fit in
    # a float never overflows, whatever the size of its ints, and is within
    # 4 ulp of the larger term (a/d, b/d, sqrt(2.0), the product and the sum
    # each round once)
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(A.numerator) / A.denominator
        b_sqrt2 = Decimal(B.numerator) / B.denominator * Decimal(2).sqrt()
        largest = max(abs(a), abs(b_sqrt2))
        if largest >= Decimal(sys.float_info.max) / 2:
            return
        value = got.evaluate()
        assert abs(Decimal(value) - (a + b_sqrt2)) <= 4 * Decimal(math.ulp(float(largest)))


def test_q_sqrt2_evaluate_does_not_overflow_on_large_ints():
    x = (Fraction(10**400) + Scalar.sqrt2()) / Fraction(10**399)
    assert max(map(abs, x._p)) > 10**308
    assert x.evaluate() == 10.0
    tiny = Fraction(2.2250738585e-311)
    _check_q_sqrt2_evaluate(tiny * Scalar.sqrt2(), Fraction(0), tiny)


def _check_against_reference(got, reference, want):
    A, B = want
    assert got == reference
    assert str(got) == str(reference)
    assert hash(got) == hash(reference)
    # _num/_den: the ZZ[s] polynomials of the reference, whose value is A + B*s
    assert got._num.ring is reference._num.ring is (RS if B else _R0)
    assert got._num == reference._num and got._den == reference._den
    d = int(got._den.LC)
    assert d > 0
    assert (Fraction(int(got._num.coeff(1)), d),
            Fraction(int(got._num.coeff(RS.gens[0])) if B else 0, d)) == (A, B)
    assert got.sign() == reference.sign()
    value = _outcome(lambda: float(A) + float(B) * math.sqrt(2.0))
    if value is not OverflowError and abs(value) > 1e-9:
        assert got.sign() == (1 if value > 0 else -1)
    if B:
        _check_q_sqrt2_evaluate(got, A, B)
        assert not got.is_constant() and got.free_params() == frozenset()
    else:
        assert _outcome(got.evaluate) == _outcome(lambda: float(A))
        assert got.is_constant() and got.as_fraction() == A


@given(st.sampled_from(sorted(OPERATORS)), rational_constants, rational_constants,
       rational_constants, rational_constants)
@settings(max_examples=300, deadline=None)
def test_q_sqrt2_arithmetic_matches_the_polynomial_path(symbol, a, b, c, d):
    apply, cross = OPERATORS[symbol]
    assume(symbol != "/" or c or d)
    s = Scalar.sqrt2()
    x, y = a + b * s, c + d * s
    want = MODEL[symbol]((a, b), (c, d))
    # the same operation through polynomial arithmetic over ZZ[s], as it
    # is done when a parametric operand takes part
    reference = _canonical(*cross(*_poly_pair(a, b), *_poly_pair(c, d)), RS)
    _check_against_reference(apply(x, y), reference, want)


@given(rational_constants, rational_constants, st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_q_sqrt2_powers_match_the_polynomial_path(a, b, e):
    assume(a or b)  # ZZ[s] has no 0**0 for the reference
    x = a + b * Scalar.sqrt2()
    num, den = _poly_pair(a, b)
    reference = _canonical(num**e, den**e, RS) if e >= 0 else _canonical(den**-e, num**-e, RS)
    _check_against_reference(x**e, reference, _model_pow((a, b), e))


def _held_as_ints(x: Scalar) -> bool:
    if x._p is None:
        return type(x._n) is int and type(x._d) is int
    return x._q is None and all(type(v) is int for v in x._p)


def test_q_sqrt2_constants_are_stored_as_ints():
    s, a = Scalar.sqrt2(), Scalar.param("a")
    for got, text in [(s, "s"), (parse_expr("s"), "s"), (s * s * s, "2*s"),
                      ((a + s) - a, "s"), ((a * s + 1) / a - 1 / a, "s"),
                      (parse_expr("(4*s + 5)/7"), "(4*s + 5)/7"), (-s / 2, "-s/2")]:
        assert _held_as_ints(got) and got._p is not None
        assert str(got) == text
    entry = catalog.get("g12")
    fam = entry.structure("J3")
    J = fam.J.substitute(fam.binding())
    entries = [x for row in J.rows for x in row]
    assert all(_held_as_ints(x) for x in entries)
    assert sum(x._p is not None for x in entries) == 6  # the sqrt(2) entries
