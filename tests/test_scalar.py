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
from nilkaehler.poly import Poly, ring_for
from nilkaehler.scalar import (
    ONE,
    ZERO,
    ParamBinding,
    Scalar,
    ScalarSyntaxError,
    _move,
    as_scalar,
    parse_expr,
)
from sympy_oracle import from_sympy, names_of, sympy_ring, to_sympy

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


@pytest.mark.parametrize(
    "text,printed",
    [("-3/4", "-3/4"), ("7", "7"), ("(s + 1)/2", "(s + 1)/2"), ("(-s - 1)/3", "(-s - 1)/3"),
     ("(3*s - 5)/4", "(3*s - 5)/4"), ("1/(s + 1)", "s - 1")],
)
def test_a_constant_prints_as_its_polynomials(text, printed):
    assert str(parse_expr(text)) == printed


@pytest.mark.parametrize(
    "text,latex",
    [("0", "0"), ("-3/4", r"-\frac{3}{4}"), ("1 + s", r"\sqrt{2}+1"),
     ("-(psi11^2+1)/psi12", r"-\frac{\psi_{11}^2+1}{\psi_{12}}"),
     ("2*x^10 - 3*psi3", r"2x^{10}-3\psi_{3}"), ("(x - s)/(2*y)", r"\frac{-\sqrt{2}+x}{2y}"),
     ("(psi11*lambda - 1)/(2*lambda^2)", r"\frac{\lambda\psi_{11}-1}{2\lambda^2}"),
     ("2*lambda*x^10", r"2\lambda x^{10}"), ("lambda*y/(x+1)", r"\frac{\lambda y}{x+1}")],
)
def test_latex_walks_the_terms_that_str_prints(text, latex):
    assert parse_expr(text).latex() == latex


def test_parse_cancels_common_factor():
    assert parse_expr("(x^2-1)/(x-1)") == parse_expr("x+1")


def test_division_is_left_associative_and_binds_looser_than_powers():
    assert parse_expr("1/2") == Fraction(1, 2)
    assert parse_expr("x/2*y") == parse_expr("(x*y)/2")
    assert parse_expr("x/3/4") == parse_expr("x") / 12
    assert parse_expr("2/3^2") == Fraction(2, 9)


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
        ("x^²", 2),
        ("²", 0),
        ("x²+1", 1),
    ],
)
def test_syntax_errors_report_position(text, position):
    with pytest.raises(ScalarSyntaxError) as info:
        parse_expr(text)
    assert info.value.position == position
    assert str(info.value).endswith(f" (at position {position}) in {text!r}")


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


@pytest.mark.parametrize("value", [True, False])
def test_binding_rejects_bools(value):
    # a bool is an int to Fraction, but no Scalar value (see as_scalar)
    with pytest.raises(TypeError, match=f"x={value}: .* exact rational, not bool"):
        ParamBinding({"x": value})


def test_binding_reserves_sqrt2_name():
    with pytest.raises(ValueError):
        ParamBinding({"s": 1})


@pytest.mark.parametrize(
    "text,value",
    [("2/4", Fraction(1, 2)), ("-0", 0), (" 1/2 ", Fraction(1, 2)), ("(1+1)/3", Fraction(2, 3))],
)
def test_binding_reads_a_rational_constant(text, value):
    bound = ParamBinding({"x": text})["x"]
    assert type(bound) is Fraction and bound == value


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_0", "+3", "s", "x", ""])
def test_binding_refuses_text_that_is_no_rational_constant(text):
    # the expression parser reads it, and none of these is a rational constant
    with pytest.raises(ValueError) as info:
        ParamBinding({"x": text})
    assert str(info.value) == f"x={text!r}: not an exact rational"


def test_binding_refuses_a_zero_denominator():
    with pytest.raises(ValueError) as info:
        ParamBinding({"x": "1/0"})
    assert str(info.value) == "x=1/0: zero denominator"


# ---------------------------------------------------------------- sqrt(2)


def test_sqrt2_square_reduces():
    s = Scalar.param("s")
    assert s * s == Scalar.from_int(2)
    assert s**3 == 2 * s
    assert parse_expr("s^2 - 2").is_zero()


def test_sqrt2_denominators_are_rationalized():
    s = Scalar.param("s")
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


@pytest.mark.parametrize(
    "text,primitive",
    [("2*s*x", "x"), ("-3*s*x^2 - 6*s", "x^2 + 2"), ("s*(lambda+1)^2/(x+1)", "(lambda+1)^2"),
     ("-2*s", "1"), ("2*x + 2*s*x", "x + s*x"), ("-4*x/3", "x")],
)
def test_a_sqrt2_unit_leaves_the_primitive_numerator(text, primitive):
    # s is a unit: b*s vanishes exactly where b does
    assert parse_expr(text).primitive_numerator() == parse_expr(primitive)


# ---------------------------------------------------------------- evaluation


def test_evaluate_requires_full_binding():
    v = parse_expr("x/y")
    assert v.evaluate({"x": 1, "y": 4}) == 0.25
    with pytest.raises(ValueError):
        v.evaluate({"x": 1})
    with pytest.raises(ZeroDivisionError):
        v.evaluate({"x": 1, "y": 0})


def test_parametric_evaluate_does_not_overflow_on_large_ints():
    # the coefficients exceed the float range; the bound value is about 10
    v = (parse_expr("a") + Fraction(10**400)) / Fraction(10**399)
    assert v.evaluate({"a": 1}) == 10.0


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


# ---------------------------------------------------------------- properties

PARAMS = ("x", "y", "z")


@st.composite
def polys(draw, max_terms=3):
    total = ZERO
    for _ in range(draw(st.integers(1, max_terms))):
        term = Scalar.from_int(draw(st.integers(-6, 6)))
        for name in (*PARAMS, "s"):
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
    assert as_scalar(a) + as_scalar(b) == a + b
    assert as_scalar(a) - as_scalar(b) == a - b
    assert as_scalar(a) * as_scalar(b) == a * b
    if b:
        assert as_scalar(a) / as_scalar(b) == a / b
    else:
        with pytest.raises(ZeroDivisionError):
            as_scalar(a) / as_scalar(b)


# ---------------------------------------------------------------- reference reduction

R0, RS = ring_for(()), ring_for(("s",))
S0 = sympy_ring(())


def _reference(a, b, d, R) -> Scalar:
    """The canonical Scalar (a + b*s)/d for sympy polynomials a, b, d over R,
    built apart from the library's reduction: sympy's gcd of all three parts,
    an exact division by it, d's leading coefficient made positive, and
    sympy's set_ring onto the ring of exactly the occurring parameters."""
    if not (a or b):
        return ZERO
    g = d.gcd(a)
    if b:
        g = g.gcd(b)
    a, b, d = a.exquo(g), b and b.exquo(g), d.exquo(g)
    if d.LC < 0:
        a, b, d = -a, -b, -d
    names = tuple(sorted({n for p in (a, b, d) if p for m in p.itermonoms()
                          for n, e in zip(names_of(R), m) if e}))
    if not names:
        a, b, d = (int(p.LC) if p else 0 for p in (a, b, d))
        return Scalar._const(a, d) if not b else Scalar._new(a, b, d, None)
    S = sympy_ring(names)
    a, d = from_sympy(a.set_ring(S)), from_sympy(d.set_ring(S))
    return Scalar._new(a, from_sympy(b.set_ring(S)) if b else 0, d, ring_for(names))


def _over(x: Scalar, R) -> tuple:
    # the parts (a, b, d) of x as sympy polynomials over R, moved by set_ring
    if x._p is None:
        return R(x._n), R(0), R(x._d)
    if x._q is None:
        return tuple(map(R, x._p))
    return tuple(to_sympy(p).set_ring(R) if p else R(0) for p in x._p)


def _common_ring(*values: Scalar):
    return sympy_ring(tuple(sorted(set().union(*(v.free_params() for v in values)))))


def _product(a1, b1, a2, b2) -> tuple:
    # (a1 + b1*s)(a2 + b2*s) = a + b*s
    return a1 * a2 + 2 * b1 * b2, a1 * b2 + a2 * b1


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
    # the same operation reduced by polynomial gcds over the parameter-free
    # ring, as a parametric operand would take it
    ints = (S0(x) for x in (a.numerator, a.denominator, b.numerator, b.denominator))
    num, den = cross(*ints)
    reference = _reference(num, 0, den, S0)
    for got in (apply(as_scalar(a), as_scalar(b)), apply(a, as_scalar(b))):
        assert got._num.ring is R0 and reference._num.ring is R0
        assert got._num == reference._num and got._den == reference._den
        assert got == reference == want
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
        (Scalar.param("s") * Scalar.param("s"), Fraction(2)),
        (Scalar.param("s") * Scalar.param("s") / 2, Fraction(1)),
    ]
    for got, want in results:
        assert got._p is None and got._q is None
        assert got == as_scalar(want) == want
        assert hash(got) == hash(as_scalar(want)) == hash(want)
        assert str(got) == str(as_scalar(want)) == str(want)
        assert got.is_constant() and not got.free_params()
        # the polynomial view that printing and tracing code reads
        assert got._num.ring is R0 and got._den.ring is R0
        assert to_sympy(got._num) == want.numerator and to_sympy(got._den) == want.denominator


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
def _poly_parts(A: Fraction, B: Fraction):
    # A + B*s as the parts (a, b, d) over sympy's ZZ, not reduced
    return (S0(A.numerator * B.denominator), S0(B.numerator * A.denominator),
            S0(A.denominator * B.denominator))


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
    x = (Fraction(10**400) + Scalar.param("s")) / Fraction(10**399)
    assert max(map(abs, x._p)) > 10**308
    assert x.evaluate() == 10.0
    tiny = Fraction(2.2250738585e-311)
    _check_q_sqrt2_evaluate(tiny * Scalar.param("s"), Fraction(0), tiny)


def _check_against_reference(got, reference, want):
    A, B = want
    assert got == reference
    assert str(got) == str(reference)
    assert hash(got) == hash(reference)
    # _num/_den: the ZZ[s] polynomials of the reference, whose value is A + B*s
    assert got._num.ring is reference._num.ring is (RS if B else R0)
    assert got._num == reference._num and got._den == reference._den
    num, d = to_sympy(got._num), int(to_sympy(got._den).LC)
    assert d > 0
    assert (Fraction(int(num.coeff(1)), d),
            Fraction(int(num.coeff(num.ring.gens[0])) if B else 0, d)) == (A, B)
    assert got.sign() == reference.sign()
    value = _outcome(lambda: float(A) + float(B) * math.sqrt(2.0))
    if value is not OverflowError and abs(value) > 1e-9:
        assert got.sign() == (1 if value > 0 else -1)
    if B:
        _check_q_sqrt2_evaluate(got, A, B)
        assert not got.is_constant() and got.free_params() == frozenset()
    else:
        assert _outcome(got.evaluate) == _outcome(lambda: float(A))
        assert got.is_constant() and got == A


@given(st.sampled_from(sorted(OPERATORS)), rational_constants, rational_constants,
       rational_constants, rational_constants)
@settings(max_examples=300, deadline=None)
def test_q_sqrt2_arithmetic_matches_the_polynomial_path(symbol, a, b, c, d):
    apply, _ = OPERATORS[symbol]
    assume(symbol != "/" or c or d)
    s = Scalar.param("s")
    x, y = a + b * s, c + d * s
    want = MODEL[symbol]((a, b), (c, d))
    # the model's value reduced by polynomial gcds, as it is when a
    # parametric operand takes part
    reference = _reference(*_poly_parts(*want), S0)
    _check_against_reference(apply(x, y), reference, want)


@given(rational_constants, rational_constants, st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_q_sqrt2_powers_match_the_polynomial_path(a, b, e):
    assume(a or b)  # zero has no negative powers
    x = a + b * Scalar.param("s")
    want = _model_pow((a, b), e)
    _check_against_reference(x**e, _reference(*_poly_parts(*want), S0), want)


def _held_as_ints(x: Scalar) -> bool:
    if x._p is None:
        return type(x._n) is int and type(x._d) is int
    return x._q is None and all(type(v) is int for v in x._p)


def test_q_sqrt2_constants_are_stored_as_ints():
    s, a = Scalar.param("s"), Scalar.param("a")
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


# ---------------------------------------------------------------- Henrici's rule


def _full_gcd(symbol: str, x: Scalar, y) -> Scalar:
    # x op y from the full cross products, reduced by one gcd of all of them;
    # for "**", y is an int exponent
    if symbol == "**":
        R = _common_ring(x)
        a, b, d = _over(x, R)
        num = (R(1), R(0))
        for _ in range(abs(y)):
            num = _product(*num, a, b)
        a, b = num
        d = d ** abs(y)
        if y >= 0:
            return _reference(a, b, d, R)
        # d^k/(a + b*s) = d^k (a - b*s)/(a^2 - 2 b^2)
        return _reference(d * a, -d * b, a * a - 2 * b * b, R)
    R = _common_ring(x, y)
    (a1, b1, d1), (a2, b2, d2) = _over(x, R), _over(-y if symbol == "-" else y, R)
    if symbol == "*":
        return _reference(*_product(a1, b1, a2, b2), d1 * d2, R)
    if symbol == "/":
        a, b = _product(a1 * d2, b1 * d2, a2, -b2)
        return _reference(a, b, d1 * (a2 * a2 - 2 * b2 * b2), R)
    return _reference(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2, R)


def _check_canonical(got: Scalar, reference: Scalar):
    assert got == reference and got._q is reference._q
    if got._p is not None:
        assert [type(p) for p in got._p] == [type(p) for p in reference._p]
    assert str(got) == str(reference)
    assert hash(got) == hash(reference)
    assert got.free_params() == reference.free_params()
    assert got.is_constant() == reference.is_constant()
    assert parse_expr(str(got)) == got


# ZZ[x][s] has no unique factorization over the primes of ZZ[x], so a
# product of two values that both have an s part takes the full gcd: without
# it, each product but s*x/2 * s/x (whose constant result the int reduction
# of Q(sqrt 2) catches) keeps a common factor
@pytest.mark.parametrize("left, right, text", [
    ("(x + s)/(x^2 - 2)", "x - s", "1"),
    ("(x + s)/7", "(3 - s)*(x + 1)/(x + s)", "(-s*x - s + 3*x + 3)/7"),
    ("s*x/2", "s/x", "1"),
    ("s*x/2", "s*y/x", "y"),
])
def test_a_product_of_two_sqrt2_parts_takes_the_full_gcd(left, right, text):
    x, y = parse_expr(left), parse_expr(right)
    assert x._p[1] and y._p[1]
    got = x * y
    assert str(got) == text
    _check_canonical(got, _full_gcd("*", x, y))
    _check_canonical(got, parse_expr(text))


def test_a_sum_or_product_moves_to_the_ring_of_its_parameters():
    x, y, s = (Scalar.param(name) for name in "xys")
    assert (x + y) + (-x) == y
    assert ((x + y) + (-x)).free_params() == {"y"}
    assert x / y * (y / x) == ONE
    assert (x / y * (y / x)).is_constant()
    assert ((x + s) - x)._q is None and str((x + s) - x) == "s"


def _sum_of_terms(draw, names):
    total = ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = Scalar.from_int(draw(st.integers(-4, 4)))
        for name in names:
            term = term * Scalar.param(name) ** draw(st.integers(0, 2))
        total = total + term
    return total


OPERAND_KINDS = ("rational", "q_sqrt2", "parametric", "sqrt2_parametric")


def _numerator(draw, kind):
    if kind == "rational":
        return Scalar.from_int(draw(st.integers(-9, 9)))
    if kind == "q_sqrt2":
        return draw(st.integers(-9, 9)) + draw(st.integers(-9, 9)) * Scalar.param("s")
    return _sum_of_terms(draw, ("x", "y", "s") if kind == "sqrt2_parametric" else ("x", "y"))


def _denominator(draw, kind):
    if kind in ("rational", "q_sqrt2"):
        return Scalar.from_int(draw(st.integers(1, 6)))
    den = _sum_of_terms(draw, ("x", "y"))
    assume(not den.is_zero())
    return den


@st.composite
def operand_pairs(draw):
    """Two reduced operands of any kind whose denominators are equal, share
    a drawn factor, or are drawn apart (and then mostly coprime).  Or the
    second is z - x or z/x for a drawn z, so that x + y or x*y cancels
    down to z."""
    kinds = [draw(st.sampled_from(OPERAND_KINDS)) for _ in range(2)]
    dens = [_denominator(draw, kind) for kind in kinds]
    mode = draw(st.sampled_from(("equal", "shared", "apart", "difference", "quotient")))
    if mode == "equal":
        dens[1] = dens[0]
    elif mode == "shared":
        k = Scalar.from_int(draw(st.integers(1, 6)))
        factor = k * _sum_of_terms(draw, ("x", "y"))
        assume(not factor.is_zero())
        dens = [d * (k if kind in ("rational", "q_sqrt2") else factor)
                for d, kind in zip(dens, kinds)]
    x, z = (_numerator(draw, kind) / d for kind, d in zip(kinds, dens))
    if mode == "difference":
        return x, z - x
    if mode == "quotient" and x:
        return x, z / x
    return x, z


@given(st.sampled_from("+-*/"), operand_pairs())
@settings(max_examples=400, deadline=None)
def test_sums_and_products_match_the_full_gcd_reference(symbol, pair):
    x, y = pair
    assume(symbol != "/" or y)
    _check_canonical(OPERATORS[symbol][0](x, y), _full_gcd(symbol, x, y))


@given(operand_pairs(), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_powers_match_the_full_gcd_reference(pair, e):
    x = pair[0]
    assume(x or e >= 0)
    _check_canonical(x**e, _full_gcd("**", x, e))


# ---------------------------------------------------------------- ring moves

MOVE_NAMES = ("a", "lambda", "m", "psi11", "psi12", "psi2", "x", "y")


@st.composite
def polys_over_names(draw):
    """A polynomial over the ring of a sorted subset of MOVE_NAMES."""
    names = tuple(sorted(draw(st.sets(st.sampled_from(MOVE_NAMES), min_size=1))))
    R = ring_for(names)
    monoms = st.tuples(*[st.integers(0, 3)] * len(names))
    terms = draw(st.dictionaries(monoms, st.integers(-9, 9).filter(bool), max_size=5))
    return R.poly(terms)


def _check_move(move, p, R):
    got = move(p, R)
    assert got.ring is R
    assert dict(got) == dict(to_sympy(p).set_ring(sympy_ring(R._scalar_names)))


@given(polys_over_names(), st.sets(st.sampled_from(MOVE_NAMES)))
@settings(max_examples=200, deadline=None)
def test_a_ring_move_matches_sympy(p, extra):
    names = p.ring._scalar_names
    occurring = tuple(n for i, n in enumerate(names) if any(m[i] for m in p))
    for target in (tuple(sorted(set(names) | extra)), occurring, names):
        _check_move(_move, p, ring_for(target))


def _move_by_position(p, R):
    # wrong on purpose: the i-th exponent goes to R's i-th name, whatever its name
    n = len(R._scalar_names)
    return R.poly({(m + (0,) * n)[:n]: c for m, c in p.items()})


def test_a_move_by_position_fails_the_check():
    p = ring_for(("psi12",)).gens[0]
    R = ring_for(("lambda", "psi12"))
    _check_move(_move, p, R)
    with pytest.raises(AssertionError):
        _check_move(_move_by_position, p, R)


def test_a_validate_pass_divides_little(monkeypatch, full_validation):
    # a work count of one warmed self_validate pass: the gcds' cofactors
    # stand in for exact divisions
    calls = 0
    exquo = Poly.exquo

    def counted(*args):
        nonlocal calls
        calls += 1
        return exquo(*args)

    monkeypatch.setattr(Poly, "exquo", counted)
    catalog.self_validate()
    assert calls < 300
