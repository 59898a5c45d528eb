"""Exact rational-function arithmetic in named parameters.

A Scalar is a quotient of two integer-coefficient polynomials in a finite
set of named parameters, held in a canonical reduced form:

* gcd(numerator, denominator) = 1 (including integer content),
* the denominator's leading coefficient under graded-lex order is positive,
* zero is 0/1,
* the underlying polynomial ring mentions exactly the parameters that occur.

The name ``s`` is reserved: it stands for the square root of two.  Every
result is reduced via s^2 -> 2, and denominators are rationalized so they
never contain ``s``.  Because of that, ``s`` cannot be bound to a value.

A value free of parameters other than ``s`` is a constant (a + b*s)/d of
Q(sqrt 2), and it is stored as Python ints, never as polynomials: a
rational constant (b = 0) as numerator and denominator in lowest terms with
a positive denominator, any other as the triple (a, b, d) with
gcd(a, b, d) = 1 and d > 0.  Their ``+``, ``-``, ``*`` and ``/`` with
another constant use ints and ``math.gcd``; dividing by a + b*s multiplies
by its conjugate, 1/(a + b*s) = (a - b*s)/(a^2 - 2 b^2).  An operation
with a parametric value puts the constant into that value's polynomial
ring, joined with ``s`` when the constant has it.

Equality, hashing and ``is_zero`` are therefore decidable by direct
comparison of the stored ints or polynomials.  A rational constant hashes
as the equal ``int`` or ``Fraction`` does.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

from sympy.polys.domains import ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring as _sympy_ring

SQRT2_NAME = "s"

ScalarLike = Union["Scalar", int, Fraction, str]


@lru_cache(maxsize=None)
def _ring_for(names: tuple[str, ...]):
    """Polynomial ring ZZ[names] with graded-lex order; names must be sorted."""
    R = _sympy_ring(",".join(names), ZZ, grlex)[0]
    R._scalar_names = names
    R._scalar_gen_index = {n: i for i, n in enumerate(names)}
    return R


_R0 = _ring_for(())
_RS = _ring_for((SQRT2_NAME,))


def _fold_sqrt2(p, R):
    # reduce every monomial's s-exponent below 2 using s^2 = 2
    idx = R._scalar_gen_index.get(SQRT2_NAME)
    if idx is None:
        return p
    if all(m[idx] < 2 for m, _ in p.terms()):
        return p
    acc: dict[tuple, int] = {}
    for monom, coeff in p.terms():
        e = monom[idx]
        if e >= 2:
            coeff = coeff * (2 ** (e // 2))
            monom = monom[:idx] + (e % 2,) + monom[idx + 1 :]
        acc[monom] = acc.get(monom, 0) + coeff
    return R.from_dict({m: c for m, c in acc.items() if c})


def _split_sqrt2(p, R):
    # p = A + s*B with A, B free of s; requires folded input
    idx = R._scalar_gen_index[SQRT2_NAME]
    a: dict[tuple, int] = {}
    b: dict[tuple, int] = {}
    for monom, coeff in p.terms():
        if monom[idx]:
            b[monom[:idx] + (0,) + monom[idx + 1 :]] = coeff
        else:
            a[monom] = coeff
    return R.from_dict(a), R.from_dict(b)


def _shrink(num, den, R):
    # move to the ring of exactly the occurring parameters
    names = R._scalar_names
    used = set()
    for poly in (num, den):
        for monom, _ in poly.terms():
            for i, e in enumerate(monom):
                if e:
                    used.add(i)
    if len(used) == len(names):
        return num, den, R
    kept = tuple(names[i] for i in sorted(used))
    target = _ring_for(kept)
    return num.set_ring(target), den.set_ring(target), target


def _canonical(num, den, R) -> "Scalar":
    num = _fold_sqrt2(num, R)
    den = _fold_sqrt2(den, R)
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return ZERO
    if SQRT2_NAME in R._scalar_gen_index:
        a, b = _split_sqrt2(den, R)
        if b:
            conj = a - R.gens[R._scalar_gen_index[SQRT2_NAME]] * b
            num = _fold_sqrt2(num * conj, R)
            den = _fold_sqrt2(den * conj, R)
    g = num.gcd(den)
    if g != 1:
        num = num.exquo(g)
        den = den.exquo(g)
    if den.LC < 0:
        num, den = -num, -den
    num, den, R = _shrink(num, den, R)
    if R is _R0:
        return Scalar._const(int(num[()]), int(den[()]))
    if R is _RS:
        # (a + b*s)/d, b != 0: s occurs, and never in a denominator
        return Scalar._const2(int(num.get((0,), 0)), int(num[(1,)]), int(den[(0,)]))
    return Scalar._poly(num, den)


def _rational(n: int, d: int) -> "Scalar":
    # n/d (d != 0) reduced to lowest terms with a positive denominator
    if not n:
        return ZERO
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    return Scalar._const(n, d)


def _quadratic(a: int, b: int, d: int) -> "Scalar":
    # (a + b*s)/d (d != 0) with gcd(a, b, d) = 1 and d > 0; b = 0 is rational
    if not b:
        return _rational(a, d)
    g = math.gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        d //= g
    return Scalar._const2(a, b, d)


def _parts(x: "Scalar") -> tuple[int, int, int]:
    # (a, b, d) of a constant x = (a + b*s)/d
    return (x._n, 0, x._d) if x._p is None else x._p


def _pow_sqrt2(a: int, b: int, e: int) -> tuple[int, int]:
    # (a + b*s)^e = ra + rb*s for e >= 0, by repeated squaring
    ra, rb = 1, 0
    while e:
        if e & 1:
            ra, rb = ra * a + 2 * rb * b, ra * b + rb * a
        e >>= 1
        if e:
            a, b = a * a + 2 * b * b, 2 * a * b
    return ra, rb


def _ring_of(x: "Scalar"):
    # the ring of exactly the parameters (and s) that occur in x
    if x._q is not None:
        return x._p.ring
    return _R0 if x._p is None else _RS


def _in_ring(x: "Scalar", R):
    # numerator and denominator of x as polynomials over R
    if x._p is None:
        return R.ground_new(x._n), R.ground_new(x._d)
    if x._q is None:
        a, b, d = x._p
        return R.ground_new(a) + R.gens[R._scalar_gen_index[SQRT2_NAME]] * b, R.ground_new(d)
    if x._p.ring is R:
        return x._p, x._q
    return x._p.set_ring(R), x._q.set_ring(R)


def _unify(a: "Scalar", b: "Scalar"):
    # a and b over one ring; at least one of them is parametric
    Ra, Rb = _ring_of(a), _ring_of(b)
    if Rb is Ra or Rb is _R0:
        R = Ra
    elif Ra is _R0:
        R = Rb
    else:
        R = _ring_for(tuple(sorted(set(Ra._scalar_names) | set(Rb._scalar_names))))
    return (*_in_ring(a, R), *_in_ring(b, R), R)


class Scalar:
    """Immutable exact rational function; see module docstring.

    A rational constant is the ints ``_n``/``_d`` with ``_p is None``.  A
    constant (a + b*s)/d with b != 0 is the int triple ``_p = (a, b, d)``
    with ``_n``, ``_d`` and ``_q`` None.  Any other value is the polynomials
    ``_p``/``_q`` with ``_n`` and ``_d`` None.  So ``_p is None`` tells a
    rational constant and ``_q is None`` a constant of Q(sqrt 2).
    """

    __slots__ = ("_n", "_d", "_p", "_q", "_hash")

    @classmethod
    def _const(cls, n: int, d: int) -> "Scalar":
        self = object.__new__(cls)
        self._n = n
        self._d = d
        self._p = self._q = None
        self._hash = None
        return self

    @classmethod
    def _const2(cls, a: int, b: int, d: int) -> "Scalar":
        self = object.__new__(cls)
        self._n = self._d = self._q = None
        self._p = (a, b, d)
        self._hash = None
        return self

    @classmethod
    def _poly(cls, num, den) -> "Scalar":
        self = object.__new__(cls)
        self._n = self._d = None
        self._p = num
        self._q = den
        self._hash = None
        return self

    @classmethod
    def from_int(cls, value: int) -> "Scalar":
        return _rational(value, 1)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Scalar":
        value = Fraction(value)
        return _rational(value.numerator, value.denominator)

    @classmethod
    def param(cls, name: str) -> "Scalar":
        if not name.isidentifier():
            raise ValueError(f"not a valid parameter name: {name!r}")
        if name == SQRT2_NAME:
            return _SQRT2
        R = _ring_for((name,))
        return cls._poly(R.gens[0], R.one)

    @classmethod
    def sqrt2(cls) -> "Scalar":
        return _SQRT2

    # -- inspection ----------------------------------------------------

    @property
    def _num(self):
        """Numerator polynomial; built over ZZ or ZZ[s] for a constant."""
        if self._p is None:
            return _R0.ground_new(self._n)
        return _in_ring(self, _RS)[0] if self._q is None else self._p

    @property
    def _den(self):
        """Denominator polynomial; built over ZZ or ZZ[s] for a constant."""
        if self._p is None:
            return _R0.ground_new(self._d)
        return _RS.ground_new(self._p[2]) if self._q is None else self._q

    def is_zero(self) -> bool:
        return self._n == 0

    def is_one(self) -> bool:
        return self._n == 1 and self._d == 1

    def is_constant(self) -> bool:
        """True when no parameter occurs (the reserved ``s`` counts as one)."""
        return self._p is None

    def free_params(self) -> frozenset[str]:
        """Bindable parameter names occurring in this value (``s`` excluded)."""
        if self._q is None:
            return frozenset()
        return frozenset(n for n in self._p.ring._scalar_names if n != SQRT2_NAME)

    def as_fraction(self) -> Fraction:
        if self._p is not None:
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(self._n, self._d)

    def sign(self) -> int:
        """-1, 0 or 1 for a constant a + b*sqrt(2); parameters raise ValueError.

        A constant's denominator is a positive integer (denominators are
        rationalized and carry a positive leading coefficient), so the sign
        is the numerator's.  For rational a, b of opposite signs it is the
        sign of the term with the larger square, a^2 against 2 b^2; these
        never tie because sqrt(2) is irrational.
        """
        if self._p is None:
            return (self._n > 0) - (self._n < 0)
        if self._q is not None:
            raise ValueError(f"sign of a parametric value: {self}")
        a, b, _ = self._p
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa * sb >= 0:
            return sa or sb
        return sa if a * a > 2 * b * b else sb

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        if self._n == 0:
            return other
        if other._n == 0:
            return self
        if self._p is None and other._p is None:
            return _rational(self._n * other._d + other._n * self._d, self._d * other._d)
        if self._q is None and other._q is None:
            a1, b1, d1 = _parts(self)
            a2, b2, d2 = _parts(other)
            return _quadratic(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
        n1, d1, n2, d2, R = _unify(self, other)
        return _canonical(n1 * d2 + n2 * d1, d1 * d2, R)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        if other._n == 0:
            return self
        if self._p is None and other._p is None:
            return _rational(self._n * other._d - other._n * self._d, self._d * other._d)
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return as_scalar(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        if self._n == 0 or other._n == 0:
            return ZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        if self._p is None and other._p is None:
            return _rational(self._n * other._n, self._d * other._d)
        if self._q is None and other._q is None:
            a1, b1, d1 = _parts(self)
            a2, b2, d2 = _parts(other)
            return _quadratic(a1 * a2 + 2 * b1 * b2, a1 * b2 + a2 * b1, d1 * d2)
        n1, d1, n2, d2, R = _unify(self, other)
        return _canonical(n1 * n2, d1 * d2, R)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        if other._n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        if other.is_one():
            return self
        if self._n == 0:
            return ZERO
        if self._p is None and other._p is None:
            return _rational(self._n * other._d, self._d * other._n)
        if self._q is None and other._q is None:
            # times the conjugate a2 - b2*s over the norm a2^2 - 2 b2^2 != 0
            a1, b1, d1 = _parts(self)
            a2, b2, d2 = _parts(other)
            return _quadratic((a1 * a2 - 2 * b1 * b2) * d2, (a2 * b1 - a1 * b2) * d2,
                              (a2 * a2 - 2 * b2 * b2) * d1)
        n1, d1, n2, d2, R = _unify(self, other)
        return _canonical(n1 * d2, d1 * n2, R)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return as_scalar(other) / self

    def __neg__(self) -> "Scalar":
        if self._p is None:
            return Scalar._const(-self._n, self._d) if self._n else ZERO
        if self._q is None:
            a, b, d = self._p
            return Scalar._const2(-a, -b, d)
        return Scalar._poly(-self._p, self._q)

    def __pos__(self) -> "Scalar":
        return self

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        if exponent == 0:
            return ONE
        if exponent == 1:
            return self
        if self._p is None:
            # powers of coprime ints stay coprime, and d > 0
            return Scalar._const(self._n**exponent, self._d**exponent)
        if self._q is None:
            a, b, d = self._p
            return _quadratic(*_pow_sqrt2(a, b, exponent), d**exponent)
        return _canonical(self._p**exponent, self._q**exponent, self._p.ring)

    # -- substitution and evaluation ------------------------------------

    def substitute(self, binding: "ParamBinding | Mapping") -> "Scalar":
        """Exact substitution of rational values; unbound parameters stay."""
        binding = ParamBinding.coerce(binding)
        if self._q is None:
            return self
        names = self._p.ring._scalar_names
        relevant = {n: binding[n] for n in names if n in binding}
        if not relevant:
            return self
        num, num_d = _substitute_poly(self._p, relevant)
        den, den_d = _substitute_poly(self._q, relevant)
        if not den:
            raise ZeroDivisionError(
                f"denominator {_poly_text(self._q)} vanishes under binding"
            )
        kept = tuple(n for n in names if n not in relevant)
        if not kept:
            return _rational(num.get((), 0) * den_d, den[()] * num_d)
        if kept == (SQRT2_NAME,):
            # (a + b*s)/d: a denominator never contains s
            return _quadratic(num.get((0,), 0) * den_d, num.get((1,), 0) * den_d,
                              den[(0,)] * num_d)
        R = _ring_for(kept)
        return _canonical(R.from_dict(num) * den_d, R.from_dict(den) * num_d, R)

    def evaluate(self, binding: "ParamBinding | Mapping | None" = None) -> float:
        """Float value; every parameter must be bound (``s`` is sqrt(2))."""
        if self._p is None:
            return self._n / self._d
        if self._q is None:
            # int true division: an int beyond the float range cannot overflow
            a, b, d = self._p
            return a / d + (b / d) * math.sqrt(2.0)
        binding = ParamBinding.coerce(binding or {})
        missing = self.free_params() - set(binding)
        if missing:
            raise ValueError(f"unbound parameters: {sorted(missing)}")
        values = {n: float(binding[n]) for n in binding}
        values[SQRT2_NAME] = math.sqrt(2.0)
        num = _eval_poly(self._p, values)
        den = _eval_poly(self._q, values)
        if den == 0.0:
            raise ZeroDivisionError("denominator vanishes under binding")
        return num / den

    def __float__(self) -> float:
        return self.evaluate({})

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        # a str is not parsed here: it could never hash as the Scalar it names;
        # a bool is no Scalar value (see as_scalar), so it compares unequal
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = as_scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self._p is None or other._p is None:
            return self._p is other._p and self._n == other._n and self._d == other._d
        if self._q is None or other._q is None:
            return self._q is other._q and self._p == other._p
        return (self._p.ring is other._p.ring
                and self._p == other._p and self._q == other._q)

    def __hash__(self) -> int:
        if self._hash is None:
            if self._p is None:
                # equal to an int or Fraction, so it must hash as one
                self._hash = hash(self._n if self._d == 1 else Fraction(self._n, self._d))
            elif self._q is None:
                self._hash = hash(self._p)
            else:
                self._hash = hash((
                    self._p.ring._scalar_names,
                    tuple((m, int(c)) for m, c in self._p.terms()),
                    tuple((m, int(c)) for m, c in self._q.terms()),
                ))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if self._p is None:
            return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"
        if self._q is None:
            # as the polynomial (b*s + a)/d prints
            a, b, d = self._p
            num = ("-" if b < 0 else "") + ("s" if abs(b) == 1 else f"{abs(b)}*s")
            if a:
                num += f" + {a}" if a > 0 else f" - {-a}"
                if d != 1:
                    num = f"({num})"
            return num if d == 1 else f"{num}/{d}"
        num = _poly_text(self._p)
        if self._q == 1:
            return num
        if len(self._p) > 1:
            num = f"({num})"
        den = _poly_text(self._q)
        if not _atomic_denominator(self._q):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"


ZERO = Scalar._const(0, 1)
ONE = Scalar._const(1, 1)
_SQRT2 = Scalar._const2(0, 1, 1)


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce an int, Fraction, expression string, or Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a Scalar value")
    if isinstance(value, int):
        return Scalar.from_int(value)
    if isinstance(value, Fraction):
        return Scalar.from_fraction(value)
    if isinstance(value, str):
        return parse_expr(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as Scalar")


def _substitute_poly(p, bind: dict[str, Fraction]):
    """Put the rationals of ``bind`` into p.

    Returns (integer coefficients by monomial in the unbound parameters,
    common denominator).  Each bound value a/b is scaled by b to the
    parameter's top degree in p, so every coefficient is an int.
    """
    names = p.ring._scalar_names
    bound = [(i, bind[n].numerator, bind[n].denominator)
             for i, n in enumerate(names) if n in bind]
    kept_pos = [i for i, n in enumerate(names) if n not in bind]
    top = {i: max(m[i] for m in p.itermonoms()) for i, _, _ in bound}
    acc: dict[tuple, int] = {}
    for monom, coeff in p.terms():
        c = int(coeff)
        for i, a, b in bound:
            e = monom[i]
            c *= a**e * b ** (top[i] - e)
        key = tuple(monom[i] for i in kept_pos)
        acc[key] = acc.get(key, 0) + c
    common = math.prod(b ** top[i] for i, _, b in bound)
    return {m: c for m, c in acc.items() if c}, common


def _eval_poly(p, values: dict[str, float]) -> float:
    names = p.ring._scalar_names
    total = 0.0
    for monom, coeff in p.terms():
        term = float(int(coeff))
        for i, e in enumerate(monom):
            if e:
                term *= values[names[i]] ** e
        total += term
    return total


# -- binding ------------------------------------------------------------


class ParamBinding(Mapping):
    """Parameter values, held as exact rationals; floats are rejected."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Fraction | int | str]):
        norm: dict[str, Fraction] = {}
        for name, value in values.items():
            if name == SQRT2_NAME:
                raise ValueError(f"{SQRT2_NAME!r} is reserved for sqrt(2)")
            if not name.isidentifier():
                raise ValueError(f"not a valid parameter name: {name!r}")
            if isinstance(value, float):
                raise TypeError(
                    f"{name}={value!r}: parameter values must be exact rational,"
                    " not float")
            norm[name] = Fraction(value)
        self._values = norm

    @classmethod
    def coerce(cls, value: "ParamBinding | Mapping") -> "ParamBinding":
        if isinstance(value, ParamBinding):
            return value
        return cls(value)

    def __getitem__(self, name: str):
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._values.items())
        return f"ParamBinding({inner})"


# -- printing helpers -----------------------------------------------------


def _monomial_factors(monom, names) -> list[str]:
    return [
        f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(monom) if e
    ]


def _poly_text(p) -> str:
    if not p:
        return "0"
    names = p.ring._scalar_names
    pieces: list[str] = []
    for k, (monom, coeff) in enumerate(p.terms()):
        c = int(coeff)
        factors = _monomial_factors(monom, names)
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if k == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


def _atomic_denominator(p) -> bool:
    # safe to print unparenthesized after '/': a bare uint or a single power
    if len(p) != 1:
        return False
    (monom, coeff), = p.terms()
    if not any(monom):
        return int(coeff) > 0
    return int(coeff) == 1 and sum(1 for e in monom if e) == 1


# -- parser ---------------------------------------------------------------


class ScalarSyntaxError(ValueError):
    """Malformed expression text; ``position`` is a 0-based character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_MAX_EXPONENT = 2**31


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def next_token(self) -> tuple[str, str, int]:
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1
        if self.pos >= n:
            return ("end", "", self.pos)
        start = self.pos
        ch = text[start]
        if ch.isdigit():
            while self.pos < n and text[self.pos].isdigit():
                self.pos += 1
            return ("int", text[start : self.pos], start)
        if ch.isalpha() or ch == "_":
            while self.pos < n and (text[self.pos].isalnum() or text[self.pos] == "_"):
                self.pos += 1
            return ("ident", text[start : self.pos], start)
        if ch in "+-*/^()":
            self.pos += 1
            return (ch, ch, start)
        raise ScalarSyntaxError(f"unexpected character {ch!r}", start)


class _Parser:
    """Recursive descent for:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' uint)?
    atom   := rational | ident | '(' expr ')'
    rational := int ('/' uint)?
    """

    def __init__(self, text: str):
        self._tokens: list[tuple[str, str, int]] = []
        tok = _Tokenizer(text)
        while True:
            t = tok.next_token()
            self._tokens.append(t)
            if t[0] == "end":
                break
        self._i = 0

    def _peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self._tokens[min(self._i + ahead, len(self._tokens) - 1)]

    def _advance(self) -> tuple[str, str, int]:
        t = self._tokens[self._i]
        if t[0] != "end":
            self._i += 1
        return t

    def parse(self) -> Scalar:
        value = self._expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ScalarSyntaxError(f"unexpected {text!r}", pos)
        return value

    def _expr(self) -> Scalar:
        value = self._term()
        while self._peek()[0] in ("+", "-"):
            op = self._advance()[0]
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Scalar:
        value = self._factor()
        while self._peek()[0] in ("*", "/"):
            op, _, pos = self._advance()
            rhs = self._factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ZeroDivisionError(
                        f"division by the zero polynomial (at position {pos})"
                    )
                value = value / rhs
        return value

    def _factor(self) -> Scalar:
        negate = False
        if self._peek()[0] == "-":
            self._advance()
            negate = True
        value = self._atom()
        if self._peek()[0] == "^":
            self._advance()
            kind, text, pos = self._advance()
            if kind != "int":
                raise ScalarSyntaxError("exponent must be a nonnegative integer", pos)
            exponent = int(text)
            if exponent > _MAX_EXPONENT:
                raise ScalarSyntaxError("exponent too large", pos)
            value = value**exponent
        return -value if negate else value

    def _atom(self) -> Scalar:
        kind, text, pos = self._advance()
        if kind == "int":
            numerator = int(text)
            # rational literal: int '/' uint, bound more tightly than term division
            if self._peek()[0] == "/" and self._peek(1)[0] == "int":
                self._advance()
                _, dtext, dpos = self._advance()
                denominator = int(dtext)
                if denominator == 0:
                    raise ZeroDivisionError(
                        f"division by zero in rational literal (at position {dpos})"
                    )
                return Scalar.from_fraction(Fraction(numerator, denominator))
            return Scalar.from_int(numerator)
        if kind == "ident":
            return Scalar.param(text)
        if kind == "(":
            value = self._expr()
            kind2, _, pos2 = self._advance()
            if kind2 != ")":
                raise ScalarSyntaxError("expected ')'", pos2)
            return value
        if kind == "end":
            raise ScalarSyntaxError("unexpected end of input", pos)
        raise ScalarSyntaxError(f"unexpected {text!r}", pos)


def parse_expr(text: str) -> Scalar:
    """Parse an expression string into a canonical Scalar."""
    try:
        return _Parser(text).parse()
    except ScalarSyntaxError as exc:
        exc.args = (f"{exc.args[0]} in {text!r}",)
        raise
