"""Exact rational-function arithmetic in named parameters.

A Scalar is an element of Q(params)(sqrt 2): a quotient of two
integer-coefficient polynomials in a finite set of named parameters,
together with a sqrt(2) part.  The name ``s`` is reserved: it stands for
the square root of two, so it cannot be bound to a value.

A rational constant is stored as Python ints, numerator and denominator in
lowest terms with a positive denominator.  Every other value is the triple
(a, b, d), meaning (a + b*s)/d, with a, b and d free of ``s``:

* gcd(a, b, d) = 1 (including integer content),
* d's leading coefficient under graded-lex order is positive,
* b is the int 0 when there is no sqrt(2) part,
* the parts are ints for a constant of Q(sqrt 2), and otherwise
  polynomials over the ring of exactly the parameters that occur.

The field has degree 2 over Q(params), so one set of formulas serves
constants and parametric values alike: dividing by a + b*s multiplies by
its conjugate, 1/(a + b*s) = (a - b*s)/(a^2 - 2 b^2).  Since d never
contains ``s``, a common factor of a + b*s and d is free of ``s``, and the
printed numerator a + b*s and denominator d are coprime.

``_reduce`` divides out the full gcd(a, b, d); ``/`` and ``substitute``
call it.  ``+`` and ``*`` of parametric values follow
Henrici's rule (Knuth, TAOCP vol. 2, 4.5.1) and take a gcd only where a
factor can cancel: a sum over g = gcd(d1, d2) divides out gcd(a, b, g), and
a product cancels each numerator against the other denominator before it
multiplies.  A product of two values that both have an sqrt(2) part takes
the full gcd: ZZ[params][s] has no unique factorization over the primes of
ZZ[params], so (x + s)/(x^2 - 2) * (x - s) = 1 cancels a factor that
neither operand shares with the other's denominator.

The parts are the sparse integer polynomials of ``poly``.  Every gcd is
taken with its ``cofactors``, which returns h = gcd(f, g) together with f/h
and g/h (the heuristic gcd GCDHEU computes them on the way), so a reduction
multiplies cofactors where it would otherwise divide by h.  A value moves
between parameter rings by name: each name of the target ring takes its
index in the source ring, or a 0 exponent where the source lacks it, in one
pass over the monomials.

Equality, hashing and ``is_zero`` are therefore decidable by direct
comparison of the stored ints or polynomials.  A rational constant hashes
as the equal ``int`` or ``Fraction`` does.

``parse_expr`` is the one reader of expression text: catalog files,
bindings and input files.  It is a recursive-descent parser that scans each
token as it takes the one before, and it refuses, with a positioned
``ScalarSyntaxError``, text that is malformed or that would build a value
past its bounds on terms, degree and coefficient size (see ``_Parser``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterator, Union

from .poly import ring_for

SQRT2_NAME = "s"

ScalarLike = Union["Scalar", int, Fraction, str]


_R0 = ring_for(())
_RS = ring_for((SQRT2_NAME,))


def _ground(p) -> int:
    # the int value of a constant polynomial, or of the int 0
    return p.LC if p else 0


def _reduce(a, b, d, R) -> "Scalar":
    """The canonical Scalar (a + b*s)/d, for d != 0.

    The parts are ints when R is None.  Otherwise a and d are polynomials
    over R, and b is one too or the int 0.
    """
    if R is None:
        return _quadratic(a, b, d)
    if not (a or b):
        return ZERO
    return _finish(*_lowest(a, b, d, d), R)


def _lowest(a, b, d, g) -> tuple:
    # (a, b, d) over h = gcd(g, a, b), for g a divisor of d: every factor that
    # can cancel must divide g.  The gcds' cofactors are the quotients:
    # g = h*cg and a = h*ca, and a second gcd h = h2*ch, b = h2*cb gives
    # a/h2 = ca*ch and g/h2 = cg*ch
    if g == 1:
        return a, b, d
    h, cg, ca = g.cofactors(a)
    if b and h != 1:
        h, ch, cb = h.cofactors(b)
        if h != 1:
            b, ca, cg = cb, ca * ch, cg * ch
    if h == 1:
        return a, b, d
    return ca, b, cg if g is d else d.exquo(h)


def _finish(a, b, d, R) -> "Scalar":
    # the Scalar (a + b*s)/d, for gcd(a, b, d) = 1: d's leading coefficient
    # made positive, and the parts moved to the ring of exactly the
    # occurring parameters
    if d.LC < 0:
        a, b, d = -a, -b, -d
    names = R._scalar_names
    missing = _missing((d, a, b), len(names))
    if len(missing) == len(names):
        return _quadratic(_ground(a), _ground(b), _ground(d))
    if missing:
        R = ring_for(tuple(n for i, n in enumerate(names) if i not in missing))
        a, b, d = _move(a, R), b and _move(b, R), _move(d, R)
    return Scalar._new(a, b or 0, d, R)


def _missing(parts, n: int) -> list[int]:
    # the indices of the n variables that occur in none of the parts (which
    # may be the int 0); the walk stops once every variable has been seen
    missing = range(n)
    for p in parts:
        for m in p or ():
            missing = [i for i in missing if not m[i]]
            if not missing:
                return missing
    return list(missing)


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
    return Scalar._new(a, b, d, None)


def _parts(x: "Scalar", R) -> tuple:
    # (a, b, d) of x = (a + b*s)/d, as ints when R is None and otherwise as
    # polynomials over R (b may be the int 0)
    if x._p is None:
        return (x._n, 0, x._d) if R is None else (R.ground(x._n), 0, R.ground(x._d))
    if x._q is R:
        return x._p
    a, b, d = x._p
    if x._q is None:
        return R.ground(a), R.ground(b), R.ground(d)
    return _move(a, R), b and _move(b, R), _move(d, R)


def _move(p, R):
    # p over R, whose names include every name that occurs in p: each of R's
    # names takes its index in p's ring, or a 0 exponent where p's ring lacks
    # it, in one pass over p's monomials
    index = p.ring._scalar_gen_index
    at = [index.get(name) for name in R._scalar_names]
    return R.poly({tuple([0 if i is None else m[i] for i in at]): c for m, c in p.items()})


def _unify(x: "Scalar", y: "Scalar"):
    # the parts of x and y over one ring, which is None when both are constants
    Rx, Ry = x._q, y._q
    if Rx is Ry or Ry is None:
        R = Rx
    elif Rx is None:
        R = Ry
    else:
        R = ring_for(tuple(sorted(set(Rx._scalar_names) | set(Ry._scalar_names))))
    return _parts(x, R), _parts(y, R), R


def _times(a1, b1, a2, b2) -> tuple:
    # (a1 + b1*s)(a2 + b2*s) = a + b*s, with b the int 0 when b1 and b2 are
    if not (b1 or b2):
        return a1 * a2, 0
    return a1 * a2 + 2 * b1 * b2, a1 * b2 + a2 * b1


class Scalar:
    """Immutable exact value of Q(params)(sqrt 2); see module docstring.

    A rational constant is the ints ``_n``/``_d`` with ``_p is None``.  Any
    other value is the triple ``_p = (a, b, d)`` with ``_n`` and ``_d``
    None, and ``_q`` is the polynomial ring of its parameters, or None for
    a constant of Q(sqrt 2), whose parts are ints.
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
    def _new(cls, a, b, d, ring) -> "Scalar":
        self = object.__new__(cls)
        self._n = self._d = None
        self._p = (a, b, d)
        self._q = ring
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
        R = ring_for((name,))
        return cls._new(R.gens[0], 0, R.one, R)

    # -- inspection ----------------------------------------------------

    @property
    def _num(self):
        """Numerator polynomial a + b*s; over ZZ[s] and the parameters when b != 0."""
        if self._p is None:
            return _R0.ground(self._n)
        a, b, _ = self._p
        R = self._q
        if not b:
            return a
        if R is None:
            return _RS.ground(a) + _RS.gens[0] * b
        S = ring_for(tuple(sorted((*R._scalar_names, SQRT2_NAME))))
        return _move(a, S) + S.gens[S._scalar_gen_index[SQRT2_NAME]] * _move(b, S)

    @property
    def _den(self):
        """Denominator polynomial d; built over ZZ for a constant."""
        if self._p is None:
            return _R0.ground(self._d)
        return _R0.ground(self._p[2]) if self._q is None else self._p[2]

    def is_zero(self) -> bool:
        return self._n == 0

    def is_one(self) -> bool:
        return self._n == 1 and self._d == 1

    def is_constant(self) -> bool:
        """True when no parameter occurs (the reserved ``s`` counts as one)."""
        return self._p is None

    def quadratic_parts(self) -> tuple[int, int, int]:
        """The ints (a, b, d) of a constant (a + b*sqrt(2))/d, with d > 0;
        parameters raise ValueError."""
        if self._q is not None:
            raise ValueError(f"unbound parameters: {sorted(self.free_params())}")
        return (self._n, 0, self._d) if self._p is None else self._p

    def free_params(self) -> frozenset[str]:
        """Bindable parameter names occurring in this value (``s`` excluded)."""
        return frozenset() if self._q is None else frozenset(self._q._scalar_names)

    def primitive_numerator(self) -> "Scalar":
        """The numerator a + b*s over its integer content, with a positive
        leading coefficient: nonzero values vanish exactly where it does.
        A numerator b*s gives b's primitive part, since s is a unit."""
        R = self._q
        a, b, _ = _parts(self, R)
        if b and not a:
            return _reduce(b, 0, R.one if R else 1, R).primitive_numerator()
        num = self._num
        c = num.content()
        if num.LC < 0:
            c = -c
        return _reduce(a, b, R.ground(c) if R else c, R)

    def sign(self) -> int:
        """-1, 0 or 1 for a constant a + b*sqrt(2); parameters raise ValueError.

        A constant's denominator is a positive integer (denominators are
        free of sqrt(2) and carry a positive leading coefficient), so the
        sign is the numerator's.  For rational a, b of opposite signs it is
        the sign of the term with the larger square, a^2 against 2 b^2; these
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
        (a1, b1, d1), (a2, b2, d2), R = _unify(self, other)
        if R is None:
            b = b1 * d2 + b2 * d1 if b1 or b2 else 0
            return _reduce(a1 * d2 + a2 * d1, b, d1 * d2, R)
        # Henrici: with g = gcd(d1, d2), a prime of ZZ[params] dividing d and
        # both parts of the numerator divides g, or else it would divide all
        # three parts of one reduced operand
        if d1 == d2:
            g, a, b, d = d1, a1 + a2, b1 + b2, d1
        else:
            g, e1, e2 = d1.cofactors(d2)
            a, d = a1 * e2 + a2 * e1, d1 * e2
            b = b1 * e2 + b2 * e1 if b1 or b2 else 0
        if not (a or b):
            return ZERO
        return _finish(*_lowest(a, b, d, g), R)

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
        (a1, b1, d1), (a2, b2, d2), R = _unify(self, other)
        if R is None or (b1 and b2):
            # ZZ[params][s] has no unique factorization over the primes of
            # ZZ[params]: (x + s)(x - s) = x^2 - 2 shares a factor with a
            # denominator that neither factor does, so take the full gcd
            return _reduce(*_times(a1, b1, a2, b2), d1 * d2, R)
        # Henrici: cancel across first; then at most one factor has an s part,
        # and a prime dividing d1*d2 divides neither part of the product
        a1, b1, d2 = _lowest(a1, b1, d2, d2)
        a2, b2, d1 = _lowest(a2, b2, d1, d1)
        return _finish(*_times(a1, b1, a2, b2), d1 * d2, R)

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
        (a1, b1, d1), (a2, b2, d2), R = _unify(self, other)
        a, b, norm = a1 * d2, b1 and b1 * d2, a2
        if b2:
            # times the conjugate a2 - b2*s over the norm a2^2 - 2 b2^2 != 0
            a, b = _times(a, b, a2, -b2)
            norm = a2 * a2 - 2 * b2 * b2
        return _reduce(a, b, d1 * norm, R)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return as_scalar(other) / self

    def __neg__(self) -> "Scalar":
        if self._p is None:
            return Scalar._const(-self._n, self._d) if self._n else ZERO
        a, b, d = self._p
        return Scalar._new(-a, -b, d, self._q)

    def __pos__(self) -> "Scalar":
        return self

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        # by squaring, each product reduced by ``*``
        result, base = ONE, self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    # -- substitution and evaluation ------------------------------------

    def substitute(self, binding: "ParamBinding | Mapping") -> "Scalar":
        """Exact substitution of rational values; unbound parameters stay."""
        binding = ParamBinding.coerce(binding)
        if self._q is None:
            return self
        names = self._q._scalar_names
        relevant = {n: binding[n] for n in names if n in binding}
        if not relevant:
            return self
        a, b, d = _substitute_poly(self._p, relevant)
        if not d:
            raise ZeroDivisionError(
                f"denominator {_poly_text(self._p[2])} vanishes under binding"
            )
        kept = tuple(n for n in names if n not in relevant)
        if not kept:
            return _quadratic(a.get((), 0), b.get((), 0), d[()])
        R = ring_for(kept)
        return _reduce(R.poly(a), R.poly(b) if b else 0, R.poly(d), R)

    def evaluate(self, binding: "ParamBinding | Mapping | None" = None) -> float:
        """Float value; every parameter must be bound (``s`` is sqrt(2)).

        A parametric value is substituted exactly first, so only a constant
        is ever rounded to float.
        """
        if self._q is not None:
            binding = ParamBinding.coerce(binding or {})
            missing = self.free_params() - set(binding)
            if missing:
                raise ValueError(f"unbound parameters: {sorted(missing)}")
            return self.substitute(binding).evaluate()
        if self._p is None:
            return self._n / self._d
        # int true division: an int beyond the float range cannot overflow
        a, b, d = self._p
        return a / d + (b / d) * math.sqrt(2.0)

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
        return self._q is other._q and self._p == other._p

    def __hash__(self) -> int:
        if self._hash is None:
            if self._p is None:
                # equal to an int or Fraction, so it must hash as one
                self._hash = hash(self._n if self._d == 1 else Fraction(self._n, self._d))
            elif self._q is None:
                self._hash = hash(self._p)
            else:
                self._hash = hash((self._q._scalar_names,
                                   *(frozenset(p.items()) if p else 0 for p in self._p)))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        p, q = self._num, self._den
        num = _poly_text(p)
        if q == 1:
            return num
        if len(p) > 1:
            num = f"({num})"
        den = _poly_text(q)
        if not _atomic_denominator(q):
            den = f"({den})"
        return f"{num}/{den}"

    def latex(self) -> str:
        """LaTeX text; an all-negative numerator puts the minus outside."""
        p, q = self._num, self._den
        if q == 1:
            return _poly_text(p, latex=True)
        sign = ""
        if all(c < 0 for c in p.values()):
            p, sign = -p, "-"
        return sign + rf"\frac{{{_poly_text(p, latex=True)}}}{{{_poly_text(q, latex=True)}}}"

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"


ZERO = Scalar._const(0, 1)
ONE = Scalar._const(1, 1)
_SQRT2 = Scalar._new(0, 1, 1, None)


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


def _substitute_poly(parts, bind: dict[str, Fraction]) -> list[dict]:
    """Put the rationals of ``bind`` into the parts (a, b, d) of one value.

    Returns each part as integer coefficients by monomial in the unbound
    parameters (b may be the int 0, and gives no coefficients).  Each bound
    value u/v is scaled by v to the parameter's top degree over all three
    parts, so every coefficient is an int and the parts share one scale,
    which cancels in (a + b*s)/d.
    """
    names = parts[2].ring._scalar_names
    bound = [(i, bind[n].numerator, bind[n].denominator)
             for i, n in enumerate(names) if n in bind]
    kept_pos = [i for i, n in enumerate(names) if n not in bind]
    present = [p for p in parts if p]
    top = {i: max(m[i] for p in present for m in p) for i, _, _ in bound}
    out = []
    for p in parts:
        acc: dict[tuple, int] = {}
        for monom, c in (p.items() if p else ()):
            for i, u, v in bound:
                e = monom[i]
                c *= u**e * v ** (top[i] - e)
            key = tuple(monom[i] for i in kept_pos)
            acc[key] = acc.get(key, 0) + c
        out.append({m: c for m, c in acc.items() if c})
    return out


# -- binding ------------------------------------------------------------


class ParamBinding(Mapping):
    """Parameter values, held as exact rationals; floats and bools are rejected,
    and a string is read by ``parse_expr`` and kept when it is a rational constant."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Fraction | int | str]):
        if not isinstance(values, Mapping):
            raise TypeError(f"a binding must be a mapping, not {type(values).__name__}")
        norm: dict[str, Fraction] = {}
        for name, value in values.items():
            if name == SQRT2_NAME:
                raise ValueError(f"{SQRT2_NAME!r} is reserved for sqrt(2)")
            if not name.isidentifier():
                raise ValueError(f"not a valid parameter name: {name!r}")
            if isinstance(value, bool) or not isinstance(value, (Fraction, int, str)):
                raise TypeError(
                    f"{name}={value!r}: parameter values must be exact rational,"
                    f" not {type(value).__name__}")
            if isinstance(value, str):
                try:
                    parsed = parse_expr(value)
                except ZeroDivisionError:
                    raise ValueError(f"{name}={value}: zero denominator") from None
                except ScalarSyntaxError:
                    parsed = None
                if parsed is None or not parsed.is_constant():
                    raise ValueError(f"{name}={value!r}: not an exact rational")
                value = Fraction(parsed._n, parsed._d)
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


def _latex_name(name: str) -> str:
    if name.startswith("psi") and name[3:].isdigit():
        return rf"\psi_{{{name[3:]}}}"
    if name == "lambda":
        return r"\lambda"
    if name == SQRT2_NAME:
        return r"\sqrt{2}"
    return name


def _power(name: str, e: int, latex: bool) -> str:
    if latex:
        name = _latex_name(name)
    if e == 1:
        return name
    return f"{name}^{{{e}}}" if latex and e >= 10 else f"{name}^{e}"


def _poly_text(p, latex: bool = False) -> str:
    r"""The terms of p in order: ``2*x^2 - y`` plain, ``2x^2-y`` in LaTeX (``\lambda x``)."""
    if not p:
        return "0"
    names = p.ring._scalar_names
    times, plus, minus = ("", "+", "-") if latex else ("*", " + ", " - ")
    pieces: list[str] = []
    for k, (monom, c) in enumerate(p.terms()):
        factors = [_power(names[i], e, latex) for i, e in enumerate(monom) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = factors[0] + "".join(
            (" " if a[0] == "\\" and a[-1].isalpha() and b[0].isalpha() else times) + b
            for a, b in zip(factors, factors[1:]))
        if k == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{plus}{body}" if c > 0 else f"{minus}{body}")
    return "".join(pieces)


def _atomic_denominator(p) -> bool:
    # safe to print unparenthesized after '/': a bare uint or a single power
    if len(p) != 1:
        return False
    (monom, c), = p.items()
    if not any(monom):
        return c > 0
    return c == 1 and sum(1 for e in monom if e) == 1


# -- reader ---------------------------------------------------------------


class ScalarSyntaxError(ValueError):
    """Text the reader refuses, malformed or over its bounds; ``position`` is
    a 0-based character index into ``text``."""

    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} (at position {position}) in {text!r}")
        self.position = position
        self.text = text


# What one text may make the reader build.  Every stored text and every value
# the pipeline prints (g, g^-1, Gamma and R of the 19 families) needs at most
# exponent 6, 15 terms, total degree 7 and 6-bit coefficients.  The bounds sit
# far above that, and one operation within them builds its value in well under
# a second, where (a+b+c+d)^64, 47905 terms, took 45 s and 3^2147483647 would
# not finish.  The gcd that reduces a quotient is not bounded by them.
_MAX_EXPONENT = 64
_MAX_TERMS = 2000  # terms of a numerator, and of a denominator
_MAX_DEGREE = 256  # total degree of a numerator, and of a denominator
_MAX_DIGITS = 300  # digits of a literal; every norm (see _size) is below 10^300
_MAX_NORM = 10**_MAX_DIGITS
_MAX_DEPTH = 100  # parentheses open at once: each takes four frames of the reader

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}


def _size(x: Scalar) -> tuple:
    """The terms, the total degrees and the norms of x's numerator a + b*s
    and of its denominator d, as three pairs.

    A norm is the sum of the absolute coefficients, b's counted twice.  Since
    s*s = 2 it is submultiplicative: it bounds every coefficient, and the
    norm of a product is at most the product of the norms.
    """
    if x._p is None:
        return (1, 1), (0, 0), (abs(x._n), x._d)
    a, b, d = x._p
    if x._q is None:
        return (bool(a) + 1, 1), (0, 0), (abs(a) + 2 * abs(b), d)
    b = b or {}
    return ((len(a) + len(b), len(d)), (max(map(sum, (*a, *b))), max(map(sum, d))),
            (sum(map(abs, a.values())) + 2 * sum(map(abs, b.values())),
             sum(map(abs, d.values()))))


def _terms(x: Scalar) -> tuple:
    # the first pair of _size(x), in O(1)
    if x._p is None:
        return 1, 1
    a, b, d = x._p
    if x._q is None:
        return bool(a) + 1, 1
    return len(a) + len(b or {}), len(d)


class _Parser:
    """The reader: recursive descent that scans each token as it takes the
    one before, for

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' uint)?
    atom   := uint | ident | '(' expr ')'

    A uint is a run of decimal digits, an ident a Python identifier (``s``
    is sqrt(2)), and space may stand between tokens.  ``kind``, ``token``
    and ``start`` describe the current token; the next scan begins at
    ``end``.  Every value the reader builds stays within the bounds on
    ``_size``: an operation is refused at its operator when its schoolbook
    size passes a bound, before it runs, and when its reduced result does.
    """

    def __init__(self, text: str):
        self.text = text
        self.end = self.depth = 0
        self._scan()

    def _error(self, message: str, position: int) -> ScalarSyntaxError:
        return ScalarSyntaxError(message, position, self.text)

    def _scan(self) -> None:
        # make the token at or after ``end`` current; "end" past the text
        text, n, i = self.text, len(self.text), self.end
        while i < n and text[i].isspace():
            i += 1
        start = i
        if i == n:
            kind = "end"
        elif text[i].isdecimal():
            while i < n and text[i].isdecimal():
                i += 1
            kind = "int"
        elif text[i].isidentifier():  # a superscript digit ends a name
            while i < n and ("_" + text[i]).isidentifier():
                i += 1
            kind = "ident"
        elif text[i] in "+-*/^()":
            kind = text[i]
            i += 1
        else:
            raise self._error(f"unexpected character {text[i]!r}", i)
        self.kind, self.token, self.start, self.end = kind, text[start:i], start, i

    def _uint(self) -> int:
        # the value of the current token, a uint, scanning the next
        if len(self.token) > _MAX_DIGITS:
            raise self._error("integer too long", self.start)
        value = int(self.token)
        self._scan()
        return value

    def _bound(self, pos: int, terms: tuple, degrees=(0,), norms=(0,)) -> None:
        # refuse at pos a value whose numerator or denominator has more terms,
        # a higher degree or a larger norm than the bounds allow
        if max(terms) > _MAX_TERMS:
            reason = f"more than {_MAX_TERMS} terms"
        elif max(degrees) > _MAX_DEGREE:
            reason = f"degree above {_MAX_DEGREE}"
        elif max(norms) >= _MAX_NORM:
            reason = f"coefficients summing past 10^{_MAX_DIGITS}"
        else:
            return
        raise self._error("result too large: " + reason, pos)

    def _apply(self, op: str, pos: int, u: Scalar, v) -> Scalar:
        # u op v, or u^v for an int v.  Before it is computed, its schoolbook
        # size must be within the bounds: for a power, whose product of e of
        # t terms is one of C(e+t-1, e) monomials, the terms, degrees and
        # norms; for two values already within them, the terms.  After, the
        # size of the reduced result must be.
        if op == "^":
            (t, s), (g, h), (n, m) = _size(u)
            self._bound(pos, (math.comb(v + t - 1, v), math.comb(v + s - 1, v)),
                        (v * g, v * h), (n**v, m**v))
        else:
            (t1, s1), (t2, s2) = _terms(u), _terms(v)
            if op == "*":
                self._bound(pos, (t1 * t2, s1 * s2))
            elif op != "/":
                self._bound(pos, (t1 * s2 + t2 * s1, s1 * s2))
            elif v.is_zero():
                raise ZeroDivisionError(
                    f"division by the zero polynomial (at position {pos}) in {self.text!r}")
            elif v._p is not None and v._p[1]:
                # times the conjugate a - b*s over the norm a^2 - 2 b^2
                self._bound(pos, (t1 * s2 * t2, s1 * t2 * t2))
            else:
                self._bound(pos, (t1 * s2, s1 * t2))
        value = _OPERATORS[op](u, v)
        self._bound(pos, *_size(value))
        return value

    def parse(self) -> Scalar:
        value = self._expr()
        if self.kind != "end":
            raise self._error(f"unexpected {self.token!r}", self.start)
        return value

    def _expr(self) -> Scalar:
        x = self._term()
        while self.kind in ("+", "-"):
            op, pos = self.kind, self.start
            self._scan()
            x = self._apply(op, pos, x, self._term())
        return x

    def _term(self) -> Scalar:
        x = self._factor()
        while self.kind in ("*", "/"):
            op, pos = self.kind, self.start
            self._scan()
            x = self._apply(op, pos, x, self._factor())
        return x

    def _factor(self) -> Scalar:
        negate = self.kind == "-"
        if negate:
            self._scan()
        x = self._atom()
        if self.kind == "^":
            pos = self.start
            self._scan()
            if self.kind != "int":
                raise self._error("exponent must be a nonnegative integer", self.start)
            if len(self.token) > _MAX_DIGITS or int(self.token) > _MAX_EXPONENT:
                raise self._error("exponent too large", self.start)
            x = self._apply("^", pos, x, self._uint())
        return -x if negate else x

    def _atom(self) -> Scalar:
        kind, token, start = self.kind, self.token, self.start
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                raise self._error("parentheses nested too deep", start)
            self.depth += 1
            self._scan()
            x = self._expr()
            if self.kind != ")":
                raise self._error("expected ')'", self.start)
            self.depth -= 1
            self._scan()
            return x
        if kind == "int":
            return Scalar.from_int(self._uint())
        if kind == "ident":
            self._scan()
            return Scalar.param(token)
        raise self._error(
            "unexpected end of input" if kind == "end" else f"unexpected {token!r}", start)


def parse_expr(text: str) -> Scalar:
    """Parse an expression string into a canonical Scalar; see ``_Parser``."""
    return _Parser(text).parse()
