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
"""

from __future__ import annotations

import math
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
        if ch.isdecimal():
            while self.pos < n and text[self.pos].isdecimal():
                self.pos += 1
            return ("int", text[start : self.pos], start)
        if ch.isidentifier():  # a name is a Python identifier: a superscript digit ends it
            while self.pos < n and ("_" + text[self.pos]).isidentifier():
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
    atom   := uint | ident | '(' expr ')'
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

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._i]

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
            return Scalar.from_int(int(text))
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
    except (ScalarSyntaxError, ZeroDivisionError) as exc:
        exc.args = (f"{exc.args[0]} in {text!r}",)
        raise
