"""Sparse polynomials over ZZ in named variables, for the scalar kernel.

A polynomial is a dict from exponent tuple to nonzero int.  It belongs to
the ring of a sorted tuple of names (one ring object per tuple, cached by
``ring_for``): each ring has its own ``Poly`` subclass whose ``ring``
attribute is that ring, and every exponent tuple has one entry per name.
Values are never mutated after they are built.

Monomials are ordered graded-lex: by total degree, then by the exponent
tuple.  ``LC`` is the leading coefficient under that order and ``terms()``
lists the terms from the highest down.

``cofactors(f, g)`` returns (h, f/h, g/h) with h = gcd(f, g).  A single-term
operand is read off exponents and integer content; otherwise the heuristic
gcd GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet, "GCDHEU: Heuristic
polynomial GCD algorithm based on integer GCD computation", J. Symbolic
Comput. 7 (1989) 31-48) runs on them.  GCDHEU evaluates the first variable
at a large integer, recurses on the rest down to an integer gcd, and
interpolates h and the cofactors back from the image; a candidate is kept
once it divides both operands exactly.  As in sympy's ``heugcd``, whose
evaluation points and normalisation this follows step for step (so the two
return the same h, sign included), it gives up after ``HEU_GCD_MAX``
evaluation points by raising ``HeuristicGCDFailed``; there is no fallback.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, sub

HEU_GCD_MAX = 6


class HeuristicGCDFailed(ArithmeticError):
    """GCDHEU found no gcd at any of its evaluation points."""


def _grlex(monom: tuple) -> tuple:
    return sum(monom), monom


def _lc(f: dict) -> int:
    return f[max(f, key=_grlex)]


def _mul(f: dict, g: dict) -> dict:
    if len(g) == 1:
        (mg, cg), = g.items()
        return {tuple(map(add, m, mg)): c * cg for m, c in f.items()}
    out: dict = {}
    get = out.get
    for mf, cf in f.items():
        for mg, cg in g.items():
            m = tuple(map(add, mf, mg))
            out[m] = get(m, 0) + cf * cg
    return {m: c for m, c in out.items() if c}


def _divide(f: dict, g: dict) -> dict | None:
    # f/g when g divides f exactly, else None: while a remainder is left, its
    # leading term must be a multiple of g's, or g*q has no such leading term
    mg = max(g, key=_grlex)
    cg = g[mg]
    r, q = dict(f), {}
    while r:
        m = max(r, key=_grlex)
        e = tuple(map(sub, m, mg))
        c, rest = divmod(r[m], cg)
        if rest or min(e) < 0:
            return None
        q[e] = c
        for mi, ci in g.items():
            mi = tuple(map(add, e, mi))
            v = r.get(mi, 0) - c * ci
            if v:
                r[mi] = v
            else:
                del r[mi]
    return q


def _quo_ground(f: dict, c: int) -> dict:
    return f if c == 1 else {m: v // c for m, v in f.items()}


def _content(f: dict) -> int:
    return math.gcd(*f.values())


def _gcd_monom(f: dict, g: dict) -> tuple:
    # (h, f/h, g/h) for f a single term: h is the common power product times
    # the integer content of f and g together
    (mf, cf), = f.items()
    low, c = mf, cf
    for m, v in g.items():
        low = tuple(map(min, low, m))
        c = math.gcd(c, v)
    return ({low: c}, {tuple(map(sub, mf, low)): cf // c},
            {tuple(map(sub, m, low)): v // c for m, v in g.items()})


def _evaluate_first(f: dict, x: int, n: int):
    # f with its first variable set to x: an int when n = 1, else a dict over
    # the other n - 1 variables
    if n == 1:
        return sum(c * x ** m[0] for m, c in f.items())
    out: dict = {}
    for m, c in f.items():
        tail = m[1:]
        v = out.get(tail, 0) + c * x ** m[0]
        if v:
            out[tail] = v
        else:
            out.pop(tail, None)
    return out


def _interpolate(h, x: int, n: int) -> dict:
    # the polynomial in n variables whose first variable at x gives h, read
    # off h's symmetric base-x digits, with a positive leading coefficient
    f, i, half = {}, 0, x // 2
    while h:
        if n == 1:
            g = h % x
            if g > half:
                g -= x
            h = (h - g) // x
            if g:
                f[(i,)] = g
        else:
            rest = {}
            for m, c in h.items():
                g = c % x
                if g > half:
                    g -= x
                if g:
                    f[(i, *m)] = g
                if c != g:
                    rest[m] = (c - g) // x
            h = rest
        i += 1
    return {m: -c for m, c in f.items()} if _lc(f) < 0 else f


def _heugcd(f: dict, g: dict, n: int) -> tuple:
    # GCDHEU for nonzero f, g in n >= 1 variables: (h, f/h, g/h)
    gcd = math.gcd(_content(f), _content(g))
    f, g = _quo_ground(f, gcd), _quo_ground(g, gcd)
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * math.isqrt(b)),
            2 * min(f_norm // abs(_lc(f)), g_norm // abs(_lc(g))) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate_first(f, x, n), _evaluate_first(g, x, n)
        if ff and gg:
            if n == 1:
                h = math.gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg, n - 1)
            h = _interpolate(h, x, n)
            h = _quo_ground(h, _content(h))
            cf = _divide(f, h)
            if cf is not None:
                cg = _divide(g, h)
                if cg is not None:
                    return _scale(h, gcd), cf, cg
            cff = _interpolate(cff, x, n)
            h = _divide(f, cff)
            if h is not None:
                cg = _divide(g, h)
                if cg is not None:
                    return _scale(h, gcd), cff, cg
            cfg = _interpolate(cfg, x, n)
            h = _divide(g, cfg)
            if h is not None:
                cf = _divide(f, h)
                if cf is not None:
                    return _scale(h, gcd), cf, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise HeuristicGCDFailed(f"no gcd found at {HEU_GCD_MAX} evaluation points")


def _scale(f: dict, c: int) -> dict:
    return f if c == 1 else {m: v * c for m, v in f.items()}


class Poly(dict):
    """A polynomial of one ring; see the module docstring.

    Operands of ``+``, ``-``, ``*``, ``==`` and ``cofactors`` are
    polynomials of the same ring or ints.
    """

    __slots__ = ()
    ring: "Ring"

    def __neg__(self) -> "Poly":
        return type(self)({m: -c for m, c in self.items()})

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not other:
                return self
            other = self.ring.ground(other)
        p = type(self)(self)
        for m, c in other.items():
            v = p.get(m, 0) + c
            if v:
                p[m] = v
            else:
                del p[m]
        return p

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + -other

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if len(self) < len(other):
                self, other = other, self
            return type(self)(_mul(self, other))
        if other == 1:
            return self
        return type(self)({m: c * other for m, c in self.items()} if other else {})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ring is other.ring and dict.__eq__(self, other)
        if isinstance(other, int):
            if not other:
                return not self
            return len(self) == 1 and self.get(self.ring.zero_monom) == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None

    @property
    def LC(self) -> int:
        """The leading coefficient; 0 for the zero polynomial."""
        return _lc(self) if self else 0

    def terms(self) -> list:
        """(monomial, coefficient) pairs from the graded-lex highest down."""
        return sorted(self.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def content(self) -> int:
        """The gcd of the coefficients, >= 0."""
        return _content(self)

    def exquo(self, other: "Poly") -> "Poly":
        """self/other, which must be exact."""
        q = _divide(self, other)
        if q is None:
            raise ArithmeticError(f"{other!r} does not divide {self!r}")
        return type(self)(q)

    def cofactors(self, other: "Poly") -> tuple:
        """(h, self/h, other/h) for h = gcd(self, other); see the module docstring."""
        new, one = type(self), self.ring.one
        if not (self and other):
            # gcd(f, 0) = ±f, the sign making its leading coefficient positive
            f = self or other
            sign = -1 if f.LC < 0 else 1
            return f * sign, one * sign if self else new(), one * sign if other else new()
        if len(self) == 1:
            h, cf, cg = _gcd_monom(self, other)
        elif len(other) == 1:
            h, cg, cf = _gcd_monom(other, self)
        else:
            h, cf, cg = _heugcd(self, other, len(self.ring._scalar_names))
        return new(h), new(cf), new(cg)


class Ring:
    """ZZ[names] for a sorted tuple of names; build it through ``ring_for``."""

    def __init__(self, names: tuple[str, ...]):
        self._scalar_names = names
        self._scalar_gen_index = {n: i for i, n in enumerate(names)}
        self.zero_monom = (0,) * len(names)
        self.poly = type("Poly", (Poly,), {"__slots__": (), "ring": self})
        self.one = self.ground(1)
        self.gens = tuple(self.poly({tuple(int(i == j) for j in range(len(names))): 1})
                          for i in range(len(names)))

    def ground(self, c: int) -> Poly:
        """The constant polynomial c."""
        return self.poly({self.zero_monom: c} if c else {})


@lru_cache(maxsize=None)
def ring_for(names: tuple[str, ...]) -> Ring:
    """The ring ZZ[names]; names must be sorted."""
    return Ring(names)
