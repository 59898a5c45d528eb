"""sympy as the test oracle of ``nilkaehler.poly``: the one place where the
tests convert a polynomial to sympy's ``PolyElement`` (over ZZ, graded-lex,
the same names) and back."""

from functools import lru_cache

from sympy.polys.domains import ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from nilkaehler.poly import ring_for


@lru_cache(maxsize=None)
def sympy_ring(names: tuple[str, ...]):
    """sympy's ZZ[names] with graded-lex order."""
    return ring(",".join(names), ZZ, grlex)[0]


def names_of(R) -> tuple[str, ...]:
    return tuple(s.name for s in R.symbols)


def to_sympy(p):
    """The polynomial p of ``nilkaehler.poly`` as a sympy PolyElement."""
    return sympy_ring(p.ring._scalar_names).from_dict(dict(p))


def from_sympy(P):
    """The sympy PolyElement P as a polynomial of ``nilkaehler.poly``."""
    return ring_for(names_of(P.ring)).poly({m: int(c) for m, c in P.items()})
