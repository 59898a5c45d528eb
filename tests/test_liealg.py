import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nilkaehler import catalog, linalg
from nilkaehler.liealg import (
    LieAlgebra,
    Vector,
    _membership_constraints,
    algebra_type,
    ascending_series,
    bracket,
    jacobi_check,
)
from nilkaehler.scalar import Scalar
from nilkaehler.tensors import Endomorphism, j_ascending_series


def make(dim, *terms):
    return LieAlgebra.from_terms(dim, terms)


# Brackets as printed in the catalog data files (1-based indices).
G21 = make(6, (1, 2, 4, 1), (1, 4, 6, 1), (2, 3, 6, 1))
G18 = make(6, (1, 2, 4, 1), (1, 3, 5, 1), (2, 3, 6, 1))
G24 = make(6, (1, 4, 6, 1), (2, 3, 5, 1))
G25 = make(6, (1, 2, 3, 1))
G14 = make(6, (1, 2, 4, 1), (2, 3, 6, 1), (2, 4, 5, 1))
ABELIAN = LieAlgebra(6, {})


def e(alg, i):
    """1-based basis vector, matching the printed labels."""
    return Vector.of(1 if t == i - 1 else 0 for t in range(alg.dim))


class TestBracket:
    def test_g21_e1_e2(self):
        assert bracket(G21, e(G21, 1), e(G21, 2)) == e(G21, 4)

    def test_g18_e2_e3(self):
        assert bracket(G18, e(G18, 2), e(G18, 3)) == e(G18, 6)

    def test_self_bracket_vanishes(self):
        for i in range(1, 7):
            assert bracket(G21, e(G21, i), e(G21, i)).is_zero()

    def test_bilinear(self):
        x = Vector.of([1, 2, 0, 0, 0, 0])
        y = Vector.of([0, 0, 3, 1, 0, 0])
        # [e1 + 2e2, 3e3 + e4] = 3[e1,e3] + [e1,e4] + 6[e2,e3] + 2[e2,e4]
        #                      = e6 + 6e6 = 7e6 on g21
        assert bracket(G21, x, y) == Vector.of([0, 0, 0, 0, 0, 7])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(G21, Vector.of([1, 0]), e(G21, 1))

    @given(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
           st.lists(st.integers(-5, 5), min_size=6, max_size=6))
    def test_antisymmetry(self, xs, ys):
        x, y = Vector.of(xs), Vector.of(ys)
        assert bracket(G18, x, y) == Vector(tuple(-c for c in bracket(G18, y, x)))


class TestJacobi:
    def test_g14_passes(self):
        assert jacobi_check(G14) == []

    def test_abelian_passes(self):
        assert jacobi_check(ABELIAN) == []

    def test_bogus_bracket_fails(self):
        # g21 plus [e3, e4] = e1 breaks the (e1, e3, e4) cycle:
        # [[e1,e3],e4] + [[e3,e4],e1] + [[e4,e1],e3] = 0 + [e1,e1=..] - [e6,e3] != 0
        bad = LieAlgebra(
            6,
            {(0, 1): {3: 1}, (0, 3): {5: 1}, (1, 2): {5: 1}, (2, 3): {0: 1}},
        )
        assert jacobi_check(bad) != []

    def test_from_terms_rejects_non_jacobi(self):
        with pytest.raises(ValueError, match="Jacobi"):
            make(6, (1, 2, 4, 1), (1, 4, 6, 1), (2, 3, 6, 1), (3, 4, 1, 1))


def _jacobi_by_brackets(alg):
    """The reference: every triple i < j < k, as six dense brackets."""
    basis = [e(alg, i + 1) for i in range(alg.dim)]
    failing = []
    for i, j, k in combinations(range(alg.dim), 3):
        x, y, z = basis[i], basis[j], basis[k]
        total = (bracket(alg, bracket(alg, x, y), z) + bracket(alg, bracket(alg, y, z), x)
                 + bracket(alg, bracket(alg, z, x), y))
        if not total.is_zero():
            failing.append((i, j, k))
    return failing


@pytest.mark.parametrize("name", catalog.NAMES)
def test_jacobi_check_matches_the_bracket_loop_on_the_catalog(name):
    alg = catalog.get(name).algebra
    assert jacobi_check(alg) == _jacobi_by_brackets(alg) == []


@st.composite
def structure_constant_tables(draw):
    """1-based (i, j, k, c) terms with i < j on a 4- or 5-dimensional algebra."""
    dim = draw(st.integers(4, 5))
    pairs = draw(st.lists(st.tuples(st.integers(1, dim), st.integers(1, dim))
                          .filter(lambda p: p[0] < p[1]), min_size=2, max_size=6, unique=True))
    terms = [(i, j, draw(st.integers(1, dim)), draw(st.sampled_from([1, -1, 2, "1/2", "x"])))
             for i, j in pairs]
    return dim, terms


@given(structure_constant_tables())
@settings(max_examples=150, deadline=None)
def test_jacobi_check_matches_the_bracket_loop(table):
    dim, terms = table
    rows: dict = {}
    for i, j, k, c in terms:
        rows.setdefault((i - 1, j - 1), {})[k - 1] = c
    alg = LieAlgebra(dim, rows)
    failing = _jacobi_by_brackets(alg)
    assert jacobi_check(alg) == failing
    if failing:
        with pytest.raises(ValueError) as info:
            LieAlgebra.from_terms(dim, terms)
        assert str(info.value) == f"Jacobi identity fails on triples {failing}"
    else:
        assert LieAlgebra.from_terms(dim, terms).constants == alg.constants


def test_jacobi_check_pins_a_non_lie_table():
    with pytest.raises(ValueError) as info:
        make(4, (1, 2, 3, 1), (2, 3, 4, 1), (1, 3, 2, 1), (3, 4, 1, 2))
    assert str(info.value) == "Jacobi identity fails on triples [(0, 1, 3), (1, 2, 3)]"


class TestSeries:
    def test_types(self):
        assert algebra_type(G21) == (2, 4, 6)
        assert algebra_type(G24) == (2, 6)
        assert algebra_type(G25) == (4, 6)
        assert algebra_type(G18) == (3, 6)
        assert algebra_type(ABELIAN) == (6,)

    def test_symbolic_algebra_rejected(self):
        # [e1, e2] = a e3 is abelian at a = 0, so no single type is right
        alg = LieAlgebra.from_terms(3, [(1, 2, 3, "a")])
        for series_of in (ascending_series, algebra_type):
            with pytest.raises(ValueError, match="unbound parameters: a"):
                series_of(alg)

    def test_center_g21(self):
        z = ascending_series(G21)[0]
        assert len(z) == 2
        assert z.contains(e(G21, 5)) and z.contains(e(G21, 6))

    def test_center_g18(self):
        z = ascending_series(G18)[0]
        assert len(z) == 3
        for i in (4, 5, 6):
            assert z.contains(e(G18, i))

    def test_center_abelian(self):
        assert len(ascending_series(ABELIAN)[0]) == 6

    @pytest.mark.parametrize("alg", [G21, G18, G24, G25, G14], ids=lambda a: repr(a)[:30])
    def test_ascending_terms_are_ideals(self, alg):
        # [g_k, g] must land in g_{k-1} (with g_0 = 0)
        series = ascending_series(alg)
        for k, term in enumerate(series):
            for row in term:
                for i in range(alg.dim):
                    v = bracket(alg, Vector(row), e(alg, i + 1))
                    if k == 0:
                        assert v.is_zero()
                    else:
                        assert series[k - 1].contains(v)

    @pytest.mark.parametrize("alg", [G21, G18, G24, G25, G14])
    def test_ascending_contains_descending_complement_dims(self, alg):
        dims = [len(b) for b in ascending_series(alg)]
        assert dims == sorted(dims)
        assert dims[-1] == alg.dim


def _constraints_by_brackets(alg, prev, J):
    """Rows M with M x = 0 iff [J x, e_j] lies in ``prev`` for every j: the
    reference, one dense bracket [J e_i, e_j] at a time."""
    images = [J.apply(e(alg, i + 1)) for i in range(alg.dim)]
    rows = []
    for j in range(alg.dim):
        columns = [prev.reduce(bracket(alg, x, e(alg, j + 1))) for x in images]
        rows.extend(zip(*columns))
    return tuple(rows)


@pytest.mark.parametrize(
    "name,sid", [(n, s.id) for n in catalog.NAMES for s in catalog.get(n).structures])
def test_the_j_twisted_series_matches_its_definition(name, sid):
    # at the family's canonical binding, step by step: the twisted constraints
    # are the plain ones times J^T, and the terms are the nullspaces of both
    entry = catalog.get(name)
    s = entry.structure(sid)
    alg, J = entry.algebra, s.J.substitute(s.binding())
    identity = Endomorphism(linalg.identity(alg.dim))
    reference, prev = [], linalg.Span((), ())
    while len(prev) < alg.dim:
        plain = _membership_constraints(alg, prev)
        twisted = _constraints_by_brackets(alg, prev, J)
        assert plain == _constraints_by_brackets(alg, prev, identity)
        assert linalg.mat_mul(plain, linalg.transpose(J.rows)) == twisted
        term, _ = linalg.nullspace(plain + twisted)
        if len(term) == len(prev):
            break
        reference.append(term)
        prev = term
    assert j_ascending_series(alg, J) == reference


class TestConstruction:
    def test_from_terms_normalizes_reversed_pairs(self):
        a = LieAlgebra.from_terms(3, [(2, 1, 3, 1)])
        assert a.structure_constant(0, 1, 2) == Scalar.from_int(-1)
        assert a.structure_constant(1, 0, 2) == Scalar.from_int(1)

    def test_from_terms_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            LieAlgebra.from_terms(3, [(1, 2, 3, 1), (1, 2, 3, 1)])

    def test_from_terms_rejects_self_bracket(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_terms(3, [(1, 1, 2, 1)])

    def test_json_round_trip(self):
        blob = G21.to_json_dict()
        again = LieAlgebra.from_json_dict(blob)
        assert again.to_json_dict() == blob
        assert blob["brackets"][0] == {"i": 1, "j": 2, "k": 4, "c": "1"}

    def test_repr_names_the_basis_e1_to_en(self):
        assert repr(LieAlgebra.from_terms(3, [(2, 1, 3, 2)])) == (
            "LieAlgebra(dim=3, [e1, e2] = (-2)*e3)")
        assert repr(LieAlgebra(2, {})) == "LieAlgebra(dim=2, abelian)"

    def test_structure_constant_bounds(self):
        with pytest.raises(ValueError):
            LieAlgebra(6, {(0, 7): {1: 1}})
        with pytest.raises(ValueError):
            LieAlgebra(6, {(3, 1): {1: 1}})
        with pytest.raises(ValueError, match="bad bracket target 6"):
            LieAlgebra(6, {(0, 1): {6: 1}})

    @pytest.mark.parametrize("term,message", [
        ((1, 2, 9, 1), "bad bracket target 9; need an index in 1..6"),
        ((1, 2, 0, 1), "bad bracket target 0; need an index in 1..6"),
        ((0, 2, 4, 1), "bad bracket pair (0, 2); need indices in 1..6"),
        ((1, 7, 4, 1), "bad bracket pair (1, 7); need indices in 1..6"),
        ((7, 1, 4, 1), "bad bracket pair (7, 1); need indices in 1..6"),
    ], ids=["target-above-dim", "target-zero", "pair-zero", "pair-above-dim", "reversed-pair"])
    def test_from_terms_names_indices_as_written(self, term, message):
        # the terms are 1-based, and so is every message about them
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LieAlgebra.from_terms(6, [term])


def test_in_subspace_rejects_outside_vector():
    basis = linalg.span(linalg.as_matrix([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]))
    assert basis.contains(Vector.of([2, -3, 0, 0, 0, 0]))
    assert not basis.contains(Vector.of([0, 0, 1, 0, 0, 0]))


def test_vector_equality_uses_scalar_equality():
    assert Vector.of([1, 0]) == Vector.of(["2/2", "0"])
