import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from nilkaehler import catalog, linalg
from nilkaehler.liealg import LieAlgebra, Vector, ascending_series, bracket
from nilkaehler.scalar import ParamBinding, Scalar, as_scalar
from nilkaehler.tensors import (
    Endomorphism,
    TwoForm,
    almost_complex_residual,
    compat_residual,
    exterior_d,
    is_abelian_J,
    is_closed,
    is_integrable,
    is_nilpotent_J,
    j_ascending_series,
    nijenhuis,
    nondegenerate,
)

G21 = LieAlgebra.from_terms(6, [(1, 2, 4, 1), (1, 4, 6, 1), (2, 3, 6, 1)])
G24 = LieAlgebra.from_terms(6, [(1, 4, 6, 1), (2, 3, 5, 1)])
G16 = LieAlgebra.from_terms(
    6, [(1, 3, 5, 1), (1, 4, 6, 1), (2, 3, 6, -1), (2, 4, 5, 1)]
)
ABELIAN = LieAlgebra(6, {})

W2_G21 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, 1), (3, 4, -1)])
W1_G16 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, -1), (3, 4, 1)])
W2_G16 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, 1), (3, 4, -1)])
W_STD = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)])

# canonical structure on g21: J(e2) = -a e1, J(e4) = a e3, J(e6) = a e5,
# the rest forced by J^2 = -I
J21_CANON = Endomorphism([
    ["0", "1/a", "0", "0", "0", "0"],
    ["-a", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "-1/a", "0", "0"],
    ["0", "0", "a", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "-1/a"],
    ["0", "0", "0", "0", "a", "0"],
])

J0_G16 = Endomorphism([
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
])

J_NAIVE = Endomorphism([
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
])


class TestTwoForm:
    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            TwoForm([[0, 1], [1, 0]])

    def test_from_terms_reversed_pair(self):
        w = TwoForm.from_terms(3, [(2, 1, 5)])
        assert w.omega[0][1] == Scalar.from_int(-5)
        assert w.omega[1][0] == Scalar.from_int(5)

    def test_from_terms_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            TwoForm.from_terms(3, [(1, 2, 1), (2, 1, 1)])

    @pytest.mark.parametrize("dim", [0, -1])
    def test_a_dimension_below_one_is_refused(self, dim):
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            TwoForm.from_terms(dim, [])
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            TwoForm.from_json_dict({"dim": dim, "terms": []})

    def test_json_round_trip(self):
        blob = W2_G21.to_json_dict()
        assert blob["terms"] == [
            {"i": 1, "j": 6, "c": "1"},
            {"i": 2, "j": 5, "c": "1"},
            {"i": 3, "j": 4, "c": "-1"},
        ]
        assert TwoForm.from_json_dict(blob) == W2_G21

    def test_apply_matches_entries(self):
        e2 = Vector.of([0, 1, 0, 0, 0, 0])
        e5 = Vector.of([0, 0, 0, 0, 1, 0])
        assert W2_G21.apply(e2, e5) == Scalar.from_int(1)
        assert W2_G21.apply(e5, e2) == Scalar.from_int(-1)


class TestEndomorphism:
    def test_row_is_basis_image(self):
        v = J21_CANON.apply(Vector.of([0, 1, 0, 0, 0, 0]))
        assert v == Vector.of(["-a", 0, 0, 0, 0, 0])

    def test_apply_is_linear_extension(self):
        v = J21_CANON.apply(Vector.of([1, 1, 0, 0, 0, 0]))
        assert v == Vector.of(["-a", "1/a", 0, 0, 0, 0])

    def test_substitute(self):
        j = J21_CANON.substitute(ParamBinding({"a": 2}))
        assert j.rows[0][1] == as_scalar("1/2")
        assert j.free_params() == frozenset()

    def test_json_round_trip(self):
        blob = J21_CANON.to_json_dict()
        assert blob["rows"][1][0] == "-a"
        assert Endomorphism.from_json_dict(blob) == J21_CANON

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Endomorphism([[1, 0]])

    @pytest.mark.parametrize("dim", [0, -1])
    def test_a_dimension_below_one_is_refused(self, dim):
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            Endomorphism.from_json_dict({"dim": dim, "rows": []})


class TestExteriorDerivative:
    def test_g21_w2_closed(self):
        assert is_closed(G21, W2_G21)

    def test_abelian_everything_closed(self):
        assert is_closed(ABELIAN, W_STD)
        assert is_closed(ABELIAN, TwoForm.from_terms(6, [(3, 6, 7)]))

    def test_e3_wedge_e6_on_g21_not_closed(self):
        w = TwoForm.from_terms(6, [(3, 6, 1)])
        d = exterior_d(G21, w)
        assert d
        # d(e3^e6)(e1, e3, e4) = -w([e1,e4], e3) = -w(e6, e3) = w(e3, e6) = 1
        assert d[0, 2, 3] == Scalar.from_int(1)

    def test_three_form_antisymmetry(self):
        w = TwoForm.from_terms(6, [(3, 6, 1)])
        d = exterior_d(G21, w)
        assert d[2, 0, 3] == Scalar.from_int(-1)
        assert d[3, 0, 2] == Scalar.from_int(1)
        assert (0, 0, 3) not in d
        # every order of each nonzero triple is stored, with its sign
        assert len(d) == 6 and all(not v.is_zero() for v in d.values())


class TestNondegenerate:
    def test_g21_w2(self):
        assert nondegenerate(W2_G21)

    def test_rank_two_form(self):
        assert not nondegenerate(TwoForm.from_terms(6, [(1, 2, 1)]))

    def test_standard_form(self):
        assert nondegenerate(W_STD)


class TestCompatibility:
    def test_g16_w2_with_J0(self):
        assert linalg.is_zero_matrix(compat_residual(W2_G16, J0_G16))

    def test_g16_w1_with_J0_fails(self):
        res = compat_residual(W1_G16, J0_G16)
        assert not linalg.is_zero_matrix(res)
        # the failure is concentrated on the (1,5)/(2,6) pairs
        assert res[0][4] == Scalar.from_int(2)
        assert res[1][5] == Scalar.from_int(2)
        assert res[4][0] == Scalar.from_int(-2)
        assert res[5][1] == Scalar.from_int(-2)

    def test_zero_J_compatible(self):
        z = Endomorphism(linalg.as_matrix([[0] * 6] * 6))
        assert linalg.is_zero_matrix(compat_residual(W2_G21, z))

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_residual_linear_in_J(self, alpha, beta):
        j1 = J0_G16
        j2 = J_NAIVE

        def scaled(c, m):
            return tuple(tuple(Scalar.from_int(c) * x for x in row) for row in m)

        mix = Endomorphism(linalg.mat_add(scaled(alpha, j1.rows), scaled(beta, j2.rows)))
        lhs = compat_residual(W2_G21, mix)
        rhs = linalg.mat_add(
            scaled(alpha, compat_residual(W2_G21, j1)),
            scaled(beta, compat_residual(W2_G21, j2)),
        )
        assert lhs == rhs


class TestAlmostComplex:
    def test_g21_canonical_symbolic(self):
        assert linalg.is_zero_matrix(almost_complex_residual(J21_CANON))

    def test_identity_is_not(self):
        res = almost_complex_residual(Endomorphism(linalg.identity(6)))
        assert res == linalg.mat_add(linalg.identity(6), linalg.identity(6))

    def test_g12_second_type_family(self):
        # four free parameters plus lambda, all symbolic
        j61 = "lambda*psi51 - (psi41^2 + psi31^2)*(lambda + 1)"
        j = Endomorphism([
            ["0", "1", "psi31", "psi41", "psi51", "-lambda*psi52"],
            ["-1", "0", "psi41", "-psi31", "psi52", j61],
            ["0", "0", "0", "1", "psi41*(lambda+1)/lambda", "psi31*(lambda+1)"],
            ["0", "0", "-1", "0", "-psi31*(lambda+1)/lambda", "psi41*(lambda+1)"],
            ["0", "0", "0", "0", "0", "-lambda"],
            ["0", "0", "0", "0", "1/lambda", "0"],
        ])
        assert linalg.is_zero_matrix(almost_complex_residual(j))


class TestNijenhuis:
    def test_abelian_any_J(self):
        assert is_integrable(ABELIAN, J_NAIVE)

    def test_g21_canonical_integrable(self):
        assert is_integrable(G21, J21_CANON)

    def test_g24_naive_pairing_obstruction(self):
        # frozen brute-force expansion over all i < j
        N = nijenhuis(G24, J_NAIVE)
        expected = {
            (0, 2, 4): 1, (0, 2, 5): -1,
            (0, 3, 4): -1, (0, 3, 5): -1,
            (1, 2, 4): -1, (1, 2, 5): -1,
            (1, 3, 4): -1, (1, 3, 5): 1,
        }
        upper = {idx: v for idx, v in N.items() if idx[0] < idx[1]}
        assert upper == {idx: Scalar.from_int(c) for idx, c in expected.items()}
        assert not is_integrable(G24, J_NAIVE)

    def test_antisymmetric_in_first_pair(self):
        N = nijenhuis(G24, J_NAIVE)
        assert len(N) == 16
        assert all(N[j, i, k] == -v for (i, j, k), v in N.items())


class TestJAscendingSeries:
    def test_g21_canonical_at_one(self):
        j = J21_CANON.substitute(ParamBinding({"a": 1}))
        series = j_ascending_series(G21, j)
        assert [len(b) for b in series] == [2, 4, 6]
        assert is_nilpotent_J(G21, j)

    def test_abelian_reaches_everything_at_once(self):
        series = j_ascending_series(ABELIAN, J_NAIVE)
        assert [len(b) for b in series] == [6]
        assert is_nilpotent_J(ABELIAN, J_NAIVE)

    def test_g24_canonical_bound(self):
        j = Endomorphism([
            ["1", "-2", "0", "0", "0", "0"],
            ["1", "-1", "0", "0", "0", "0"],
            ["0", "0", "0", "-2", "0", "0"],
            ["0", "0", "1/2", "0", "0", "0"],
            ["0", "0", "0", "0", "1", "2"],
            ["0", "0", "0", "0", "-1", "-1"],
        ])
        assert linalg.is_zero_matrix(almost_complex_residual(j))
        assert is_nilpotent_J(G24, j)

    def test_unbound_parameters_rejected(self):
        with pytest.raises(ValueError, match="unbound"):
            j_ascending_series(G21, J21_CANON)

    def test_series_terms_are_J_invariant_and_bounded(self):
        j = J21_CANON.substitute(ParamBinding({"a": 1}))
        jseries = j_ascending_series(G21, j)
        gseries = ascending_series(G21)
        for level, term in enumerate(jseries):
            for row in term:
                assert term.contains(j.apply(Vector(row)))
                assert gseries[level].contains(Vector(row))


class TestAbelianJ:
    def test_g21_canonical_symbolic(self):
        assert is_abelian_J(G21, J21_CANON)

    def test_g16_J0_not_abelian(self):
        # [J0 e1, J0 e3] = [-e2, e4] = -e5 while [e1, e3] = e5
        assert not is_abelian_J(G16, J0_G16)

    def test_g16_family_member_abelian(self):
        # the psi34 = 1 structure on the second form flips enough signs
        j = Endomorphism([
            ["0", "-1", "0", "0", "0", "0"],
            ["1", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "-1", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
            ["0", "0", "0", "0", "-1", "0"],
        ])
        assert is_abelian_J(G16, j)

    def test_g24_canonical_not_abelian(self):
        j = Endomorphism([
            ["1", "-2", "0", "0", "0", "0"],
            ["1", "-1", "0", "0", "0", "0"],
            ["0", "0", "0", "-2", "0", "0"],
            ["0", "0", "1/2", "0", "0", "0"],
            ["0", "0", "0", "0", "1", "2"],
            ["0", "0", "0", "0", "-1", "-1"],
        ])
        assert not is_abelian_J(G24, j)

    @pytest.mark.parametrize("n", [4, 8])
    def test_a_j_of_another_dimension_is_refused(self, n):
        j = Endomorphism([[1 if c == r else 0 for c in range(n)] for r in range(n)])
        with pytest.raises(ValueError, match="dimension does not match"):
            is_abelian_J(G21, j)


def _basis(alg):
    return [Vector(row) for row in linalg.identity(alg.dim)]


def test_derived_subalgebra_pairs_trivially_with_center():
    # omega(C1 g, Z) = 0 for the symplectic forms stored on g21; the
    # brackets [e_i, e_j] span C1 = <e4, e6>, and Z = <e5, e6>
    c1 = linalg.span(bracket(G21, x, y) for x, y in product(_basis(G21), repeat=2))
    z = ascending_series(G21)[0]
    assert (len(c1), len(z)) == (2, 2)
    for x in c1:
        for y in z:
            assert W2_G21.apply(Vector(x), Vector(y)).is_zero()


@pytest.mark.parametrize(
    "psi34,dimension,conditions,nondegenerate_member",
    [(None, 4, ["psi34 - 1"], False), (1, 6, [], True), (-1, 4, [], False)],
)
def test_g16_j2_has_a_symplectic_partner_only_at_psi34_1(
        psi34, dimension, conditions, nondegenerate_member):
    # "closed and compatible with J2" is linear in the 15 coefficients of a
    # 2-form: a generic psi34 (the rref assumes psi34 != 1) and the canonical
    # psi34 = -1 leave only degenerate forms, psi34 = 1 nondegenerate ones
    entry = catalog.get("g16")
    J = entry.structure("J2").J
    if psi34 is not None:
        J = J.substitute(ParamBinding({"psi34": psi34}))
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    columns = []
    for i, j in pairs:
        w = TwoForm.from_terms(6, [(i, j, 1)])
        columns.append((exterior_d(entry.algebra, w), compat_residual(w, J)))
    triples = sorted(set().union(*(d for d, _ in columns)))
    rows = [[d.get(t, Scalar.from_int(0)) for d, _ in columns] for t in triples]
    rows += [[r[a][b] for _, r in columns] for a in range(6) for b in range(6)]
    span, side = linalg.nullspace(rows)
    assert (len(span), [str(c) for c in side]) == (dimension, conditions)
    t = [Scalar.param(f"t{k}") for k in range(len(span))]
    member = [sum((tk * row[c] for tk, row in zip(t, span)), Scalar.from_int(0))
              for c in range(len(pairs))]
    form = TwoForm.from_terms(6, [(i, j, c) for (i, j), c in zip(pairs, member)])
    assert nondegenerate(form) == nondegenerate_member


# -- the sparse tensors against their definitions -----------------------------


def _nijenhuis_by_definition(alg, J):
    """N(e_i, e_j) = [Je_i, Je_j] - [e_i, e_j] - J[Je_i, e_j] - J[e_i, Je_j]."""
    basis = _basis(alg)
    images = [J.apply(e) for e in basis]
    out = {}
    for i, j in product(range(alg.dim), repeat=2):
        v = (bracket(alg, images[i], images[j]) - bracket(alg, basis[i], basis[j])
             - J.apply(bracket(alg, images[i], basis[j]))
             - J.apply(bracket(alg, basis[i], images[j])))
        out.update({(i, j, k): c for k, c in enumerate(v) if not c.is_zero()})
    return out


def _d_by_definition(alg, w):
    """dw(e_i, e_j, e_k) = w([e_i, e_j], e_k) - w([e_i, e_k], e_j) + w([e_j, e_k], e_i)."""
    basis = _basis(alg)
    br = [[bracket(alg, x, y) for y in basis] for x in basis]
    out = {}
    for i, j, k in product(range(alg.dim), repeat=3):
        v = (w.apply(br[i][j], basis[k]) - w.apply(br[i][k], basis[j])
             + w.apply(br[j][k], basis[i]))
        if not v.is_zero():
            out[i, j, k] = v
    return out


def _dyadic(rng, n):
    # entries k/8, the exact values of the floats residual_sup_norms lifts
    return [[Fraction(rng.randint(-12, 12), 8) for _ in range(n)] for _ in range(n)]


def _definition_cases():
    """(algebra, form, J): the 19 families with parameters free and at their
    canonical bindings, and one seeded dyadic form and J per algebra."""
    cases = []
    for name in catalog.NAMES:
        entry = catalog.get(name)
        for s in entry.structures:
            w, b = entry.form(s.form_id).form, s.binding()
            cases.append(pytest.param(entry.algebra, w, s.J, id=f"{name}-{s.id}-free"))
            cases.append(pytest.param(entry.algebra, w.substitute(b), s.J.substitute(b),
                                      id=f"{name}-{s.id}-canonical"))
        n, rng = entry.algebra.dim, random.Random(f"dyadic/{name}")
        a = _dyadic(rng, n)
        w = TwoForm([[a[i][j] - a[j][i] for j in range(n)] for i in range(n)])
        J = Endomorphism(_dyadic(rng, n))
        cases.append(pytest.param(entry.algebra, w, J, id=f"{name}-dyadic"))
    return cases


@pytest.mark.parametrize("alg,w,J", _definition_cases())
def test_sparse_tensors_match_their_definitions(alg, w, J):
    assert nijenhuis(alg, J) == _nijenhuis_by_definition(alg, J)
    assert exterior_d(alg, w) == _d_by_definition(alg, w)


def _d_by_cyclic_loop(alg, w):
    """The reference: each C_ab^p w_pt on (a, b, t), (t, a, b) and (b, t, a),
    term by term."""
    out = {}
    for (a, b, p), c in alg.constants.items():
        for t, wpt in enumerate(w.omega[p]):
            if t != a and t != b and not wpt.is_zero():
                for idx in ((a, b, t), (t, a, b), (b, t, a)):
                    out[idx] = out[idx] + c * wpt if idx in out else c * wpt
    return {idx: v for idx, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("alg,w", [
    pytest.param(catalog.get(name).algebra, f.form, id=f"{name}-{f.id}")
    for name in catalog.NAMES for f in catalog.get(name).forms])
def test_exterior_d_matches_the_cyclic_loop(alg, w):
    assert exterior_d(alg, w) == _d_by_cyclic_loop(alg, w)


def _compat_by_definition(w, J):
    """J omega + omega J^T: entry (i, j) is omega_kj J_i^k + omega_is J_j^s."""
    return linalg.mat_add(linalg.mat_mul(J.rows, w.omega),
                          linalg.mat_mul(w.omega, linalg.transpose(J.rows)))


def _stored_forms_with_dyadic_J():
    """Every stored form, with parameters free, and a seeded dyadic J."""
    return [
        pytest.param(f.form, Endomorphism(_dyadic(random.Random(f"compat/{name}/{f.id}"), 6)),
                     id=f"{name}-{f.id}")
        for name in catalog.NAMES
        for f in catalog.get(name).forms
    ]


@pytest.mark.parametrize(
    "w,J",
    [pytest.param(*c.values[1:], id=c.id) for c in _definition_cases()]
    + _stored_forms_with_dyadic_J(),
)
def test_compat_residual_matches_its_definition(w, J):
    assert compat_residual(w, J) == _compat_by_definition(w, J)
