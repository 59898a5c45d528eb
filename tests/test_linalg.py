"""Fraction-field elimination: rref, inverse, nullspace, spans, det, signature."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilkaehler import linalg
from nilkaehler.scalar import ZERO, Scalar, parse_expr

x = Scalar.param("x")
y = Scalar.param("y")


def frac_matrix(rows):
    return linalg.as_matrix([[Fraction(v) for v in row] for row in rows])


int_entries = st.integers(-5, 5)


@st.composite
def rows_and_vector(draw):
    """Up to four integer rows and a vector of their width, which is a
    combination of the rows half of the time."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=4))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        return rows, [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    return rows, draw(row)


def int_matrix(n):
    return st.lists(
        st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


# ---------------------------------------------------------------- basics


def test_identity_and_multiplication():
    m = frac_matrix([[1, 2], [3, 4]])
    assert linalg.mat_mul(m, linalg.identity(2)) == m
    sq = linalg.mat_mul(m, m)
    assert sq == frac_matrix([[7, 10], [15, 22]])


def test_transpose_involution():
    m = linalg.as_matrix([[x, 1, 0], [2, y, x]])
    assert linalg.transpose(linalg.transpose(m)) == m


# ---------------------------------------------------------------- det


def test_det_3x3_leibniz_oracle():
    m = frac_matrix([[2, 0, 1], [1, 3, -1], [0, 5, 4]])
    # a(ei-fh) - b(di-fg) + c(dh-eg)
    expected = 2 * (3 * 4 - (-1) * 5) - 0 + 1 * (1 * 5 - 3 * 0)
    assert linalg.det(m) == Scalar.from_int(expected)


def test_det_symbolic():
    m = linalg.as_matrix([[x, 1], [1, x]])
    assert linalg.det(m) == parse_expr("x^2 - 1")
    assert linalg.det(linalg.as_matrix([[x, y], [x, y]])) == ZERO


@given(int_matrix(3), int_matrix(3))
@settings(max_examples=30, deadline=None)
def test_det_is_multiplicative(a, b):
    ma, mb = frac_matrix(a), frac_matrix(b)
    assert linalg.det(linalg.mat_mul(ma, mb)) == linalg.det(ma) * linalg.det(mb)


# ---------------------------------------------------------------- rref


def test_rref_known_case():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots, _ = linalg.rref(m)
    assert pivots == (0, 1)
    assert reduced[2] == (ZERO, ZERO, ZERO)


def test_rank_counts_pivots():
    # the rank is the length of the row Span
    m = frac_matrix([[1, 2], [2, 4]])
    assert len(linalg.span(m)) == 1
    assert len(linalg.span(linalg.identity(4))) == 4


# ---------------------------------------------------------------- nullspace


@given(rows_and_vector())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_annihilated(case):
    assume(case[0])  # a matrix without rows has no column count
    m, v = frac_matrix(case[0]), linalg.as_row(case[1])
    null, _ = linalg.nullspace(m)
    assert len(null) + len(linalg.span(m)) == len(v)
    for r in null:
        assert all(e.is_zero() for e in linalg.mat_vec(m, r))
    # membership in a nullspace Span is membership in the kernel
    assert null.contains(v) == all(e.is_zero() for e in linalg.mat_vec(m, v))
    combination = [sum((c * r[j] for c, r in zip(v, null)), ZERO) for j in range(len(v))]
    assert null.contains(combination)


def test_nullspace_of_identity_is_trivial():
    null, _ = linalg.nullspace(linalg.identity(3))
    assert len(null) == 0


# ---------------------------------------------------------------- inverse


@given(int_matrix(3))
@settings(max_examples=30, deadline=None)
def test_inverse_times_matrix_is_identity(entries):
    m = frac_matrix(entries)
    assume(not linalg.det(m).is_zero())
    assert linalg.mat_mul(m, linalg.invert(m)) == linalg.identity(3)
    assert len(linalg.rref(m)[2]) == 0  # numeric pivots never add conditions


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.invert(frac_matrix([[1, 2], [2, 4]]))


def test_inverse_symbolic_records_side_conditions():
    m = linalg.as_matrix([[x]])
    assert linalg.invert(m) == linalg.as_matrix([["1/x"]])
    assert [str(c) for c in linalg.rref(m)[2]] == ["x"]


def test_constant_pivots_preferred_over_symbolic():
    # column 0 offers both x (row 0) and 1 (row 1); choosing 1 avoids any
    # condition, and det = -1 means none is mathematically needed either
    m = linalg.as_matrix([[x, 1], [1, 0]])
    assert len(linalg.rref(m)[2]) == 0
    assert linalg.invert(m) == linalg.as_matrix([[0, 1], [1, "-x"]])


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([["2/x"]], []),  # the numerator 2 never vanishes
        ([["2*x"]], ["x"]),  # the primitive part, not 2*x
        ([["-2*s*x - 4*y"]], ["s*x + 2*y"]),
        ([["x/y", 0], [0, "x"]], ["x"]),  # the same x, whatever the denominator
        (
            [["2*x", 0, 0, 0], [0, "-x/3", 0, 0], [0, 0, "(2*x+4)/y", 0], [0, 0, 0, "3*s"]],
            ["x", "x + 2"],
        ),
    ],
)
def test_side_conditions_are_canonical(rows, expected):
    # sign-normalised primitive parts: no constants, no duplicates up to a unit
    assert [str(c) for c in linalg.rref(linalg.as_matrix(rows))[2]] == expected


# ---------------------------------------------------------------- span


def test_in_row_span():
    basis = linalg.span([linalg.as_row([1, 0, 1]), linalg.as_row([0, 1, 1])])
    assert basis.contains(linalg.as_row([2, 3, 5]))
    assert not basis.contains(linalg.as_row([0, 0, 1]))
    assert linalg.span([]).contains(linalg.as_row([0, 0, 0]))


@given(rows_and_vector())
@settings(max_examples=60, deadline=None)
def test_span_contains_exactly_when_the_rank_stays(case):
    rows, v = frac_matrix(case[0]), linalg.as_row(case[1])
    span = linalg.span(rows)
    assert span.contains(v) == (len(linalg.span(rows + (v,))) == len(span))


def test_span_refuses_free_parameters():
    with pytest.raises(ValueError, match="unbound parameters: x, y"):
        linalg.span(linalg.as_matrix([[x, 1], [0, y]]))


def test_symbolic_nullspace_membership_needs_no_rank_decision():
    # the pivot x is assumed nonzero and reported; membership is then an
    # identity of rational functions, decided without elimination
    null, conditions = linalg.nullspace(linalg.as_matrix([[x, 1]]))
    assert [str(c) for c in conditions] == ["x"]
    assert null.contains(linalg.as_row([-1, x]))
    assert not null.contains(linalg.as_row([1, 0]))


# ---------------------------------------------------------------- signature


def test_signature_definite_and_split():
    assert linalg.symmetric_signature([[1, 0], [0, 1]]) == (2, 0)
    assert linalg.symmetric_signature([[-2, 0], [0, -3]]) == (0, 2)
    assert linalg.symmetric_signature([[0, 1], [1, 0]]) == (1, 1)


def test_signature_zero_diagonal_repair_edge():
    # [[0,1],[1,-2]] has eigenvalues -1 +/- sqrt(2): one of each sign,
    # and the naive "add partner row" repair would land on a zero diagonal
    assert linalg.symmetric_signature([[0, 1], [1, -2]]) == (1, 1)


def test_signature_errors():
    with pytest.raises(ValueError):
        linalg.symmetric_signature([[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        linalg.symmetric_signature([[1, 2], [3, 4]])


@given(
    st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4),
    int_matrix(4),
    int_matrix(4),
)
@settings(max_examples=40, deadline=None)
def test_signature_is_congruence_invariant(signs, a, c):
    """signature(B^T D B) = signature(D) for nonsingular B = A + sqrt(2) C (Sylvester)."""
    s = Scalar.sqrt2()
    b = linalg.as_matrix(
        [[p + q * s for p, q in zip(ra, rc)] for ra, rc in zip(a, c)]
    )
    assume(not linalg.det(b).is_zero())
    d = linalg.as_matrix(
        [[sign if i == j else 0 for j in range(4)] for i, sign in enumerate(signs)]
    )
    prod = linalg.mat_mul(linalg.transpose(b), linalg.mat_mul(d, b))
    expected = (signs.count(1), signs.count(-1))
    assert linalg.symmetric_signature(prod) == expected


@pytest.mark.parametrize("text", ["3", "-2/5", "s", "1 + s", "s/2 - 3"])
def test_constant_pivots_give_no_condition(text):
    # a value free of parameters (sqrt(2) included) never vanishes
    conditions = linalg.SideConditions()
    conditions.require_nonzero(parse_expr(text))
    assert len(conditions) == 0
    m = linalg.as_matrix([[text, 1], [0, "x"]])
    assert [str(c) for c in linalg.rref(m)[2]] == ["x"]
