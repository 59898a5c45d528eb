"""Fraction-field elimination: rref, rank, inverse, nullspace, spans, signature."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilkaehler import linalg
from nilkaehler.scalar import ZERO, Scalar, parse_expr

x = Scalar.param("x")
y = Scalar.param("y")


def frac_matrix(rows):
    return linalg.as_matrix([[Fraction(v) for v in row] for row in rows])


def as_row(entries):
    return linalg.as_matrix([entries])[0]


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


# ---------------------------------------------------------------- full rank


def full_rank(m):
    """Nonsingular over the fraction field: every row has a pivot."""
    return len(linalg.rref(m)[1]) == len(m)


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_maybe_singular(draw):
    """A 3x3 integer matrix whose last row is, half of the time, a
    combination of the other two."""
    rows = draw(int_matrix(3))
    if draw(st.booleans()):
        a, b = draw(int_entries), draw(int_entries)
        rows[2] = [a * p + b * q for p, q in zip(rows[0], rows[1])]
    return rows


@given(square_maybe_singular())
@settings(max_examples=60, deadline=None)
def test_full_rank_exactly_when_leibniz_det_is_nonzero(rows):
    assert full_rank(frac_matrix(rows)) == (leibniz_det(rows) != 0)


def test_full_rank_symbolic():
    # det [[x, 1], [1, x]] = x^2 - 1 is a nonzero function; [[x, y], [x, y]] has rank 1
    assert full_rank(linalg.as_matrix([[x, 1], [1, x]]))
    rank_one = linalg.as_matrix([[x, y], [x, y]])
    assert len(linalg.rref(rank_one)[1]) == 1
    assert not full_rank(rank_one)


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
    m, v = frac_matrix(case[0]), as_row(case[1])
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
    assume(full_rank(m))
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
    basis = linalg.span([as_row([1, 0, 1]), as_row([0, 1, 1])])
    assert basis.contains(as_row([2, 3, 5]))
    assert not basis.contains(as_row([0, 0, 1]))
    assert linalg.span([]).contains(as_row([0, 0, 0]))


@given(rows_and_vector())
@settings(max_examples=60, deadline=None)
def test_span_contains_exactly_when_the_rank_stays(case):
    rows, v = frac_matrix(case[0]), as_row(case[1])
    span = linalg.span(rows)
    assert span.contains(v) == (len(linalg.span(rows + (v,))) == len(span))


@given(rows_and_vector())
@settings(max_examples=60, deadline=None)
def test_span_reduce_leaves_the_part_outside_the_span(case):
    rows, v = frac_matrix(case[0]), as_row(case[1])
    span = linalg.span(rows)
    rest = span.reduce(v)
    assert all(rest[c].is_zero() for c in span.pivots)
    assert all(e.is_zero() for e in rest) == span.contains(v)
    assert span.contains([a - b for a, b in zip(v, rest)])


def test_span_refuses_free_parameters():
    with pytest.raises(ValueError, match="unbound parameters: x, y"):
        linalg.span(linalg.as_matrix([[x, 1], [0, y]]))


def test_symbolic_nullspace_membership_needs_no_rank_decision():
    # the pivot x is assumed nonzero and reported; membership is then an
    # identity of rational functions, decided without elimination
    null, conditions = linalg.nullspace(linalg.as_matrix([[x, 1]]))
    assert [str(c) for c in conditions] == ["x"]
    assert null.contains(as_row([-1, x]))
    assert not null.contains(as_row([1, 0]))


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
    s = Scalar.param("s")
    b = linalg.as_matrix(
        [[p + q * s for p, q in zip(ra, rc)] for ra, rc in zip(a, c)]
    )
    assume(full_rank(b))
    d = linalg.as_matrix(
        [[sign if i == j else 0 for j in range(4)] for i, sign in enumerate(signs)]
    )
    prod = linalg.mat_mul(linalg.transpose(b), linalg.mat_mul(d, b))
    expected = (signs.count(1), signs.count(-1))
    assert linalg.symmetric_signature(prod) == expected


@pytest.mark.parametrize("text", ["3", "-2/5", "s", "1 + s", "s/2 - 3"])
def test_constant_pivots_give_no_condition(text):
    # a value free of parameters (sqrt(2) included) never vanishes
    assert linalg._condition(parse_expr(text)) is None
    m = linalg.as_matrix([[text, 1], [0, "x"]])
    assert [str(c) for c in linalg.rref(m)[2]] == ["x"]


TENSOR_VALUES = [Scalar.from_int(1), Scalar.from_int(-1), Scalar.from_int(2),
                 Scalar.from_fraction(Fraction(1, 2)), x, x + 1, -x, Scalar.param("s")]


@st.composite
def tensor_slot_vector(draw):
    """A sparse tensor of 3 or 4 indices over range(3), a slot and a vector."""
    rank, n = draw(st.sampled_from([3, 4])), 3
    index = st.tuples(*[st.integers(0, n - 1)] * rank)
    t = draw(st.dictionaries(index, st.sampled_from(TENSOR_VALUES), max_size=12))
    slot = draw(st.integers(0, rank - 1))
    vec = draw(st.lists(st.sampled_from([ZERO] + TENSOR_VALUES), min_size=n, max_size=n))
    return t, rank, slot, vec


@given(tensor_slot_vector())
@settings(max_examples=200, deadline=None)
def test_contract_is_the_dense_sum(case):
    t, rank, slot, vec = case
    dense = {}
    for rest in product(range(len(vec)), repeat=rank - 1):
        total = ZERO
        for i, vi in enumerate(vec):
            total = total + vi * t.get(rest[:slot] + (i,) + rest[slot:], ZERO)
        if not total.is_zero():
            dense[rest] = total
    assert linalg.contract(t, slot, vec) == dense


@st.composite
def tensor_slot_matrix(draw):
    """A sparse tensor of 3 or 4 indices over range(3), a slot and a 3x3 matrix."""
    t, rank, slot, _ = draw(tensor_slot_vector())
    entry = st.sampled_from([ZERO, ZERO] + TENSOR_VALUES)
    m = draw(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
    return t, rank, slot, m


@given(tensor_slot_matrix())
@settings(max_examples=200, deadline=None)
def test_transform_is_the_dense_sum(case):
    t, rank, slot, m = case
    dense = {}
    for idx in product(range(len(m)), repeat=rank):
        total = ZERO
        for i, row in enumerate(m):
            total = total + t.get(idx[:slot] + (i,) + idx[slot + 1:], ZERO) * row[idx[slot]]
        if not total.is_zero():
            dense[idx] = total
    assert linalg.transform(t, slot, m) == dense


@st.composite
def two_tensors_and_slots(draw):
    """Two sparse tensors of 2 to 4 indices over range(3) and a slot of each."""
    def tensor():
        rank = draw(st.integers(2, 4))
        index = st.tuples(*[st.integers(0, 2)] * rank)
        return draw(st.dictionaries(index, st.sampled_from(TENSOR_VALUES), max_size=10)), rank

    (s, rs), (t, rt) = tensor(), tensor()
    return s, rs, draw(st.integers(0, rs - 1)), t, rt, draw(st.integers(0, rt - 1))


@given(two_tensors_and_slots())
@settings(max_examples=200, deadline=None)
def test_compose_is_the_dense_sum(case):
    s, rs, si, t, rt, ti = case
    dense = {}
    for idx in product(range(3), repeat=rs + rt - 2):
        head, rest, tail = idx[:si], idx[si:si + rt - 1], idx[si + rt - 1:]
        total = ZERO
        for p in range(3):
            u = s.get(head + (p,) + tail, ZERO)
            v = t.get(rest[:ti] + (p,) + rest[ti:], ZERO)
            total = total + u * v
        if not total.is_zero():
            dense[idx] = total
    assert linalg.compose(s, si, t, ti) == dense
