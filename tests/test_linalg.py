from hypothesis import given, settings
from hypothesis import strategies as st

from cubeburnside.linalg import (Matrix, invariant_factors, smith_normal_form,
                                 sparse_product)


def test_zero_matrix():
    s = smith_normal_form(Matrix.zero(3, 2))
    assert s.d.is_zero()
    assert s.invariant_factors == ()


def test_single_entry():
    s = smith_normal_form(Matrix.from_rows([[2]]))
    assert s.diagonal == (2,)


def test_two_by_two():
    # gcd 2 and |det| 8 force the factors (2, 4)
    s = smith_normal_form(Matrix.from_rows([[2, 4], [6, 8]]))
    assert s.invariant_factors == (2, 4)


def test_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        s = smith_normal_form(Matrix.zero(r, c))
        assert s.d.rows == r and s.d.cols == c


@st.composite
def matrices(draw, entries=st.integers(-9, 9), rows=st.integers(0, 5), cols=st.integers(0, 5)):
    r, c = draw(rows), draw(cols)
    table = [[draw(entries) for _ in range(c)] for _ in range(r)]
    return Matrix.from_rows(table) if r else Matrix.zero(0, c)


# mostly zeros and units, as in totalized differentials, with some ±2 and ±3
SPARSE_ENTRIES = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3))


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_snf_properties(m):
    s = smith_normal_form(m)
    assert s.u * m * s.v == s.d
    assert s.u * s.u_inv == Matrix.identity(m.rows)
    assert s.v * s.v_inv == Matrix.identity(m.cols)
    if m.rows:
        assert abs(s.u.det()) == 1
    if m.cols:
        assert abs(s.v.det()) == 1
    diag = s.diagonal
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        elif diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
        assert diag[i] >= 0
    for i in range(s.d.rows):
        for j in range(s.d.cols):
            if i != j:
                assert s.d[i, j] == 0


@given(matrices(SPARSE_ENTRIES, st.integers(0, 7), st.integers(0, 7)) | matrices())
@settings(max_examples=300, deadline=None)
def test_invariant_factors_match_snf(m):
    assert invariant_factors(m) == smith_normal_form(m).invariant_factors


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_product_matches_dense(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(matrices(SPARSE_ENTRIES, st.just(r), st.just(k)))
    b = data.draw(matrices(SPARSE_ENTRIES, st.just(k), st.just(c)))
    dense = a * b
    assert sparse_product(a, b) == [{i: x for i, x in enumerate(dense.column(j)) if x}
                                    for j in range(c)]
