import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeburnside import khovanov as kh
from cubeburnside.linalg import Matrix, invariant_factors, sparse_product
from cubeburnside.totalization import dualize, tot
from snf_reference import dense_product, det, per_matrix_invariant_factors, smith_normal_form


def test_zero_matrix():
    s = smith_normal_form(Matrix.zero(3, 2))
    assert s.d.is_zero()
    assert s.invariant_factors == ()
    assert invariant_factors(Matrix.zero(3, 2)) == ()


def test_single_entry():
    s = smith_normal_form(Matrix.from_rows([[2]]))
    assert s.diagonal == (2,)
    assert invariant_factors(Matrix.from_rows([[2]])) == (2,)


def test_two_by_two():
    # gcd 2 and |det| 8 force the factors (2, 4)
    m = Matrix.from_rows([[2, 4], [6, 8]])
    assert smith_normal_form(m).invariant_factors == (2, 4)
    assert invariant_factors(m) == (2, 4)


def test_coprime_diagonal_folds_to_a_chain():
    # diag(2, 3) needs the gcd/lcm step: its factors are (1, 6)
    assert invariant_factors(Matrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert invariant_factors(Matrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 9]])) == (1, 6, 36)


def test_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        s = smith_normal_form(Matrix.zero(r, c))
        assert s.d.rows == r and s.d.cols == c
        assert invariant_factors(Matrix.zero(r, c)) == ()


def test_zeros_are_never_stored():
    assert Matrix.from_rows([[0, 2]]) == Matrix.from_columns(1, 2, [{}, {0: 2}])
    assert Matrix.from_columns(2, 2, [{0: 0, 1: 3}, {1: 0}]).columns == ({1: 3}, {})
    assert Matrix.from_rows([[0, 0], [0, 0]]) == Matrix.zero(2, 2)
    assert Matrix.from_rows([[1, 0], [0, 1]]) == Matrix.identity(2)
    assert (-Matrix.from_rows([[0, 2]])).columns == ({}, {0: -2})
    assert Matrix.from_rows([[0, 2], [3, 0]]).entries == ((0, 2), (3, 0))


@st.composite
def matrices(draw, entries=st.integers(-9, 9), rows=st.integers(0, 5), cols=st.integers(0, 5)):
    r, c = draw(rows), draw(cols)
    table = [[draw(entries) for _ in range(c)] for _ in range(r)]
    return Matrix.from_rows(table) if r else Matrix.zero(0, c)


# mostly zeros and units, as in totalized differentials, with some ±2 and ±3
SPARSE_ENTRIES = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3))
# no units at all, so pivots are chosen by least |entry|, remainders shrink
# them, and the recorded entries need the gcd/lcm step
NON_UNIT_ENTRIES = st.sampled_from((0, 0, 2, -2, 3, -3, 4, 6, 9, 12))


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_snf_properties(m):
    s = smith_normal_form(m)
    assert dense_product(dense_product(s.u, m), s.v) == s.d
    assert dense_product(s.u, s.u_inv) == Matrix.identity(m.rows)
    assert dense_product(s.v, s.v_inv) == Matrix.identity(m.cols)
    if m.rows:
        assert abs(det(s.u)) == 1
    if m.cols:
        assert abs(det(s.v)) == 1
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


@given(matrices(SPARSE_ENTRIES, st.integers(0, 7), st.integers(0, 7))
       | matrices(NON_UNIT_ENTRIES, st.integers(0, 6), st.integers(0, 6))
       | matrices())
@settings(max_examples=400, deadline=None)
def test_invariant_factors_match_snf(m):
    assert invariant_factors(m) == smith_normal_form(m).invariant_factors


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_product_matches_dense(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(matrices(SPARSE_ENTRIES, st.just(r), st.just(k)))
    b = data.draw(matrices(SPARSE_ENTRIES, st.just(k), st.just(c)))
    assert sparse_product(a, b) == list(dense_product(a, b).columns)


# -- the two phases of ``invariant_factors`` ----------------------------------

@pytest.mark.parametrize("rows, want", [
    # all entries are units, but eliminating one leaves [[-2]] for phase 2
    ([[1, 1], [1, -1]], (1, 2)),
    # column 0 is a unit alone: row 0 and column 0 go without reducing 2 and
    # 3 mod 1, and [[4, 6]] is left for phase 2
    ([[1, 2, 3], [0, 4, 6]], (1, 2)),
    # no unit entry: straight to phase 2, which may still find a unit
    ([[2, 4], [6, 8]], (2, 4)),
    ([[2, 3]], (1,)),
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
    # empty rows and columns
    ([[0, 1, 0, 2, 0], [0, 0, 0, 0, 0], [0, 1, 0, -2, 0], [0, 0, 0, 0, 0]], (1, 4)),
])
def test_unit_phase_edge_cases(rows, want):
    m = Matrix.from_rows(rows)
    assert invariant_factors(m) == want == smith_normal_form(m).invariant_factors


def _chain(diagonal):
    """The invariant factors of a diagonal matrix, prime by prime: the
    largest power of each prime goes to the last factor, the next largest to
    the one before, and so on."""
    nonzero = [abs(x) for x in diagonal if x]
    out = [1] * len(nonzero)
    for p in (2, 3):
        powers = []
        for x in nonzero:
            k = 0
            while x % p == 0:
                x //= p
                k += 1
            powers.append(k)
        for slot, k in enumerate(sorted(powers)):
            out[slot] *= p ** k
    return tuple(out)


def _planted(rng, rows, cols, ops):
    """U * D * V with D a random diagonal of units, zeros and 2, 3, 4, 6, 12,
    and U, V products of ``ops`` random elementary operations: adding ±1
    times a row (column) to another, or swapping two."""
    diagonal = [rng.choice((1, 1, -1, 0, 2, -3, 4, 6, 12)) for _ in range(min(rows, cols))]
    a = [{i: x} if x else {} for i, x in enumerate(diagonal)] + \
        [{} for _ in range(cols - len(diagonal))]
    for _ in range(ops):
        if rng.random() < 0.5:
            # column k += sign * column j, or swap them
            j, k = rng.sample(range(cols), 2)
            if rng.random() < 0.1:
                a[j], a[k] = a[k], a[j]
                continue
            sign = rng.choice((1, -1))
            for i, x in a[j].items():
                y = a[k].get(i, 0) + sign * x
                if y:
                    a[k][i] = y
                else:
                    del a[k][i]
        else:
            # row k += sign * row j, or swap them
            j, k = rng.sample(range(rows), 2)
            swap = rng.random() < 0.1
            sign = rng.choice((1, -1))
            for c in a:
                x, y = c.get(j, 0), c.get(k, 0)
                new = (y, x) if swap else (x, y + sign * x)
                for i, z in zip((j, k), new):
                    if z:
                        c[i] = z
                    else:
                        c.pop(i, None)
    return Matrix.from_columns(rows, cols, a), _chain(diagonal)


@given(st.integers(0, 2**32), st.integers(2, 300), st.integers(2, 300))
@settings(max_examples=25, deadline=None)
def test_invariant_factors_of_planted_diagonals(seed, rows, cols):
    rng = random.Random(seed)
    # about one operation per row and column keeps the product sparse, as
    # totalized differentials are
    m, want = _planted(rng, rows, cols, ops=rng.randint((rows + cols) // 2, rows + cols))
    assert invariant_factors(m) == want == per_matrix_invariant_factors(m)


def test_invariant_factors_of_khovanov_blocks(small_corpus):
    """Every quantum block of every small-corpus diagram, plain and reduced
    at basepoint 1: the differentials ``kh_table`` reduces, against the
    transform-tracking reference."""
    for name, pd in sorted(small_corpus.items()):
        variants = [(False, kh.build_khovanov_functor(pd))]
        if 1 in pd.arcs():
            variants.append((True, kh.reduced_functor(pd, 1)))
        for reduced, sf in variants:
            for j, part in kh.split_by_quantum(pd, sf, reduced=reduced).items():
                for d, m in dualize(tot(part)).diffs.items():
                    assert invariant_factors(m) == \
                        smith_normal_form(m).invariant_factors, (name, reduced, j, d)
