"""The elimination kernel (``linalg.cancel_units``) behind ``homology`` and
``invariant_factors``, against independent references: the per-matrix
route, which reduces each differential on its own, and the dense Smith
normal form (both in ``snf_reference``)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cubeburnside import khovanov as kh
from cubeburnside.linalg import Matrix, cancel_units
from cubeburnside.totalization import ChainComplex, dualize, homology, tot
from snf_reference import per_matrix_homology, smith_normal_form


def snf_homology(c):
    return per_matrix_homology(c, lambda m: smith_normal_form(m).invariant_factors)


def nontrivial(groups):
    return {d: (h.free_rank, h.torsion) for d, h in groups.items() if not h.is_trivial}


def _torsion(orders):
    """The invariant factors > 1 of the sum of the cyclic groups Z/n."""
    if not orders:
        return ()
    diagonal = Matrix.from_columns(len(orders), len(orders), ({k: n} for k, n in enumerate(orders)))
    return tuple(x for x in smith_normal_form(diagonal).invariant_factors if x > 1)


@st.composite
def elementary_sums(draw):
    """A direct sum of lone generators and elementary complexes Z --n--> Z
    over degrees 0..4, with each degree's basis changed by random
    unimodular operations.  Returns the complex and its nontrivial homology:
    n = 0 leaves both ends free, n = ±1 cancels them, and |n| > 1 leaves
    Z/|n| at the target."""
    pieces = draw(st.lists(st.tuples(st.integers(0, 3),
                                     st.sampled_from((None, 0, 1, -1, 1, -1, 2, -2, 3, 4, 6, 12))),
                           min_size=1, max_size=10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    dims: dict[int, int] = {}
    entries = []  # (degree of the source, source, target, n)
    rank: dict[int, int] = {}
    orders: dict[int, list[int]] = {}
    for k, n in pieces:
        if n is None:
            dims[k] = dims.get(k, 0) + 1
            rank[k] = rank.get(k, 0) + 1
            continue
        src, tgt = dims.get(k + 1, 0), dims.get(k, 0)
        dims[k + 1], dims[k] = src + 1, tgt + 1
        entries.append((k + 1, src, tgt, n))
        if n == 0:
            for d in (k, k + 1):
                rank[d] = rank.get(d, 0) + 1
        elif abs(n) > 1:
            orders.setdefault(k, []).append(abs(n))
    # dense differentials, mats[d][target][source]
    mats = {d: [[0] * dims[d] for _ in range(dims[d - 1])] for d in dims if d - 1 in dims}
    for d, s, t, n in entries:
        mats[d][t][s] = n
    for _ in range(rng.randint(0, 3 * sum(dims.values()))):
        d = rng.choice(sorted(dims))
        if dims[d] < 2:
            continue
        a, b = rng.sample(range(dims[d]), 2)
        s = rng.choice((1, -1, 2))
        # generator a of C_d becomes a + s*b: column a of d_d gains s times
        # column b, and row b of d_{d+1} loses s times row a
        if d in mats:
            for row in mats[d]:
                row[a] += s * row[b]
        if d + 1 in mats:
            m = mats[d + 1]
            m[b] = [y - s * x for x, y in zip(m[a], m[b])]
    basis = {d: tuple(f"g{i}" for i in range(n)) for d, n in dims.items()}
    diffs = {d: Matrix.from_rows(m) if m else Matrix.zero(0, dims[d]) for d, m in mats.items()}
    want = {d: (rank.get(d, 0), _torsion(orders.get(d, []))) for d in dims}
    return ChainComplex.build(basis, diffs), {d: g for d, g in want.items() if g != (0, ())}


def khovanov_blocks(diagrams):
    """Every quantum block of every diagram, plain and reduced at basepoint
    1, totalized and dualized."""
    for name, pd in sorted(diagrams.items()):
        variants = [(False, kh.build_khovanov_functor(pd))]
        if 1 in pd.arcs():
            variants.append((True, kh.reduced_functor(pd, 1)))
        for reduced, sf in variants:
            for j, part in kh.split_by_quantum(pd, sf, reduced=reduced).items():
                c = tot(part)
                yield (name, reduced, j), c
                yield (name, reduced, j, "dual"), dualize(c)


def permuted(c, rng):
    """c with each degree's basis in a random order."""
    order = {d: rng.sample(range(c.dim(d)), c.dim(d)) for d in c.degrees()}
    new = {d: {old: k for k, old in enumerate(o)} for d, o in order.items()}
    diffs = {d: Matrix.from_columns(m.rows, m.cols, (
                 {new[d - 1][i]: x for i, x in m.columns[j].items()} for j in order[d]))
             for d, m in c.diffs.items()}
    return ChainComplex.build({d: tuple(c.basis[d][k] for k in o) for d, o in order.items()},
                              diffs)


def residue_complex(c):
    """What ``cancel_units`` leaves of c, as a complex on the generators no
    pivot took; building it checks that it squares to zero."""
    cancelled, residue = cancel_units(c.diffs)
    kept = {d: [g for g in range(c.dim(d)) if g not in cancelled.get(d, ())]
            for d in c.degrees()}
    at = {d: {g: k for k, g in enumerate(gs)} for d, gs in kept.items()}
    diffs = {}
    for d, rows in residue.items():
        cols = [{} for _ in kept[d]]
        for i, r in rows.items():
            assert i not in cancelled[d - 1] and not set(r) & cancelled[d]
            for j, x in r.items():
                assert x not in (0, 1, -1)
                cols[at[d][j]][at[d - 1][i]] = x
        diffs[d] = Matrix.from_columns(len(kept[d - 1]), len(kept[d]), cols)
    return ChainComplex.build({d: tuple(map(str, gs)) for d, gs in kept.items()}, diffs)


def uct_holds(c):
    """Universal coefficients: H^d of the dual has the free rank of H_d and
    the torsion of H_{d-1}."""
    h, dual = homology(c), homology(dualize(c))
    return all(dual[-d].free_rank == g.free_rank
               and dual[-d].torsion == (h[d - 1].torsion if d - 1 in h else ())
               for d, g in h.items())


@given(elementary_sums())
@settings(max_examples=150, deadline=None)
def test_homology_of_elementary_sums(case):
    c, want = case
    assert nontrivial(homology(c)) == want
    assert homology(c) == per_matrix_homology(c) == snf_homology(c)


@given(elementary_sums(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_residue_is_an_equivalent_complex_without_units(case, seed):
    c, want = case
    for cx in (c, permuted(c, random.Random(seed))):
        assert nontrivial(per_matrix_homology(residue_complex(cx))) == want


@given(elementary_sums(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_pivot_order_does_not_change_homology(case, seed):
    c, _ = case
    rng = random.Random(seed)
    for _ in range(3):
        assert homology(permuted(c, rng)) == homology(c)


@given(elementary_sums())
@settings(max_examples=100, deadline=None)
def test_universal_coefficients(case):
    assert uct_holds(case[0])


def test_khovanov_blocks_against_references(small_corpus):
    """The small corpus and T(2,5), the closure of σ1⁵: its blocks are the
    smallest here that catch a sign-flipped Schur complement."""
    rng = random.Random(5)
    diagrams = {**small_corpus, "T(2,5)": kh.braid_closure_pd([1] * 5, 2)}
    for key, c in khovanov_blocks(diagrams):
        h = homology(c)
        assert h == per_matrix_homology(c) == snf_homology(c), key
        assert nontrivial(per_matrix_homology(residue_complex(c))) == nontrivial(h), key
        assert homology(permuted(c, rng)) == h, key
        if "dual" not in key:
            assert uct_holds(c), key


def test_kernel_deletes_the_cancelled_rows_and_columns():
    """Two small complexes where a kernel that kept what a pivot cancelled
    would go wrong: d_2 a = b - c on top of d_1 b = d_1 c = e (first) or
    = 2e (second)."""
    d2 = Matrix.from_rows([[1], [-1]])
    basis = {0: ("e",), 1: ("b", "c"), 2: ("a",)}
    # e cancels b in d_1; row b of d_2 is gone, so c cancels a
    units = ChainComplex.build(basis, {1: Matrix.from_rows([[1, 1]]), 2: d2})
    assert cancel_units(units.diffs) == ({0: {0}, 1: {0, 1}, 2: {0}}, {1: {}, 2: {}})
    assert nontrivial(homology(units)) == {}
    # d_1 has no unit; b cancels a in d_2, and column b of d_1's residue goes
    twos = ChainComplex.build(basis, {1: Matrix.from_rows([[2, 2]]), 2: d2})
    assert cancel_units(twos.diffs) == ({0: set(), 1: {0}, 2: {0}}, {1: {0: {1: 2}}, 2: {}})
    assert nontrivial(homology(twos)) == {0: (0, (2,))}
