import random
from dataclasses import dataclass
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeburnside import cube, fixtures as FX, simplicial
from cubeburnside.burnside import Correspondence, FiniteSet
from cubeburnside.cube import FaceInclusion
from cubeburnside.errors import InputError, InternalInvariantError
from cubeburnside.functor import (CubeFunctorData, StableFunctor, coproduct,
                                  empty_functor, identity_transformation,
                                  product, quotient_functor,
                                  sub_inclusion_transformation)
from cubeburnside.linalg import Matrix, sparse_product
from cubeburnside.totalization import (ChainComplex, ChainMap, HomologyGroup,
                                       cone, complexes_equal_under, direct_sum,
                                       dualize, face_shift_iso, homology,
                                       homology_nontrivial, is_quasi_iso,
                                       shift_complex, tensor, tot, tot_nat_trans)
from snf_reference import dense_product, smith_normal_form, submatrix


def groups(c):
    return {d: (h.free_rank, h.torsion) for d, h in homology_nontrivial(c).items()}


def test_tot_projective(projective):
    c = tot(projective)
    assert c.basis == {0: ("0|f",), 1: ("1|e",)}
    assert c.diff(1) == Matrix.from_rows([[2]])
    assert groups(c) == {0: (0, (2,))}


def test_tot_empty():
    assert tot(empty_functor(2)) == ChainComplex({}, {})


def test_tot_product_ranks(projective):
    pp = product(projective, FX.projective_functor("x", "y", ("w1", "w2")))
    c = tot(pp)
    assert [c.dim(d) for d in (0, 1, 2)] == [1, 2, 1]
    assert groups(c) == {0: (0, (2,)), 1: (0, (2,))}


def test_tot_shift_negates_differential(projective):
    c0 = tot(StableFunctor(projective, 0))
    c1 = tot(StableFunctor(projective, 1))
    assert c1.diff(2) == -c0.diff(1)
    assert shift_complex(c0, 1) == c1


def test_tot_detects_square_failure():
    # two parallel one-element edges with mismatched composite counts
    vs = {cube.vertex_from_bits(k): FiniteSet((k,)) for k in ("11", "10", "01", "00")}

    def corr(a, b, k):
        u, v = cube.vertex_from_bits(a), cube.vertex_from_bits(b)
        return (u, v), Correspondence.of(
            vs[u], vs[v], [(f"{a}{b}{i}", a, b) for i in range(k)])

    ec = dict([corr("11", "10", 1), corr("10", "00", 1),
               corr("11", "01", 1), corr("01", "00", 2)])
    broken = CubeFunctorData.build(2, vs, ec, None)
    with pytest.raises(InternalInvariantError):
        tot(broken)


def test_homology_zero_complex():
    assert homology(ChainComplex({}, {})) == {}


def test_homology_direct_sum_additive():
    rng = random.Random(7)
    fixtures = [tot(FX.projective_functor()),
                tot(simplicial.delta_functor(FX.delta_projective_plane())),
                tot(product(FX.projective_functor(),
                            FX.projective_functor("x", "y", ("w1", "w2"))))]
    for _ in range(6):
        a, b = rng.choice(fixtures), rng.choice(fixtures)
        ds = direct_sum(a, b)
        expected = {}
        for d in set(list(a.basis) + list(b.basis)):
            ha = homology(a).get(d)
            hb = homology(b).get(d)
            rank = (ha.free_rank if ha else 0) + (hb.free_rank if hb else 0)
            tor = tuple(sorted((ha.torsion if ha else ()) + (hb.torsion if hb else ())))
            if rank or tor:
                expected[d] = (rank, tor)
        got = {d: (h.free_rank, tuple(sorted(h.torsion)))
               for d, h in homology_nontrivial(ds).items()}
        assert got == expected


def test_is_quasi_iso_examples(projective):
    c = tot(projective)
    ident = ChainMap.build(c, c, {d: Matrix.identity(c.dim(d)) for d in c.degrees()})
    assert is_quasi_iso(ident)
    zero = ChainMap.build(c, c, {})
    assert not is_quasi_iso(zero)


def test_quasi_iso_stable_under_isomorphisms(projective):
    iota = FaceInclusion(1, 3, (1, 0, 1), (1,))
    _, cm = face_shift_iso(projective, iota)
    assert is_quasi_iso(cm)


def test_dualize(projective):
    c = tot(projective)
    assert dualize(dualize(c)) == c
    d = dualize(c)
    assert groups(d) == {-1: (0, (2,))}
    assert dualize(ChainComplex({}, {})) == ChainComplex({}, {})


def _cone_label_map(d, lbl):
    tag, rest = lbl.split("·", 1)
    v, x = rest.split("|")
    return f"{tag}{v}|{x}"


def test_mapping_cone_identity_three_fixtures(projective, wedge_cube):
    support_f = {((1, 1, 0), "p3"), ((1, 0, 0), "p4"),
                 ((0, 1, 0), "p1"), ((0, 0, 0), "p2")}
    _, incl = sub_inclusion_transformation(wedge_cube, support_f)
    acyc = CubeFunctorData.build(
        1, {(1,): FiniteSet(("x",)), (0,): FiniteSet(("y",))},
        {((1,), (0,)): Correspondence.of(FiniteSet(("x",)), FiniteSet(("y",)),
                                         [("w", "x", "y")])}, {})
    b = coproduct(projective, acyc)
    _, proj = quotient_functor(b, {((1,), "l·e"), ((0,), "l·f")})
    for eta in (identity_transformation(projective), incl, proj):
        f = tot_nat_trans(eta)
        assert complexes_equal_under(cone(f), tot(eta.ambient), _cone_label_map)


def test_face_shift_iso_examples(projective):
    ident = FaceInclusion.identity(1)
    tw, cm = face_shift_iso(projective, ident)
    assert set(tw.values.values()) == {0}
    assert all(cm.matrix(d) == Matrix.identity(cm.source.dim(d))
               for d in cm.source.degrees())
    iota = FaceInclusion(1, 2, (1, 0), (1,))
    tw2, cm2 = face_shift_iso(projective, iota)
    w = iota.weight
    for (u, v) in cube.edges(1):
        lhs = (tw2.values[u] + tw2.values[v]) % 2
        rhs = (w + cube.sign_assignment(u, v)
               + cube.sign_assignment(iota.apply(u), iota.apply(v))) % 2
        assert lhs == rhs
    assert is_quasi_iso(cm2)


def test_face_shift_iso_rejects_a_map_that_is_not_unimodular(projective, monkeypatch):
    # 2·id commutes with every differential, so only the unimodularity check
    # can tell that it is no isomorphism over Z
    build = ChainMap.build

    def doubled(source, target, matrices):
        return build(source, target, {
            d: Matrix.from_columns(m.rows, m.cols,
                                   ({i: 2 * x for i, x in c.items()} for c in m.columns))
            for d, m in matrices.items()})

    monkeypatch.setattr(ChainMap, "build", staticmethod(doubled))
    with pytest.raises(InternalInvariantError, match="not an isomorphism"):
        face_shift_iso(projective, FaceInclusion.identity(1))


def test_face_shift_iso_randomized(projective):
    rng = random.Random(11)
    functors = [projective,
                product(projective, FX.projective_functor("x", "y", ("w1", "w2"))),
                coproduct(projective, projective)]
    for f in functors:
        n = f.n
        for _ in range(8):
            big = rng.randint(n, n + 2)
            coords = rng.sample(range(big), n)
            bottom = [rng.randint(0, 1) for _ in range(big)]
            for c in coords:
                bottom[c] = 0
            iota = FaceInclusion(n, big, tuple(bottom), tuple(coords))
            tw, cm = face_shift_iso(f, iota)
            for (u, v) in cube.edges(n):
                assert (tw.values[u] + tw.values[v]) % 2 == \
                    (iota.weight + cube.sign_assignment(u, v)
                     + cube.sign_assignment(iota.apply(u), iota.apply(v))) % 2
            assert is_quasi_iso(cm)


def test_chain_map_must_commute(projective):
    c = tot(projective)
    other = ChainComplex.build(c.basis, {1: Matrix.from_rows([[3]])})
    with pytest.raises(InputError):
        ChainMap.build(c, other, {d: Matrix.identity(c.dim(d))
                                  for d in c.degrees()})
    # one wrong entry of a larger map breaks commutation
    big = tot(product(projective, FX.projective_functor("x", "y", ("w1", "w2"))))
    maps = {d: Matrix.identity(big.dim(d)) for d in big.degrees()}
    ChainMap.build(big, big, maps)
    maps[1] = Matrix.from_rows([[2, 0], [0, 1]])
    with pytest.raises(InputError):
        ChainMap.build(big, big, maps)


def test_d_squared_nonzero_is_caught():
    basis = {0: ("a",), 1: ("b",), 2: ("c",)}
    diffs = {1: Matrix.from_rows([[1]]), 2: Matrix.from_rows([[2]])}
    with pytest.raises(InternalInvariantError):
        ChainComplex.build(basis, diffs)
    # a complex constructed directly is checked too, before homology sees it
    with pytest.raises(InternalInvariantError):
        homology(ChainComplex(basis, diffs))


def test_d_squared_nonzero_in_the_last_column_only_is_caught():
    """d∘d is tested column by column and stops at the first nonzero one;
    a product whose only nonzero column is the last is still refused."""
    basis = {0: ("a",), 1: ("b1", "b2", "b3"), 2: ("c1", "c2", "c3")}
    d1 = Matrix.from_rows([[1, 0, 0]])
    d2 = Matrix.from_columns(3, 3, [{1: 1}, {2: 1}, {0: 1}])
    assert [bool(c) for c in sparse_product(d1, d2)] == [False, False, True]
    with pytest.raises(InternalInvariantError,
                       match="^differential does not square to zero at degree 2$"):
        ChainComplex.build(basis, {1: d1, 2: d2})


_ENTRIES = st.sampled_from((0, 0, 1, -1, 2, -2, 3, -3))


@st.composite
def two_term_complexes(draw):
    """C_{p+1} -> C_p with a random differential."""
    p = draw(st.integers(-1, 1))
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = [[draw(_ENTRIES) for _ in range(c)] for _ in range(r)]
    basis = {p: tuple(f"x{i}" for i in range(r)), p + 1: tuple(f"y{j}" for j in range(c))}
    return ChainComplex.build(basis, {p + 1: Matrix.from_rows(rows) if r else Matrix.zero(0, c)})


def _tensor_all(factors):
    c = factors[0]
    for other in factors[1:]:
        c = tensor(c, other)
    return c


# Reference homology, independent of ``invariant_factors``: generators are a
# kernel basis, relations the boundary image in kernel coordinates, both read
# off the full Smith normal form with its unimodular transforms.

@dataclass(frozen=True)
class _Presentation:
    kernel: Matrix        # dim C_d x k, columns form a saturated kernel basis
    relations: Matrix     # k x dim C_{d+1}


def _presentation(c: ChainComplex, d: int) -> _Presentation:
    nd = c.dim(d)
    snf = smith_normal_form(c.diff(d))
    r = snf.rank
    kernel_cols = list(range(r, nd))
    kernel = submatrix(snf.v, list(range(nd)), kernel_cols)
    coords = dense_product(snf.v_inv, c.diff(d + 1))
    rel = submatrix(coords, kernel_cols, list(range(c.dim(d + 1))))
    upper = submatrix(coords, list(range(r)), list(range(c.dim(d + 1))))
    if not upper.is_zero():
        raise InternalInvariantError("boundary image not contained in the kernel")
    return _Presentation(kernel, rel)


def _group_of(pres: _Presentation, d: int) -> HomologyGroup:
    k = pres.kernel.cols
    snf = smith_normal_form(pres.relations)
    facs = snf.invariant_factors
    torsion = tuple(x for x in facs if x > 1)
    return HomologyGroup(d, k - len(facs), torsion)


@given(st.lists(two_term_complexes(), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_homology_matches_presentation_path(factors):
    c = _tensor_all(factors)
    assert homology(c) == {d: _group_of(_presentation(c, d), d) for d in c.degrees()}


def _block_identity(rows, cols, k=1):
    return Matrix.from_rows([[k if i == j else 0 for j in range(cols)]
                             for i in range(rows)])


@given(st.lists(two_term_complexes(), min_size=1, max_size=2),
       st.lists(two_term_complexes(), min_size=1, max_size=2))
@settings(max_examples=80, deadline=None)
def test_is_quasi_iso_matches_homology(c_factors, d_factors):
    c, other = _tensor_all(c_factors), _tensor_all(d_factors)
    groups_c = homology(c).values()
    # k·id is invertible on Z only for k = ±1, and on Z/t exactly when gcd(k, t) = 1
    for k in (-1, 2, 3):
        scaled = ChainMap.build(c, c, {d: _block_identity(c.dim(d), c.dim(d), k)
                                       for d in c.degrees()})
        expected = all((h.free_rank == 0 or abs(k) == 1)
                       and all(gcd(k, t) == 1 for t in h.torsion) for h in groups_c)
        assert is_quasi_iso(scaled) == expected, k
    # the inclusion of a summand is a quasi-isomorphism iff the other summand is acyclic
    total = direct_sum(c, other)
    incl = ChainMap.build(c, total, {d: _block_identity(total.dim(d), c.dim(d))
                                     for d in c.degrees()})
    assert is_quasi_iso(incl) == all(h.is_trivial for h in homology(other).values())
