import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeburnside.burnside import (BijectionOver, Correspondence, FiniteSet,
                                   compose, identity_correspondence,
                                   is_two_morphism, linearize)
from cubeburnside.linalg import Matrix
from snf_reference import dense_product
from two_morphism_reference import is_two_morphism_reference


def test_finite_set_validation():
    with pytest.raises(ValueError):
        FiniteSet(("a", "a"))
    with pytest.raises(ValueError):
        FiniteSet(("a∘b",))
    s = FiniteSet(("b", "a"))
    assert s.positions == {"b": 0, "a": 1} and "positions" not in repr(s)


def test_identity_correspondence_examples():
    assert len(identity_correspondence(FiniteSet(()))) == 0
    one = identity_correspondence(FiniteSet(("a",)))
    assert [(e.id, e.s, e.t) for e in one.elements] == [("a", "a", "a")]
    two = identity_correspondence(FiniteSet(("a", "b")))
    assert [(e.s, e.t) for e in two.elements] == [("a", "a"), ("b", "b")]


def test_compose_unit_law():
    a = FiniteSet(("a",))
    b = FiniteSet(("b1", "b2"))
    x = Correspondence.of(a, b, [("p1", "a", "b1"), ("p2", "a", "b2")])
    comp = compose(identity_correspondence(b), x)
    assert is_two_morphism({e.id: f"{e.t}∘{e.id}" for e in x.elements}, x, comp)
    comp2 = compose(x, identity_correspondence(a))
    assert is_two_morphism({e.id: f"{e.id}∘{e.s}" for e in x.elements}, x, comp2)


def test_compose_fiber_product_example():
    a, b, c = FiniteSet(("a",)), FiniteSet(("b1", "b2")), FiniteSet(("c",))
    x = Correspondence.of(a, b, [("p1", "a", "b1"), ("p2", "a", "b2")])
    y = Correspondence.of(b, c, [("q1", "b1", "c"), ("q2", "b2", "c")])
    z = compose(y, x)
    assert sorted(e.id for e in z.elements) == ["q1∘p1", "q2∘p2"]
    assert all(e.s == "a" and e.t == "c" for e in z.elements)


def test_compose_empty():
    a, b, c = FiniteSet(("a",)), FiniteSet(("b",)), FiniteSet(("c",))
    x = Correspondence.of(a, b, [])
    y = Correspondence.of(b, c, [("q", "b", "c")])
    assert len(compose(y, x)) == 0


def test_compose_mismatch():
    a, b = FiniteSet(("a",)), FiniteSet(("b",))
    x = Correspondence.of(a, b, [])
    with pytest.raises(ValueError):
        compose(x, x)


def test_is_two_morphism_examples():
    a, b = FiniteSet(("a",)), FiniteSet(("b",))
    x = Correspondence.of(a, b, [("e1", "a", "b"), ("e2", "a", "b")])
    assert is_two_morphism({"e1": "e1", "e2": "e2"}, x, x)
    assert is_two_morphism({"e1": "e2", "e2": "e1"}, x, x)
    b2 = FiniteSet(("b1", "b2"))
    y = Correspondence.of(a, b2, [("e1", "a", "b1"), ("e2", "a", "b2")])
    assert not is_two_morphism({"e1": "e2", "e2": "e1"}, y, y)
    assert not is_two_morphism({"e1": "e1"}, x, x)
    # two-to-one onto a smaller span: every key and every value is right,
    # but f is no bijection
    one = Correspondence.of(a, b, [("r", "a", "b")])
    assert not is_two_morphism({"e1": "r", "e2": "r"}, x, one)
    with pytest.raises(ValueError):
        BijectionOver.of(x, one, {"e1": "r", "e2": "r"})


@st.composite
def _span_and_map(draw):
    """A span x, a span y and a map f of element ids: f starts as a
    relabeling of x onto a shuffled copy y, then y, its corner sets or f
    may be edited so that any one condition of a 2-morphism fails."""
    sources = draw(st.sampled_from([("a",), ("a", "a2")]))
    targets = ("b", "b2")
    n = draw(st.integers(0, 4))
    x = Correspondence.of(FiniteSet(sources), FiniteSet(targets), [
        (f"p{k}", draw(st.sampled_from(sources)), draw(st.sampled_from(targets)))
        for k in range(n)])
    order = draw(st.permutations(range(n)))
    ys = [(f"q{k}", x.elements[i].s, x.elements[i].t) for k, i in enumerate(order)]
    f = {x.elements[i].id: f"q{k}" for k, i in enumerate(order)}
    y_targets = targets
    edit = draw(st.sampled_from(["none", "drop key", "extra key", "extra y element",
                                 "drop y element", "non-injective", "wrong s",
                                 "wrong t", "other corner set"]))
    if edit == "drop key" and f:
        del f[draw(st.sampled_from(sorted(f)))]
    elif edit == "extra key":
        f["p9"] = draw(st.sampled_from(["q0", "q9"]))
    elif edit == "extra y element":
        ys.append(("q9", sources[0], targets[0]))
    elif edit == "drop y element" and ys:
        ys.pop(draw(st.integers(0, len(ys) - 1)))
    elif edit == "non-injective" and len(f) > 1:
        keys = sorted(f)
        f[keys[0]] = f[keys[1]]
        if draw(st.booleans()):
            ys = [e for e in ys if e[0] in f.values()]
    elif edit == "wrong s" and ys and len(sources) > 1:
        k = draw(st.integers(0, len(ys) - 1))
        i, s, t = ys[k]
        ys[k] = (i, sources[1 - sources.index(s)], t)
    elif edit == "wrong t" and ys:
        k = draw(st.integers(0, len(ys) - 1))
        i, s, t = ys[k]
        ys[k] = (i, s, targets[1 - targets.index(t)])
    elif edit == "other corner set":
        y_targets = targets + ("b3",)
    y = Correspondence.of(FiniteSet(sources), FiniteSet(y_targets), ys)
    return f, x, y


@settings(max_examples=400, deadline=None)
@given(_span_and_map())
def test_is_two_morphism_matches_reference(case):
    f, x, y = case
    assert is_two_morphism(f, x, y) == is_two_morphism_reference(f, x, y)


def test_linearize_examples():
    two = identity_correspondence(FiniteSet(("a", "b")))
    assert linearize(two) == Matrix.identity(2)
    a, b = FiniteSet(("a",)), FiniteSet(("b1", "b2"))
    x = Correspondence.of(a, b, [("p1", "a", "b1"), ("p2", "a", "b2")])
    assert linearize(x) == Matrix.from_rows([[1], [1]])
    e, f = FiniteSet(("e",)), FiniteSet(("f",))
    par = Correspondence.of(e, f, [("u1", "e", "f"), ("u2", "e", "f")])
    assert linearize(par) == Matrix.from_rows([[2]])


names = st.integers(0, 5).map(lambda i: f"x{i}")


@st.composite
def corr_pair(draw):
    """Composable pair (y: B->C, x: A->B) of small correspondences."""
    a = FiniteSet(tuple(f"a{i}" for i in range(draw(st.integers(1, 3)))))
    b = FiniteSet(tuple(f"b{i}" for i in range(draw(st.integers(1, 3)))))
    c = FiniteSet(tuple(f"c{i}" for i in range(draw(st.integers(1, 3)))))

    def corr(src, tgt, tag):
        k = draw(st.integers(0, 5))
        elems = []
        for i in range(k):
            elems.append((f"{tag}{i}", draw(st.sampled_from(src.elements)),
                          draw(st.sampled_from(tgt.elements))))
        return Correspondence.of(src, tgt, elems)

    return corr(b, c, "y"), corr(a, b, "x")


@given(corr_pair())
@settings(max_examples=100, deadline=None)
def test_linearize_functorial(pair):
    y, x = pair
    assert linearize(compose(y, x)) == dense_product(linearize(y), linearize(x))


@given(corr_pair(), st.data())
@settings(max_examples=60, deadline=None)
def test_compose_associative_on_the_nose(pair, data):
    y, x = pair
    c = y.target_set
    d = FiniteSet(("d0", "d1"))
    z = Correspondence.of(c, d, [
        (f"z{i}", data.draw(st.sampled_from(c.elements)),
         data.draw(st.sampled_from(d.elements)))
        for i in range(data.draw(st.integers(0, 4)))])
    left = compose(compose(z, y), x)
    right = compose(z, compose(y, x))
    assert left == right


def test_two_morphism_implies_equal_linearization():
    a, b = FiniteSet(("a",)), FiniteSet(("b",))
    x = Correspondence.of(a, b, [("e1", "a", "b"), ("e2", "a", "b")])
    y = Correspondence.of(a, b, [("f1", "a", "b"), ("f2", "a", "b")])
    bij = BijectionOver.of(x, y, {"e1": "f2", "e2": "f1"})
    assert linearize(bij.src) == linearize(bij.dst)


def test_bijection_composition_and_inverse():
    a, b = FiniteSet(("a",)), FiniteSet(("b",))
    x = Correspondence.of(a, b, [("e1", "a", "b"), ("e2", "a", "b")])
    swap = BijectionOver.of(x, x, {"e1": "e2", "e2": "e1"})
    assert swap.inverse().as_dict() == swap.as_dict()
    with pytest.raises(ValueError):
        BijectionOver.of(x, x, {"e1": "e1"})


def test_records_are_slotted():
    """Every dataclass of the library keeps its fields in slots, with no
    per-instance ``__dict__``: there is one record per set element, edge
    element and face, so the saving is per element."""
    import dataclasses
    import importlib
    import pkgutil

    import cubeburnside

    records = {}
    for info in pkgutil.iter_modules(cubeburnside.__path__):
        mod = importlib.import_module(f"cubeburnside.{info.name}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == mod.__name__):
                records[f"{info.name}.{name}"] = obj
    assert {"burnside.FiniteSet", "burnside.CorrElem", "burnside.Correspondence",
            "burnside.BijectionOver", "cube.Face2", "khovanov.ResolvedCircle"} <= set(records)
    unslotted = sorted(name for name, cls in records.items() if "__slots__" not in vars(cls))
    assert unslotted == []
    assert not hasattr(FiniteSet(("a",)), "__dict__")
