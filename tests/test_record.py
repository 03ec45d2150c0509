"""Record classes: the frozen-dataclass semantics the package relies on."""

import pickle
from fractions import Fraction

import pytest

from svlab.charpcurve.families import ArtinSchreier, Hyperelliptic
from svlab.charpcurve.series import LaurentSeries
from svlab.chiproduct import ChiProduct
from svlab.lattice import RuledModel
from svlab.nonvanish import (
    InvalidScenario,
    Scenario,
    Verdict,
    certify_chi_product,
)
from svlab.record import record


def test_reprs_name_every_field():
    assert repr(RuledModel(3, 4, -2)) == (
        "RuledModel(characteristic=3, genus=4, invariant_e=-2,"
        " exceptionals=())"
    )
    assert repr(Verdict("C", "m=1", {})) == (
        "Verdict(case_label='C', result='m=1', certificate={}, reason='')"
    )
    assert repr(Hyperelliptic(3, 3)) == "Hyperelliptic(p=3, h=3)"


def test_a_repr_the_class_defines_is_kept():
    assert repr(LaurentSeries.make(3, 0, [1, 2], 4)) == (
        "<1t^0 + 2t^1 + O(t^4) over GF(3)>"
    )


def test_equality_needs_the_same_class():
    assert Hyperelliptic(3, 3) == Hyperelliptic(3, 3)
    assert Hyperelliptic(3, 3) != ArtinSchreier(3, 3)
    assert RuledModel(3, 4, -2) != (3, 4, -2, ())
    assert RuledModel(3, 4, -2) != RuledModel(3, 4, -1)


def test_equal_records_hash_equal():
    assert hash(RuledModel(3, 4, -2)) == hash(RuledModel(3, 4, -2))
    first = RuledModel(5, 1, 0).blow_up().blow_up((0,))
    second = RuledModel(5, 1, 0).blow_up().blow_up((0,))
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


def test_fields_cannot_be_assigned_or_deleted():
    model = RuledModel(3, 4, -2)
    with pytest.raises(AttributeError):
        model.genus = 5
    with pytest.raises(AttributeError):
        del model.genus
    with pytest.raises(AttributeError):
        model.extra = 1
    assert model.genus == 4


def test_mutable_defaults_are_refused():
    # one default object would be shared by every instance
    for default in ({}, [], set()):
        with pytest.raises(TypeError, match="Shared.tags: a mutable default"):
            @record
            class Shared:
                x: int
                tags: object = default
    with pytest.raises(TypeError):
        Verdict("C", "m=1")
    given = {"rule": "y"}
    assert Verdict("C", "m=1", given).certificate is given


def test_post_init_still_validates():
    model = RuledModel(3, 4, -2)
    with pytest.raises(InvalidScenario, match="kodaira"):
        Scenario(model, 5, -3, 4, True, model.divisor(0, 6))
    with pytest.raises(InvalidScenario, match="coefficient"):
        Scenario(
            model, float("-inf"), -3, 4, True, model.divisor(0, 6),
            ((model.divisor(3, -6), Fraction(3, 2)),),
        )


def test_records_survive_a_pickle_round_trip():
    product = ChiProduct(RuledModel(3, 4, -2), Fraction(1, 2), 3, -6)
    back = pickle.loads(pickle.dumps(product))
    assert back == product and hash(back) == hash(product)
    assert certify_chi_product(back, 2, 9) == certify_chi_product(
        product, 2, 9)

    model = RuledModel(3, 4, -2).blow_up().blow_up((0,))
    assert pickle.loads(pickle.dumps(model)) == model
    canonical = model.canonical_class()
    back = pickle.loads(pickle.dumps(model))
    assert back == model and hash(back) == hash(model)
    assert back.canonical_class() == canonical


@record
class Point:
    x: int
    y: int = 0
    tags: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "x", abs(self.x))


@record
class Tag:
    name: str


def test_declared_defaults_and_field_order():
    assert repr(Point(-2)) == "Point(x=2, y=0, tags=())"
    assert Point(1, y=2) == Point(x=1, y=2, tags=())
    with pytest.raises(TypeError):
        Point()


def test_hash_and_equality_read_the_field_tuple():
    # a one-field record hashes a 1-tuple, not its bare field
    assert hash(Tag("a")) == hash(("a",))
    assert hash(RuledModel(3, 4, -2)) == hash((3, 4, -2, ()))
    assert repr(Tag("a")) == "Tag(name='a')"
    assert Tag("a") == Tag("a") != Tag("b")


def test_only_init_is_compiled_per_class():
    for method in ("__eq__", "__hash__", "__repr__"):
        assert getattr(Point, method) is getattr(Verdict, method)
    assert Point.__init__ is not Verdict.__init__
