"""The immutable value classes behave as frozen value types.

For each of the 13 value classes: equality over its fields (and its class),
equal hashes for equal objects, the ``Name(field=value, ...)`` repr, no
assignment or deletion of a field, round trips through ``pickle``,
``copy.copy`` and ``copy.deepcopy``, and construction by keyword or by
position with the documented defaults.
"""

import copy
import pickle

import pytest

from semcal.confirmation import ContingencyTable, DocCase, DocResult, RateSpec
from semcal.distributions import Alphabet, Distribution
from semcal.estimation_types import Channel, GpsModel, SampleSet
from semcal.truth_functions import BeliefAdjusted, Crisp, Gaussian, Negated, Tabular

AB = Alphabet(("a", "b"))
BA = Alphabet(("b", "a"))
AB_REPR = "Alphabet(labels=('a', 'b'))"
TAB = Tabular(AB, (0.25, 1.0))
TAB_REPR = f"Tabular(alphabet={AB_REPR}, table=(0.25, 1.0))"

# name: (class, keyword arguments, arguments of an unequal object, repr)
CASES = {
    "Alphabet": (Alphabet, {"labels": ("a", "b")}, {"labels": ("b", "a")}, AB_REPR),
    "Distribution": (
        Distribution, {"alphabet": AB, "probs": (0.25, 0.75)},
        {"alphabet": AB, "probs": (0.75, 0.25)},
        f"Distribution(alphabet={AB_REPR}, probs=(0.25, 0.75))"),
    "DocResult": (
        DocResult, {"b_star": 0.5, "b_prime_star": 0.5, "case": DocCase.PROPER_AFFIRMATION},
        {"b_star": 0.5, "b_prime_star": 0.5, "case": DocCase.PROPER_AFFIRMATION,
         "information_bits": 0.25},
        "DocResult(b_star=0.5, b_prime_star=0.5, "
        "case=<DocCase.PROPER_AFFIRMATION: 'proper-affirmation'>, information_bits=None)"),
    "RateSpec": (
        RateSpec, {"prior": (0.2, 0.8), "posterior": (0.01, 0.99)},
        {"prior": (0.8, 0.2), "posterior": (0.01, 0.99)},
        "RateSpec(prior=(0.2, 0.8), posterior=(0.01, 0.99))"),
    "ContingencyTable": (
        ContingencyTable, {"n11": 83, "n10": 57, "n01": 17, "n00": 686},
        {"n11": 83, "n10": 57, "n01": 686, "n00": 17},
        "ContingencyTable(n11=83, n10=57, n01=17, n00=686)"),
    "Crisp": (
        Crisp, {"alphabet": AB, "positive_set": {"a"}}, {"alphabet": AB, "positive_set": {"b"}},
        f"Crisp(alphabet={AB_REPR}, positive_set=frozenset({{'a'}}))"),
    "Gaussian": (
        Gaussian, {"center": 0.0, "stddev": 1.5}, {"center": 0.5, "stddev": 1.5},
        "Gaussian(center=0.0, stddev=1.5, positions=None)"),
    "Tabular": (Tabular, {"alphabet": AB, "table": (0.25, 1)},
                {"alphabet": BA, "table": (0.25, 1)}, TAB_REPR),
    "BeliefAdjusted": (
        BeliefAdjusted, {"base": Negated(TAB), "belief": -0.5},
        {"base": TAB, "belief": -0.5},
        f"BeliefAdjusted(base=Negated(base={TAB_REPR}), belief=-0.5)"),
    "Negated": (Negated, {"base": TAB}, {"base": Tabular(AB, (0.5, 1.0))},
                f"Negated(base={TAB_REPR})"),
    "Channel": (
        Channel, {"alphabet": AB, "hypotheses": ("h1", "h0"), "matrix": ((1, 0.25), (0, 0.75))},
        {"alphabet": AB, "hypotheses": ("h0", "h1"), "matrix": ((1, 0.25), (0, 0.75))},
        f"Channel(alphabet={AB_REPR}, hypotheses=('h1', 'h0'), "
        "matrix=((1.0, 0.25), (0.0, 0.75)))"),
    "SampleSet": (
        SampleSet, {"alphabet": AB, "records": (("h1", "a"), ("h0", "b"))},
        {"alphabet": AB, "records": (("h1", "a"),)},
        f"SampleSet(alphabet={AB_REPR}, records=(('h1', 'a'), ('h0', 'b')))"),
    "GpsModel": (
        GpsModel, {"grid_size": 64, "delta_e": 3, "d": 5.0, "c": 0.001},
        {"grid_size": 64, "delta_e": 3, "d": 5.0, "c": 0.002},
        "GpsModel(grid_size=64, delta_e=3.0, d=5.0, c=0.001)"),
}

PARAMS = pytest.mark.parametrize("cls, kwargs, other, text", CASES.values(), ids=CASES.keys())


@PARAMS
def test_equality_and_hash(cls, kwargs, other, text):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != cls(**other) and not a == cls(**other)
    assert a != object() and a.__eq__(object()) is NotImplemented


@PARAMS
def test_repr(cls, kwargs, other, text):
    assert repr(cls(**kwargs)) == text


@PARAMS
def test_fields_are_read_only(cls, kwargs, other, text):
    obj = cls(**kwargs)
    for name in kwargs:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@PARAMS
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_round_trips(cls, kwargs, other, text, clone):
    obj = cls(**kwargs)
    twin = clone(obj)
    assert type(twin) is cls
    assert twin == obj and hash(twin) == hash(obj) and repr(twin) == text
    with pytest.raises(AttributeError):
        setattr(twin, next(iter(kwargs)), None)


@PARAMS
def test_positional_construction_matches_keywords(cls, kwargs, other, text):
    assert cls(*kwargs.values()) == cls(**kwargs)


def test_alphabet_compares_on_labels_and_still_indexes_after_a_round_trip():
    assert Alphabet(["a", "b"]) == AB and hash(Alphabet(["a", "b"])) == hash(AB)
    twin = pickle.loads(pickle.dumps(AB))
    assert twin.index("b") == 1 and "a" in twin and "z" not in twin


def test_defaults():
    assert DocResult(0.0, 1.0, DocCase.EXCESSIVE_AFFIRMATION).information_bits is None
    assert Gaussian(0.0, 1.0).positions is None
    positions = {"a": 0.0}
    assert Gaussian(center=0.0, stddev=1.0, positions=positions).positions is positions


def test_unhashable_field_makes_an_unhashable_object():
    with pytest.raises(TypeError):
        hash(Gaussian(0.0, 1.0, positions={"a": 0.0}))
