"""Every public callable that takes numbers refuses what is not a finite real number.

One row per such export of ``semcal._EXPORTS``: a call with valid numbers,
and which of its arguments are integers.  Each numeric argument in turn gets
text (even "0.5"), None, a complex number, an int beyond float range, NaN
and +-inf; an integer argument gets 1.5 and True in place of the huge int.
Every such call must raise a SemcalError that exits 1: never a bare
TypeError, ValueError or OverflowError, never a NaN result, and never a
silent conversion of text or truncation of a float.  An entry of an array
argument (the position-model channel and lag vector) counts as an argument.

Wrong-type objects, such as text where a contingency table belongs, are not
numbers and are not covered here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import semcal
from semcal import (
    Alphabet,
    BeliefAdjusted,
    Channel,
    ContingencyTable,
    Distribution,
    Gaussian,
    GpsModel,
    RateSpec,
    Tabular,
    bayes_invert,
    belief_adjust,
    doc_from_test,
    gps_cep_doc,
    gps_fit,
    gps_objective,
    lag_distribution,
    optimal_truth_function,
    pointwise_info,
    predicted_probability,
)
from semcal.errors import SemcalError

AB = Alphabet(("a", "b"))
TAB = Tabular(AB, (0.25, 1.0))
PRIOR = Distribution(AB, (0.5, 0.5))
CHANNEL = Channel(AB, ("h1", "h0"), ((1.0, 0.25), (0.0, 0.75)))
GPS_ROWS = GpsModel(16, 1, 2.0, 0.001).channel_matrix().tolist()
LAGS = lag_distribution(GPS_ROWS).tolist()


def with_first(values, value):
    """A copy of a list, or of a list of rows, with its first entry replaced by ``value``."""
    if isinstance(values[0], list):
        return [with_first(values[0], value)] + values[1:]
    return [value] + values[1:]


# name: (call taking the numbers positionally, valid numbers, positions of the integers)
ROWS = {
    "ContingencyTable": (ContingencyTable, (83, 57, 17, 686), ()),
    "RateSpec": (lambda p0, p1, q0, q1: RateSpec((p0, p1), (q0, q1)),
                 (0.2, 0.8, 0.01, 0.99), ()),
    "doc_from_test": (doc_from_test, (0.9, 0.8, 0.1), ()),
    "gps_cep_doc": (gps_cep_doc, (0.5, 1, 10), (1, 2)),
    "predicted_probability": (predicted_probability, (0.3, 0.5), ()),
    "Distribution": (lambda p, q: Distribution(AB, (p, q)), (0.25, 0.75), ()),
    "bayes_invert": (lambda u, v: bayes_invert(PRIOR, (u, v)), (1.0, 0.25), ()),
    "pointwise_info": (pointwise_info, (0.5, 0.25), ()),
    "Channel": (lambda u, v, w, x: Channel(AB, ("h1", "h0"), ((u, v), (w, x))),
                (1.0, 0.25, 0.0, 0.75), ()),
    "GpsModel": (GpsModel, (16, 1, 2.0, 0.001), (0,)),
    "lag_distribution": (lambda x: lag_distribution(with_first(GPS_ROWS, x)),
                         (GPS_ROWS[0][0],), ()),
    "gps_objective": (lambda x, delta, d, b: gps_objective(with_first(LAGS, x), delta, d, b),
                      (LAGS[0], 1.0, 2.0, 0.9), ()),
    "gps_fit": (lambda x: gps_fit(with_first(GPS_ROWS, x)), (GPS_ROWS[0][0],), ()),
    "optimal_truth_function": (lambda j: optimal_truth_function(CHANNEL, j), (1,), (0,)),
    "Gaussian": (lambda c, s, x: Gaussian(c, s, positions={"a": x}), (0.0, 1.5, 0.5), ()),
    "Tabular": (lambda u, v: Tabular(AB, (u, v)), (0.25, 1.0), ()),
    "BeliefAdjusted": (lambda b: BeliefAdjusted(TAB, b), (-0.5,), ()),
    "belief_adjust": (lambda b: belief_adjust(TAB, b), (0.5,), ()),
}

#: Exports whose arguments are labels, alphabets, distributions, truth
#: functions, tables, channels or sample sets, never numbers.
TAKES_NO_NUMBERS = {
    "Alphabet", "Crisp", "DocCase", "SampleSet", "TruthFunction", "average_semantic_info",
    "channel_from_samples", "contradiction", "doc_from_rates", "doc_h1_from_table",
    "doc_h2_from_table", "empirical_conditional", "gkl_decomposition", "kl_divergence",
    "logical_probability", "negate", "optimize_belief", "pointwise_semantic_info",
    "raven_increments", "semantic_bayes", "semantic_mutual_info", "tautology",
}

#: A result record: it stores what a solver computed and checks nothing.
RESULT_RECORDS = {"DocResult"}

#: Arguments whose None is the documented "not given": the prior of doc_from_test.
NONE_IS_ABSENT = {("doc_from_test", 2)}


def not_numbers(valid, integer):
    """(label, value) of each misuse of an argument whose valid value is ``valid``.

    The numeric text is ``valid`` written out, and the fraction is ``valid``
    plus 0.5, so that parsing the one or truncating the other would pass.
    An int beyond float range is still a count (gps_cep_doc takes one in
    exact arithmetic), so an integer argument gets a fraction and True instead.
    """
    yield from (("numeric-text", str(valid)), ("text", "x"), ("None", None), ("complex", 1j))
    if integer:
        yield from (("fraction", valid + 0.5), ("True", True))
    else:
        yield "int-1e400", 10**400
    yield from (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))


MISUSES = [
    pytest.param(name, position, value, id=f"{name}-arg{position}-{label}")
    for name, (_, valid, integers) in ROWS.items()
    for position in range(len(valid))
    for label, value in not_numbers(valid[position], position in integers)
    if not (value is None and (name, position) in NONE_IS_ABSENT)
]


def test_every_export_is_a_row_or_takes_no_numbers():
    assert not set(ROWS) & (TAKES_NO_NUMBERS | RESULT_RECORDS)
    assert set(ROWS) | TAKES_NO_NUMBERS | RESULT_RECORDS == set(semcal.__all__)


@pytest.mark.parametrize("name", ROWS)
def test_valid_call_succeeds_without_nan(name):
    call, valid, _ = ROWS[name]
    result = call(*valid)
    assert not (isinstance(result, float) and math.isnan(result))


@pytest.mark.parametrize("name, position, value", MISUSES)
def test_non_number_is_a_validation_error(name, position, value):
    call, valid, _ = ROWS[name]
    args = list(valid)
    args[position] = value
    with pytest.raises(SemcalError) as info:
        call(*args)
    assert info.value.exit_code == 1


def test_a_count_beyond_float_range_is_exact():
    assert gps_cep_doc(0.5, 1, 10**400).b_prime_star == Fraction(1, 10**400 - 1)


def test_numpy_and_fraction_scalars_are_numbers():
    assert gps_cep_doc(np.float32(0.5), np.int64(1), 10).b_star == gps_cep_doc(0.5, 1, 10).b_star
    assert Distribution(AB, (np.float32(0.25), Fraction(3, 4))).probs == (0.25, 0.75)
    assert Tabular(AB, (np.float64(0.25), 1)).table == (0.25, 1.0)
