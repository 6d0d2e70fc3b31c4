"""Every public callable that takes numbers refuses what is not a finite real number.

One row per such export of ``semcal._EXPORTS``: a call with valid numbers,
and which of its arguments are integers.  Each numeric argument in turn gets
text (even "0.5"), None, a complex number, an int beyond float range, NaN
and +-inf; an integer argument gets 1.5 and True in place of the huge int.
Every such call must raise a SemcalError that exits 1: never a bare
TypeError, ValueError or OverflowError, never a NaN result, and never a
silent conversion of text or truncation of a float.  An entry of an array
argument (the position-model channel and lag vector) counts as an argument.

A wrong-type object, such as text where a contingency table, a rate spec,
a truth function, a distribution, a channel, a sample set, an alphabet or a
positions mapping belongs, raises OutOfRange where it enters
(``WRONG_TYPES``), and every export that takes such an object has a row
there.  So does a non-iterable where a sequence belongs, and a sequence of
the wrong length raises the mismatch of its site (``WRONG_SEQUENCES``),
with a row for every export that takes a sequence.  ``ERROR_PATHS`` gives
each remaining raise of the library a call that reaches it, with its class
and exit code.
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
    Crisp,
    Distribution,
    Gaussian,
    GpsModel,
    RateSpec,
    SampleSet,
    Tabular,
    average_semantic_info,
    bayes_invert,
    belief_adjust,
    channel_from_samples,
    contradiction,
    doc_from_rates,
    doc_from_test,
    doc_h1_from_table,
    doc_h2_from_table,
    empirical_conditional,
    gkl_decomposition,
    gps_cep_doc,
    gps_fit,
    gps_objective,
    kl_divergence,
    lag_distribution,
    logical_probability,
    negate,
    optimal_truth_function,
    optimize_belief,
    pointwise_info,
    pointwise_semantic_info,
    predicted_probability,
    raven_increments,
    semantic_bayes,
    semantic_mutual_info,
    tautology,
)
from semcal.errors import (
    AlphabetMismatch,
    DegenerateGeometry,
    EmptyColumn,
    EmptyRow,
    IndexMismatch,
    NegativeMass,
    NotNormalized,
    OutOfRange,
    SemcalError,
    UnknownLabel,
)

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


#: name: a call that passes a wrong-type object where a table, rate spec, truth
#: function, distribution, channel, sample set, alphabet or positions mapping
#: belongs; the name starts with the export it calls
WRONG_TYPES = {
    "raven_increments-text": lambda: raven_increments("x"),
    "doc_h1_from_table-tuple": lambda: doc_h1_from_table((1, 2, 3, 4)),
    "doc_h2_from_table-tuple": lambda: doc_h2_from_table((1, 2, 3, 4)),
    "semantic_bayes-text-tf": lambda: semantic_bayes(PRIOR, "x"),
    "logical_probability-text-tf": lambda: logical_probability("x", PRIOR),
    "average_semantic_info-text-tf": lambda: average_semantic_info("x", PRIOR, PRIOR),
    "pointwise_semantic_info-text-tf": lambda: pointwise_semantic_info("x", PRIOR, "a"),
    "gkl_decomposition-text-tf": lambda: gkl_decomposition("x", PRIOR, PRIOR),
    "kl_divergence-text-prior": lambda: kl_divergence(PRIOR, "x"),
    "kl_divergence-text-sampling": lambda: kl_divergence("x", PRIOR),
    "optimize_belief-text-base": lambda: optimize_belief("x", PRIOR, PRIOR),
    "optimize_belief-none-base": lambda: optimize_belief(None, PRIOR, PRIOR),
    "doc_from_rates-text": lambda: doc_from_rates("x"),
    "average_semantic_info-text-prior": lambda: average_semantic_info(TAB, "x", PRIOR),
    "average_semantic_info-text-sampling": lambda: average_semantic_info(TAB, PRIOR, "x"),
    "optimize_belief-text-prior": lambda: optimize_belief(TAB, "x", PRIOR),
    "optimize_belief-text-prior-gaussian-base": lambda: optimize_belief(
        Gaussian(0.0, 1.5, positions={"a": 0.0, "b": 1.0}), "x", PRIOR),
    "optimize_belief-text-sampling": lambda: optimize_belief(TAB, PRIOR, "x"),
    "bayes_invert-text-prior": lambda: bayes_invert("x", (1, 0)),
    "semantic_mutual_info-text-channel": lambda: semantic_mutual_info("x", PRIOR, [TAB]),
    "semantic_mutual_info-text-prior": lambda: semantic_mutual_info(CHANNEL, "x", [TAB, TAB]),
    # objects of the right alphabet but the wrong kind
    "semantic_mutual_info-distribution-channel": lambda: semantic_mutual_info(PRIOR, PRIOR, [TAB]),
    "semantic_mutual_info-channel-prior": lambda: semantic_mutual_info(CHANNEL, CHANNEL,
                                                                        [TAB, TAB]),
    "average_semantic_info-channel-prior": lambda: average_semantic_info(TAB, CHANNEL, PRIOR),
    "gkl_decomposition-channel-sampling": lambda: gkl_decomposition(TAB, PRIOR, CHANNEL),
    "optimize_belief-channel-sampling": lambda: optimize_belief(TAB, PRIOR, CHANNEL),
    "channel_from_samples-text": lambda: channel_from_samples("x"),
    "empirical_conditional-text": lambda: empirical_conditional("x", {"a"}),
    "optimal_truth_function-text-channel": lambda: optimal_truth_function("x", 0),
    "optimal_truth_function-distribution-channel": lambda: optimal_truth_function(PRIOR, 0),
    "logical_probability-none-prior": lambda: logical_probability(TAB, None),
    "semantic_bayes-none-prior": lambda: semantic_bayes(None, TAB),
    "pointwise_semantic_info-none-prior": lambda: pointwise_semantic_info(TAB, None, "a"),
    "negate-text": lambda: negate("x"),
    "belief_adjust-text-base": lambda: belief_adjust("x", 0.5),
    "BeliefAdjusted-text-base": lambda: BeliefAdjusted("x", 0.5),
    "Gaussian-list-positions": lambda: Gaussian(0, 1, positions=[1, 2]),
    # text of the right length where an Alphabet belongs
    "Tabular-text-alphabet": lambda: Tabular("ab", (0.25, 1.0)),
    "Distribution-text-alphabet": lambda: Distribution("ab", (0.5, 0.5)),
    "Channel-text-alphabet": lambda: Channel("ab", ("h1", "h0"), ((1.0, 0.25), (0.0, 0.75))),
    "Crisp-none-alphabet": lambda: Crisp(None, {"a"}),
    "SampleSet-text-alphabet": lambda: SampleSet("ab", [("h", "a")]),
    "tautology-text-alphabet": lambda: tautology("ab"),
    "contradiction-text-alphabet": lambda: contradiction("ab"),
}

#: Exports that take no alphabet, distribution, truth function, channel, sample
#: set, table, rate spec or positions mapping: only numbers, labels, pairs or arrays.
TAKES_NO_OBJECTS = {
    "Alphabet", "ContingencyTable", "DocCase", "GpsModel", "RateSpec", "TruthFunction",
    "doc_from_test", "gps_cep_doc", "gps_fit", "gps_objective", "lag_distribution",
    "pointwise_info", "predicted_probability",
}


def test_every_export_is_a_wrong_type_row_or_takes_no_objects():
    rows = {name.partition("-")[0] for name in WRONG_TYPES}
    assert not rows & (TAKES_NO_OBJECTS | RESULT_RECORDS)
    assert rows | TAKES_NO_OBJECTS | RESULT_RECORDS == set(semcal.__all__)


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_wrong_type_object_is_out_of_range(call):
    with pytest.raises(OutOfRange) as info:
        call()
    assert info.value.exit_code == 1


SAMPLES = SampleSet(AB, [("h1", "a"), ("h0", "b")])

#: name: (a call that passes a non-iterable where labels, masses, truth values,
#: rows, records or truth functions belong, or a record or row of the wrong
#: length, and the class it raises); the name starts with the export it calls.
#: A non-iterable raises OutOfRange, a wrong length the mismatch of its site.
WRONG_SEQUENCES = {
    "Alphabet-int-labels": (lambda: Alphabet(5), OutOfRange),
    "Tabular-none-table": (lambda: Tabular(AB, None), OutOfRange),
    "Tabular-values-text-alphabet": (lambda: TAB.values("ab"), OutOfRange),
    "Distribution-none-probs": (lambda: Distribution(AB, None), OutOfRange),
    "Channel-none-hypotheses": (lambda: Channel(AB, None, ((1.0, 0.25), (0.0, 0.75))),
                                OutOfRange),
    "Channel-none-matrix": (lambda: Channel(AB, ("h1", "h0"), None), OutOfRange),
    "Channel-int-row": (lambda: Channel(AB, ("h1", "h0"), [5, 5]), OutOfRange),
    "Channel-one-row-for-two-hypotheses": (lambda: Channel(AB, ("h1", "h0"), [5]),
                                           IndexMismatch),
    "Channel-short-row": (lambda: Channel(AB, ("h",), [(1.0,)]), IndexMismatch),
    "SampleSet-none-records": (lambda: SampleSet(AB, None), OutOfRange),
    "SampleSet-int-record": (lambda: SampleSet(AB, [5]), OutOfRange),
    "SampleSet-one-field-record": (lambda: SampleSet(AB, [("c",)]), IndexMismatch),
    "SampleSet-three-field-record": (lambda: SampleSet(AB, [("c", "a", "b")]), IndexMismatch),
    "Crisp-int-positive-set": (lambda: Crisp(AB, 5), OutOfRange),
    "Crisp-values-none-alphabet": (lambda: Crisp(AB, {"a"}).values(None), OutOfRange),
    "bayes_invert-none-row": (lambda: bayes_invert(PRIOR, None), OutOfRange),
    "empirical_conditional-int-subset": (lambda: empirical_conditional(SAMPLES, 5), OutOfRange),
    "RateSpec-none-prior": (lambda: RateSpec(None, (0.5, 0.5)), OutOfRange),
    "RateSpec-int-posterior": (lambda: RateSpec((0.5, 0.5), 1), OutOfRange),
    "RateSpec-one-mass": (lambda: RateSpec((0.5, 0.5), [1.0]), IndexMismatch),
    "semantic_mutual_info-none-tfs": (lambda: semantic_mutual_info(CHANNEL, PRIOR, None),
                                      OutOfRange),
    "semantic_mutual_info-one-tf-for-two-hypotheses": (
        lambda: semantic_mutual_info(CHANNEL, PRIOR, [TAB]), IndexMismatch),
    "Gaussian-values-text-alphabet": (lambda: Gaussian(0.0, 1.0).values("ab"), OutOfRange),
    "BeliefAdjusted-values-text-alphabet": (lambda: BeliefAdjusted(TAB, 0.5).values("ab"),
                                            OutOfRange),
    # a number where a position-model array belongs
    "lag_distribution-int-channel": (lambda: lag_distribution(5), OutOfRange),
    "gps_fit-int-channel": (lambda: gps_fit(5), OutOfRange),
    "gps_objective-int-channel": (lambda: gps_objective(5, 0, 2, 0.5), OutOfRange),
}

#: Exports that take no sequence of labels, masses, truth values, rows, records,
#: truth functions or position-model arrays.  ``TruthFunction`` is abstract,
#: and its ``values`` is called through the Gaussian and BeliefAdjusted rows.
TAKES_NO_SEQUENCES = {
    "ContingencyTable", "DocCase", "GpsModel", "TruthFunction", "average_semantic_info",
    "belief_adjust", "channel_from_samples", "contradiction", "doc_from_rates", "doc_from_test",
    "doc_h1_from_table", "doc_h2_from_table", "gkl_decomposition", "gps_cep_doc",
    "kl_divergence", "logical_probability", "negate", "optimal_truth_function",
    "optimize_belief", "pointwise_info", "pointwise_semantic_info", "predicted_probability",
    "raven_increments", "semantic_bayes", "tautology",
}


def test_every_export_is_a_wrong_sequence_row_or_takes_no_sequences():
    rows = {name.partition("-")[0] for name in WRONG_SEQUENCES}
    assert not rows & (TAKES_NO_SEQUENCES | RESULT_RECORDS)
    assert rows | TAKES_NO_SEQUENCES | RESULT_RECORDS == set(semcal.__all__)


@pytest.mark.parametrize("call, error", WRONG_SEQUENCES.values(), ids=WRONG_SEQUENCES.keys())
def test_wrong_sequence_is_a_validation_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert info.value.exit_code == 1


def test_text_is_a_sequence_of_labels():
    assert Alphabet("ab") == AB
    assert Crisp(AB, "a") == Crisp(AB, {"a"})
    assert SampleSet(AB, ["ha"]).records == (("h", "a"),)


#: name: (call, error class, exit code): a raise that no other test reaches
ERROR_PATHS = {
    "table-no-counterexample-column": (
        lambda: doc_h1_from_table(ContingencyTable(5, 0, 5, 0)), EmptyColumn, 2),
    "cep-fraction-zero": (lambda: gps_cep_doc(0, 1, 10), DegenerateGeometry, 2),
    "cep-fraction-one": (lambda: gps_cep_doc(1.0, 1, 10), DegenerateGeometry, 2),
    "raven-no-positive-examples": (
        lambda: raven_increments(ContingencyTable(0, 1, 1, 1)), EmptyRow, 2),
    "raven-no-counterexample-column": (
        lambda: raven_increments(ContingencyTable(1, 0, 1, 0)), EmptyRow, 2),
    "alphabet-empty": (lambda: Alphabet(()), NotNormalized, 1),
    "distribution-wrong-length": (lambda: Distribution(AB, (1.0,)), AlphabetMismatch, 1),
    "bayes-row-wrong-length": (lambda: bayes_invert(PRIOR, (1.0, 0.5, 0.5)), AlphabetMismatch, 1),
    "pointwise-negative-posterior": (lambda: pointwise_info(-0.25, 0.5), NegativeMass, 1),
    "truth-index-past-last": (lambda: optimal_truth_function(CHANNEL, 2), OutOfRange, 1),
    "channel-column-not-normalized": (lambda: Channel(AB, ("h",), ((0.5, 1.0),)),
                                      NotNormalized, 1),
    "channel-unknown-hypothesis": (lambda: CHANNEL.hypothesis_index("h9"), UnknownLabel, 1),
    "samples-label-outside-alphabet": (lambda: SampleSet(AB, [("h", "z")]), UnknownLabel, 1),
    "gps-grid-below-2": (lambda: GpsModel(1, 0, 2.0, 0.0), DegenerateGeometry, 2),
    "gps-negative-floor": (lambda: GpsModel(16, 0, 2.0, -0.001), NegativeMass, 1),
    "tabular-wrong-length": (lambda: Tabular(AB, (1.0,)), AlphabetMismatch, 1),
    "crisp-label-outside-alphabet": (lambda: Crisp(AB, {"z"}), UnknownLabel, 1),
}


@pytest.mark.parametrize("call, error, code", ERROR_PATHS.values(), ids=ERROR_PATHS.keys())
def test_error_path_class_and_exit_code(call, error, code):
    with pytest.raises(error) as info:
        call()
    assert info.value.exit_code == code
