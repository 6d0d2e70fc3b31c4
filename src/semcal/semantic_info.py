"""Semantic information measures.

Pointwise semantic information is log2(t(e) / T(A)): the log-ratio of a
proposition's truth value to the predicate's logical probability.  Averaging
it under a sampling distribution gives the generalized KL information, which
decomposes as KL(sampling || prior) minus a model-mismatch penalty and is
therefore bounded above by the plain KL information.

Falsification semantics: a single counterexample (sampling mass on a point
of zero truth value) drives the average to -inf.  A contradiction (truth
value identically zero) carries zero information by the 0/0 convention.

``Channel``, the Shannon channel P(H|E) that ``semantic_mutual_info``
averages over, is defined here, so that this measure type-checks its
channel with ``distributions.require_type`` like every other object
argument; ``estimation`` builds channels from samples and reads truth
functions off them.
"""

from __future__ import annotations

import math
from typing import Sequence

from .distributions import (NORMALIZATION_TOLERANCE, Alphabet, Distribution, Frozen,
                            _require_distributions, _require_same_alphabet, bayes_invert,
                            kl_divergence, pointwise_info, require_sequence, require_type,
                            require_unit_interval)
from .errors import AbsoluteContinuityViolated, DuplicateLabel, NotNormalized, UnknownLabel
from .truth_functions import TruthFunction, semantic_bayes, truth_and_logical_probability


class Channel(Frozen):
    """A Shannon channel P(H|E): one selecting-rule row per hypothesis.

    ``matrix[j][i]`` is P(h_j | e_i).  For each fixed evidence letter the
    column over hypotheses sums to 1 within ``NORMALIZATION_TOLERANCE``;
    an individual row need not.
    """

    alphabet: Alphabet
    hypotheses: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __init__(self, alphabet: Alphabet, hypotheses: Sequence[str],
                 matrix: Sequence[Sequence[float]]):
        require_type("alphabet", alphabet, Alphabet)
        hypotheses = tuple(map(str, require_sequence("hypotheses", hypotheses)))
        if len(set(hypotheses)) != len(hypotheses):
            raise DuplicateLabel(f"duplicate hypothesis names: {hypotheses}")
        rows = require_sequence("channel rows", matrix, len(hypotheses))
        rows = [require_sequence("channel row", row, len(alphabet)) for row in rows]
        for row in rows:
            require_unit_interval("channel values", row)
        rows = tuple([tuple(map(float, row)) for row in rows])
        # with no rows there are no columns to zip, and each sums to 0
        columns = zip(*rows) if rows else [()] * len(alphabet)
        for label, column in zip(alphabet.labels, columns):
            col = math.fsum(column)
            if abs(col - 1.0) > NORMALIZATION_TOLERANCE:
                raise NotNormalized(f"column for {label!r} sums to {col}, not 1")
        self.__dict__.update(alphabet=alphabet, hypotheses=hypotheses, matrix=rows)

    def row(self, j: int) -> tuple[float, ...]:
        return self.matrix[j]

    def hypothesis_index(self, name: str) -> int:
        try:
            return self.hypotheses.index(name)
        except ValueError:
            raise UnknownLabel(f"unknown hypothesis {name!r}") from None


def pointwise_semantic_info(tf: TruthFunction, prior: Distribution, e) -> float:
    """Semantic information of evidence ``e`` about the hypothesis, in bits.

    The classical ``distributions.pointwise_info`` with the truth value t(e)
    as the posterior and the logical probability T(A) as the prior:
    log2(t(e) / T(A)), ``-inf`` where t(e) = 0, and 0 for a contradiction.
    """
    return _pointwise_bits(tf, prior, (e,))[0]


def _pointwise_bits(tf: TruthFunction, prior: Distribution, labels) -> list[float]:
    """``pointwise_semantic_info`` of each label in ``labels``, from one truth vector.

    The truth vector and T(A) are computed once, so all n labels of the
    alphabet cost O(n), not O(n^2).  A contradiction gives 0 bits for every
    label without looking the labels up.
    """
    truth_values, lp = truth_and_logical_probability(tf, prior)
    if lp is None:
        return [0.0] * len(labels)
    return [pointwise_info(truth_values[prior.alphabet.index(e)], lp) for e in labels]


def average_semantic_info(tf: TruthFunction, prior: Distribution,
                          sampling: Distribution) -> float:
    """Sampling-weighted average semantic information (generalized KL), in bits.

    ``prior`` is the evidence source P(E); ``sampling`` is the observed
    conditional distribution P(E | hypothesis selected).
    """
    _require_distributions(prior, sampling)
    truth_values, lp = truth_and_logical_probability(tf, prior)
    if lp is None:
        return 0.0
    log2, total = math.log2, 0.0
    for q, t in zip(sampling.probs, truth_values):
        if q == 0.0:
            continue
        if t == 0.0:
            return float("-inf")
        total += q * log2(t / lp)
    return total


def gkl_decomposition(tf: TruthFunction, prior: Distribution,
                      sampling: Distribution) -> tuple[float, float]:
    """Split the average semantic information into (kl_info, penalty).

    kl_info = KL(sampling || prior); penalty = KL(sampling || likelihood)
    where likelihood is the semantic Bayes prediction.  The average semantic
    information equals kl_info - penalty (with penalty = +inf when the
    likelihood fails to dominate the sampling distribution).
    """
    _require_distributions(prior, sampling)
    kl_info = kl_divergence(sampling, prior)
    likelihood = semantic_bayes(prior, tf)
    try:
        penalty = kl_divergence(sampling, likelihood)
    except AbsoluteContinuityViolated:
        penalty = float("inf")
    return kl_info, penalty


def semantic_mutual_info(channel: Channel, prior: Distribution,
                         tfs: list[TruthFunction]) -> float:
    """Average semantic information over all hypotheses of a channel, in bits.

    Weights each hypothesis by its selection probability P(h_j) and uses the
    Bayes-inverted sampling distribution P(E | h_j) from the channel row.
    """
    require_type("channel", channel, Channel)
    require_type("prior", prior, Distribution)
    _require_same_alphabet(channel, prior)
    tfs = require_sequence("truth functions", tfs, len(channel.hypotheses))
    total = 0.0
    for j in range(len(channel.hypotheses)):
        row = channel.row(j)
        p_hj = math.fsum(p * v for p, v in zip(prior.probs, row))
        if p_hj == 0.0:
            continue
        sampling = bayes_invert(prior, row)
        avg = average_semantic_info(tfs[j], prior, sampling)
        if avg == float("-inf"):
            return float("-inf")
        total += p_hj * avg
    return total
