"""Semantic information measures.

Pointwise semantic information is log2(t(e) / T(A)): the log-ratio of a
proposition's truth value to the predicate's logical probability.  Averaging
it under a sampling distribution gives the generalized KL information, which
decomposes as KL(sampling || prior) minus a model-mismatch penalty and is
therefore bounded above by the plain KL information.

Falsification semantics: a single counterexample (sampling mass on a point
of zero truth value) drives the average to -inf.  A contradiction (truth
value identically zero) carries zero information by the 0/0 convention.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .distributions import (Distribution, _require_distributions, _require_same_alphabet,
                            bayes_invert, kl_divergence)
from .errors import AbsoluteContinuityViolated, IndexMismatch, OutOfRange
from .truth_functions import TruthFunction, semantic_bayes, truth_and_logical_probability

if TYPE_CHECKING:
    from .estimation_types import Channel


def pointwise_semantic_info(tf: TruthFunction, prior: Distribution, e) -> float:
    """Semantic information of evidence ``e`` about the hypothesis, in bits."""
    truth_values, lp = truth_and_logical_probability(tf, prior)
    if lp is None:
        return 0.0
    t = truth_values[prior.alphabet.index(e)]
    if t == 0.0:
        return float("-inf")
    return math.log2(t / lp)


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
    total = 0.0
    for q, t in zip(sampling.probs, truth_values):
        if q == 0.0:
            continue
        if t == 0.0:
            return float("-inf")
        total += q * math.log2(t / lp)
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
    # a Channel is known by its hypotheses: its module is not loaded on the info path
    if not isinstance(getattr(channel, "hypotheses", None), tuple):
        raise OutOfRange(f"channel must be a Channel, got {channel!r}")
    if not isinstance(prior, Distribution):
        raise OutOfRange(f"prior must be a Distribution, got {prior!r}")
    _require_same_alphabet(channel, prior)
    if len(tfs) != len(channel.hypotheses):
        raise IndexMismatch(
            f"{len(tfs)} truth functions for {len(channel.hypotheses)} hypotheses")
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
