import math
import random
from fractions import Fraction

import numpy as np
import pytest

from semcal import (
    Alphabet,
    Channel,
    Crisp,
    Distribution,
    Tabular,
    average_semantic_info,
    bayes_invert,
    belief_adjust,
    contradiction,
    doc_h1_from_table,
    gkl_decomposition,
    kl_divergence,
    logical_probability,
    optimal_truth_function,
    pointwise_semantic_info,
    semantic_bayes,
    semantic_mutual_info,
    tautology,
)
from semcal.confirmation import ContingencyTable
from semcal.errors import IndexMismatch, ZeroLogicalProbability

AB = Alphabet(("e1", "e0"))


def random_distribution(rng, n):
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(raw)
    return [v / total for v in raw]


def sparse_distribution(rng, alphabet, zero_share):
    """Random masses on ``alphabet``, each 0 with probability ``zero_share`` but the last."""
    raw = [0.0 if rng.random() < zero_share else rng.random() for _ in alphabet.labels[1:]]
    raw.append(rng.uniform(0.05, 1.0))
    total = math.fsum(raw)
    return Distribution(alphabet, [v / total for v in raw])


def random_truth_problem(rng):
    """A prior and a crisp, tabular or belief-adjusted truth function on 2 to 256 labels.

    A twentieth of the prior masses and a tenth of the tabular truth values
    are 0; the other truth values run down to 1e-3.
    """
    n = rng.choice((2, 3, 5, 8, 17, 64, 256))
    ab = Alphabet([f"x{i}" for i in range(n)])
    prior = sparse_distribution(rng, ab, 0.05)
    kind = rng.choice(("crisp", "tabular", "belief"))
    if kind == "crisp":
        return prior, Crisp(ab, rng.sample(ab.labels, rng.randint(1, n)))
    table = Tabular(ab, [0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-3, 0)
                         for _ in range(n)])
    return prior, table if kind == "tabular" else belief_adjust(table, rng.uniform(-1, 1))


def test_semantic_bayes_within_four_ulps_of_exact_bayes():
    # exact reference: P(e) t(e) / sum P t, in Fraction arithmetic
    rng = random.Random(31)
    for _ in range(400):
        prior, tf = random_truth_problem(rng)
        joint = [Fraction(p) * Fraction(t) for p, t in zip(prior.probs, tf.values(prior.alphabet))]
        total = sum(joint)
        if total == 0:
            continue
        for got, mass in zip(semantic_bayes(prior, tf).probs, joint):
            exact = mass / total
            assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(float(exact)))


class TestPointwise:
    def test_tautology_is_zero(self):
        prior = Distribution(AB, (0.8, 0.2))
        assert pointwise_semantic_info(tautology(AB), prior, "e1") == 0.0

    def test_crisp_positive_example(self):
        prior = Distribution(AB, (0.8, 0.2))
        got = pointwise_semantic_info(Crisp(AB, {"e1"}), prior, "e1")
        assert got == pytest.approx(math.log2(1 / 0.8), abs=1e-4)

    def test_crisp_counterexample_is_minus_inf(self):
        prior = Distribution(AB, (0.8, 0.2))
        assert pointwise_semantic_info(Crisp(AB, {"e1"}), prior, "e0") == float("-inf")

    def test_contradiction_convention(self):
        prior = Distribution(AB, (0.8, 0.2))
        assert pointwise_semantic_info(contradiction(AB), prior, "e1") == 0.0

    def test_sampling_average_of_pointwise_is_average_info(self):
        # sum_e q(e) * I(e) by fsum against average_semantic_info's own loop
        rng = random.Random(31)
        for _ in range(400):
            prior, tf = random_truth_problem(rng)
            sampling = sparse_distribution(rng, prior.alphabet, 0.3)
            truth = tf.values(prior.alphabet)
            if max(truth) == 0.0:
                continue
            terms = [q * pointwise_semantic_info(tf, prior, e)
                     for e, q in zip(prior.alphabet, sampling.probs) if q > 0.0]
            average = average_semantic_info(tf, prior, sampling)
            falsified = any(q > 0.0 and t == 0.0 for q, t in zip(sampling.probs, truth))
            assert (average == float("-inf")) == falsified
            assert (math.fsum(terms) == float("-inf")) == falsified
            if not falsified:
                assert math.fsum(terms) == pytest.approx(average, rel=1e-12)

    def test_lower_logical_probability_means_more_info(self):
        # shrink the truth value elsewhere: T(A) drops, info at e1 rises
        prior = Distribution(AB, (0.5, 0.5))
        wide = Tabular(AB, (1.0, 0.8))
        narrow = Tabular(AB, (1.0, 0.2))
        assert pointwise_semantic_info(narrow, prior, "e1") > pointwise_semantic_info(
            wide, prior, "e1")


class TestAverage:
    def test_tautology_average_is_zero(self):
        prior = Distribution(AB, (0.8, 0.2))
        sampling = Distribution(AB, (0.99, 0.01))
        assert average_semantic_info(tautology(AB), prior, sampling) == 0.0

    def test_swans_positive_setup(self):
        prior = Distribution(AB, (0.8, 0.2))
        sampling = Distribution(AB, (0.99, 0.01))
        tf = belief_adjust(Crisp(AB, {"e1"}), 1.0 - 0.0404)
        assert average_semantic_info(tf, prior, sampling) == pytest.approx(
            0.2611, abs=1e-3)

    def test_swans_negative_setup(self):
        prior = Distribution(AB, (0.99, 0.01))
        sampling = Distribution(AB, (0.95, 0.05))
        tf = belief_adjust(Crisp(AB, {"e1"}), -0.808)
        assert average_semantic_info(tf, prior, sampling) == pytest.approx(
            0.060, abs=1e-3)

    def test_counterexample_mass_falsifies(self):
        prior = Distribution(AB, (0.8, 0.2))
        sampling = Distribution(AB, (0.9, 0.1))
        assert average_semantic_info(Crisp(AB, {"e1"}), prior, sampling) == float("-inf")


class TestGklDecomposition:
    def test_matching_likelihood_has_zero_penalty(self):
        prior = Distribution(AB, (0.8, 0.2))
        tf = belief_adjust(Crisp(AB, {"e1"}), 0.7)
        sampling = semantic_bayes(prior, tf)
        kl_info, penalty = gkl_decomposition(tf, prior, sampling)
        assert penalty == pytest.approx(0.0, abs=1e-12)
        assert kl_info == pytest.approx(
            average_semantic_info(tf, prior, sampling), abs=1e-9)

    def test_birds_at_optimum(self):
        result = doc_h1_from_table(ContingencyTable(83, 57, 17, 686))
        prior = Distribution(AB, (100 / 843, 743 / 843))
        sampling = Distribution(AB, (83 / 140, 57 / 140))
        tf = belief_adjust(Crisp(AB, {"e1"}), 1.0 - result.b_prime_star)
        kl_info, penalty = gkl_decomposition(tf, prior, sampling)
        assert kl_info == pytest.approx(0.921, abs=2e-3)
        assert penalty <= 1e-6

    def test_uninformative_case(self):
        prior = Distribution(AB, (0.8, 0.2))
        kl_info, penalty = gkl_decomposition(tautology(AB), prior, prior)
        assert (kl_info, penalty) == (0.0, 0.0)

    def test_parts_recombine(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 5)
            ab = Alphabet([f"x{i}" for i in range(n)])
            prior = Distribution(ab, random_distribution(rng, n))
            sampling = Distribution(ab, random_distribution(rng, n))
            tf = Tabular(ab, [rng.uniform(0.05, 1.0) for _ in range(n)])
            kl_info, penalty = gkl_decomposition(tf, prior, sampling)
            assert kl_info - penalty == pytest.approx(
                average_semantic_info(tf, prior, sampling), abs=1e-9)
            # and the KL information is always an upper bound
            assert penalty >= -1e-12


class TestLogicalProbabilityRule:
    MEASURES = {
        "pointwise": lambda tf, prior: pointwise_semantic_info(tf, prior, "e0"),
        "average": lambda tf, prior: average_semantic_info(tf, prior, prior),
        "semantic_bayes": lambda tf, prior: semantic_bayes(prior, tf),
        "gkl": lambda tf, prior: gkl_decomposition(tf, prior, prior),
        "logical_probability": logical_probability,
    }

    @pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
    def test_vanishing_logical_probability_raises_everywhere(self, measure):
        # the hypothesis holds only on a letter of prior mass 1e-13: a
        # degenerate prior, not a contradiction
        prior = Distribution(AB, (1 - 1e-13, 1e-13))
        with pytest.raises(ZeroLogicalProbability):
            measure(Crisp(AB, {"e0"}), prior)

    @pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
    def test_small_logical_probability_above_the_floor_is_accepted(self, measure):
        prior = Distribution(AB, (1 - 1e-11, 1e-11))
        measure(Crisp(AB, {"e0"}), prior)

    def test_contradiction_carries_zero_average_information(self):
        prior = Distribution(AB, (0.8, 0.2))
        assert average_semantic_info(contradiction(AB), prior, prior) == 0.0

    def test_contradiction_has_zero_logical_probability(self):
        prior = Distribution(AB, (0.8, 0.2))
        assert logical_probability(contradiction(AB), prior) == 0.0


class TestSemanticMutualInfo:
    def test_noiseless_binary_channel(self):
        prior = Distribution(AB, (0.5, 0.5))
        channel = Channel(AB, ("h1", "h0"), ((1.0, 0.0), (0.0, 1.0)))
        tfs = [Crisp(AB, {"e1"}), Crisp(AB, {"e0"})]
        assert semantic_mutual_info(channel, prior, tfs) == pytest.approx(1.0, abs=1e-9)

    def test_all_tautologies(self):
        prior = Distribution(AB, (0.3, 0.7))
        channel = Channel(AB, ("h1", "h0"), ((0.6, 0.6), (0.4, 0.4)))
        assert semantic_mutual_info(channel, prior, [tautology(AB)] * 2) == 0.0

    def test_independent_channel_conveys_nothing(self):
        prior = Distribution(AB, (0.3, 0.7))
        channel = Channel(AB, ("h1", "h0"), ((0.6, 0.6), (0.4, 0.4)))
        tfs = [optimal_truth_function(channel, j) for j in range(2)]
        assert semantic_mutual_info(channel, prior, tfs) == pytest.approx(0.0, abs=1e-12)

    def test_never_selected_hypothesis_is_skipped(self):
        # h0's row is all zero: P(h0) = 0, so its contradiction is never measured
        prior = Distribution(AB, (0.3, 0.7))
        channel = Channel(AB, ("h1", "h0"), ((1.0, 1.0), (0.0, 0.0)))
        tf = Tabular(AB, (0.5, 1.0))
        expected = average_semantic_info(tf, prior, prior)
        assert semantic_mutual_info(channel, prior, [tf, contradiction(AB)]) == expected

    def test_one_falsified_hypothesis_gives_minus_inf(self):
        # h1 is selected by e1, where its truth function is 0
        prior = Distribution(AB, (0.5, 0.5))
        channel = Channel(AB, ("h1", "h0"), ((1.0, 0.25), (0.0, 0.75)))
        tfs = [Crisp(AB, {"e0"}), tautology(AB)]
        assert semantic_mutual_info(channel, prior, tfs) == float("-inf")

    def test_index_mismatch(self):
        prior = Distribution(AB, (0.5, 0.5))
        channel = Channel(AB, ("h1", "h0"), ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(IndexMismatch):
            semantic_mutual_info(channel, prior, [tautology(AB)])

    def test_matches_shannon_on_random_4x4(self):
        rng = random.Random(11)
        for _ in range(20):
            ab = Alphabet(("a", "b", "c", "d"))
            prior = Distribution(ab, random_distribution(rng, 4))
            cols = np.array([[rng.uniform(0.05, 1.0) for _ in range(4)] for _ in range(4)])
            cols /= cols.sum(axis=0, keepdims=True)
            channel = Channel(ab, ("h1", "h2", "h3", "h4"), cols.tolist())
            tfs = [optimal_truth_function(channel, j) for j in range(4)]
            shannon = 0.0
            for j in range(4):
                p_hj = sum(p * v for p, v in zip(prior.probs, channel.row(j)))
                post = bayes_invert(prior, channel.row(j))
                shannon += p_hj * kl_divergence(post, prior)
            assert semantic_mutual_info(channel, prior, tfs) == pytest.approx(
                shannon, abs=1e-6)


class TestKlUpperBound:
    def test_no_belief_beats_kl_information(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 5)
            ab = Alphabet([f"x{i}" for i in range(n)])
            prior = Distribution(ab, random_distribution(rng, n))
            sampling = Distribution(ab, random_distribution(rng, n))
            size = rng.randint(1, n - 1)
            crisp = Crisp(ab, ab.labels[:size])
            bound = kl_divergence(sampling, prior)
            for b in np.linspace(-1.0, 1.0, 81):
                info = average_semantic_info(belief_adjust(crisp, b), prior, sampling)
                assert info <= bound + 1e-9
