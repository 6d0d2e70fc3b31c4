"""SHA-256 digests of semcal's outputs on fixed seeded inputs, one per group of exports.

Usage:

    PYTHONPATH=src python3 tools/output_digest.py [--show GROUP]

Builds its inputs from one seed, calls the library on each and prints one
line per group, ``<sha256>  <group>``, then ``<sha256>  total`` over the
group digests.  Two trees that print the same digest for a group returned
the same values, or raised the same errors, on every call of that group.
The groups are the closed forms, belief solves at n = 2 ... 256 on both
branches, the semantic measures, the channel fit, ``reproduce_rows()``
and the position model at m = 8 ... 200 (wrong-shape arrays included).

Each call contributes one line: the export's name and the canonical repr
of its result, or the class name of the ``SemcalError`` it raised; any
other exception stops the tool.  The canonical repr is the plain ``repr``
except that sets are sorted, value classes are spelled field by field and
numpy arrays and scalars are written as their dtype and Python values, so
no digest depends on ``PYTHONHASHSEED`` or numpy's print options.
``--show GROUP`` prints that group's lines instead of its digest, so that
two trees whose digests differ can be diffed call by call.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction

import numpy as np

from semcal import (Alphabet, Channel, ContingencyTable, Crisp, Distribution, Gaussian, GpsModel,
                    RateSpec, SampleSet, Tabular, average_semantic_info, bayes_invert,
                    belief_adjust, channel_from_samples, doc_from_rates, doc_from_test,
                    doc_h1_from_table, doc_h2_from_table, empirical_conditional,
                    gkl_decomposition, gps_cep_doc, gps_fit, gps_objective, kl_divergence,
                    lag_distribution, logical_probability, negate, optimal_truth_function,
                    optimize_belief, pointwise_info, pointwise_semantic_info,
                    predicted_probability, raven_increments, semantic_bayes,
                    semantic_mutual_info)
from semcal.errors import SemcalError
from semcal.reproduce import reproduce_rows

#: The seed of every input.
SEED = 2016


def canonical(value) -> str:
    """``repr`` of ``value`` with sets sorted and value classes and numpy values spelled out."""
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(map(canonical, value))) + "}"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}(" + ", ".join(map(canonical, value)) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{canonical(k)}: {canonical(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (np.ndarray, np.generic)):
        return f"{value.dtype}:{canonical(value.tolist())}"
    if hasattr(type(value), "_fields"):    # a semcal value class
        fields = ", ".join(f"{name}={canonical(getattr(value, name))}" for name in value._fields)
        return f"{type(value).__name__}({fields})"
    return repr(value)


def outcome(call, *args) -> str:
    """``name: canonical result`` of ``call(*args)``, or ``name: !ErrorClass``."""
    try:
        result = canonical(call(*args))
    except SemcalError as exc:
        result = f"!{type(exc).__name__}"
    return f"{call.__name__}: {result}"


def _masses(rng: random.Random, n: int, zero_share: float = 0.0) -> list[float]:
    """n random masses that sum to 1; each but the last is 0 with probability ``zero_share``."""
    raw = [0.0 if rng.random() < zero_share else rng.random() for _ in range(n - 1)]
    raw.append(rng.uniform(0.05, 1.0))
    total = sum(raw)
    return [v / total for v in raw]


def _unit(rng: random.Random) -> float:
    """A number in [0, 1]: one of the ends 0 and 1 a tenth of the time."""
    return rng.choice((0.0, 1.0)) if rng.random() < 0.1 else rng.random()


def _alphabet(n: int) -> Alphabet:
    return Alphabet([str(i) for i in range(n)])


def _truth_function(rng: random.Random, ab: Alphabet):
    """A crisp, tabular, Gaussian or belief-adjusted truth function on ``ab``."""
    n = len(ab)
    kind = rng.choice(("crisp", "tabular", "gaussian", "belief"))
    if kind == "crisp":
        return Crisp(ab, rng.sample(ab.labels, rng.randint(1, n)))
    if kind == "gaussian":
        return Gaussian(rng.uniform(0, n - 1), rng.uniform(0.3, n / 2 + 1))
    table = Tabular(ab, [0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-3, 0)
                         for _ in range(n)])
    return table if kind == "tabular" else belief_adjust(table, rng.uniform(-1, 1))


def closed_forms(rng: random.Random):
    for _ in range(300):
        counts = [rng.choice((0, 1, rng.randint(0, 1000), rng.uniform(0, 50)))
                  for _ in range(3)]
        table = ContingencyTable(*counts, rng.randint(1, 1000))
        for call in (doc_h1_from_table, doc_h2_from_table, raven_increments):
            yield outcome(call, table)
    for _ in range(200):
        p0, q0 = _unit(rng), _unit(rng)
        for hypothesis in ("affirmative", "denial"):
            yield outcome(doc_from_rates, RateSpec((p0, 1 - p0), (q0, 1 - q0)), hypothesis)
    for _ in range(200):
        sensitivity, specificity = _unit(rng), rng.random()
        yield outcome(doc_from_test, sensitivity, specificity,
                      rng.choice((None, rng.random())))
        yield outcome(predicted_probability, rng.random(), rng.random())
    for _ in range(50):
        total = rng.randint(1, 2000)
        yield outcome(gps_cep_doc, rng.choice((Fraction(rng.randint(0, 9), 9), rng.random())),
                      rng.randint(0, total), total)


def belief_solves(rng: random.Random):
    for n in (2, 3, 8, 64, 256):
        ab = _alphabet(n)
        for _ in range(24):
            prior = Distribution(ab, _masses(rng, n, 0.05))
            base = rng.choice((Crisp(ab, rng.sample(ab.labels, rng.randint(1, n))),
                               Tabular(ab, [rng.random() for _ in range(n)])))
            # sampled from a positive or a negative belief, so that both branches solve
            try:
                sampling = semantic_bayes(prior, belief_adjust(base, rng.uniform(-1, 1)))
            except SemcalError:
                sampling = Distribution(ab, _masses(rng, n, 0.3))
            yield outcome(optimize_belief, base, prior, sampling)


def semantic_measures(rng: random.Random):
    for n in (2, 3, 5, 17, 64, 256):
        ab = _alphabet(n)
        for _ in range(30):
            prior = Distribution(ab, _masses(rng, n, 0.05))
            sampling = Distribution(ab, _masses(rng, n, 0.3))
            tf = _truth_function(rng, ab)
            yield outcome(logical_probability, tf, prior)
            yield outcome(semantic_bayes, prior, tf)
            for label in ab:
                yield outcome(pointwise_semantic_info, tf, prior, label)
            yield outcome(average_semantic_info, tf, prior, sampling)
            yield outcome(gkl_decomposition, tf, prior, sampling)
            yield outcome(negate, tf)
            yield outcome(kl_divergence, sampling, prior)
            yield outcome(bayes_invert, prior, [rng.random() for _ in range(n)])
            yield outcome(pointwise_info, sampling.probs[0], prior.probs[0])
            yield outcome(Channel, ab, ("h1", "h0"),
                          (tf.values(ab), [1.0 - t for t in tf.values(ab)]))


def channel_fit(rng: random.Random):
    for n in (2, 8, 64, 256):
        ab = _alphabet(n)
        for _ in range(6):
            conditions = [f"h{j}" for j in range(rng.randint(1, 4))]
            records = [(rng.choice(conditions), label) for label in ab.labels]
            records += [(rng.choice(conditions), rng.choice(ab.labels)) for _ in range(4 * n)]
            samples = SampleSet(ab, records)
            yield outcome(empirical_conditional, samples, rng.sample(conditions, 1))
            yield outcome(channel_from_samples, samples)
            channel, prior = channel_from_samples(samples)
            tfs = [optimal_truth_function(channel, j) for j in range(len(conditions))]
            for j in range(len(conditions)):
                yield outcome(optimal_truth_function, channel, j)
            yield outcome(semantic_mutual_info, channel, prior, tfs)


def reproduce(rng: random.Random):
    yield outcome(reproduce_rows)


def position_model(rng: random.Random):
    noise = np.random.default_rng(SEED)
    for m in (8, 9, 16, 31, 64, 100, 200):
        for _ in range(6):
            d = rng.uniform(2.0, m / 4)
            model = GpsModel(m, rng.uniform(-m / 2, m / 2), d, rng.choice((0.0, 0.5 / m)))
            exact = model.channel_matrix()
            noisy = exact * noise.uniform(0.8, 1.2, exact.shape)
            noisy /= noisy.sum(axis=1, keepdims=True)
            for channel in (exact, noisy):
                yield outcome(lag_distribution, channel)
                yield outcome(gps_objective, channel, model.delta_e, d, rng.random())
                yield outcome(gps_fit, channel)
    for shape in ((), (8,), (8, 8, 8), (8, 9), (7, 7), (0, 0)):
        array = np.full(shape, 1.0 / max(shape[-1:] + (1,)))
        yield outcome(lag_distribution, array)
        yield outcome(gps_objective, array, 0.0, 2.0, 0.5)
        yield outcome(gps_fit, array)
    yield outcome(gps_fit, 5)


GROUPS = {
    "closed_forms": closed_forms,
    "belief_solves": belief_solves,
    "semantic_measures": semantic_measures,
    "channel_fit": channel_fit,
    "reproduce": reproduce,
    "position_model": position_model,
}


def group_lines(name: str) -> list[str]:
    """The lines of one group, from its own generator seeded with ``SEED``."""
    return list(GROUPS[name](random.Random(f"{SEED}:{name}")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--show", choices=sorted(GROUPS),
                        help="print this group's lines instead of the digests")
    args = parser.parse_args(argv)
    if args.show:
        print("\n".join(group_lines(args.show)))
        return 0
    total = hashlib.sha256()
    for name in GROUPS:
        digest = hashlib.sha256("\n".join(group_lines(name)).encode()).hexdigest()
        total.update(digest.encode())
        print(f"{digest}  {name}")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
