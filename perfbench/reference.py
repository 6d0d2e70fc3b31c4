"""Reference results computed without semcal, for checking its outputs.

Each function re-derives a quantity from the paper's formulas by a route
that shares no code with the program: closed forms written from the ratio
definitions with the information taken as a plain KL divergence, numpy grid
scans over the belief, and Shannon mutual information from raw counts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

PROPER = "proper-affirmation"
EXCESSIVE = "excessive-affirmation"
_DENIAL_CASE = {PROPER: "excessive-negation", EXCESSIVE: "proper-negation"}


class Doc(NamedTuple):
    b_star: float
    case: str | None
    bits: float | None


def _kl_bits(q, p) -> float:
    return math.fsum(qi * math.log2(qi / pi) for qi, pi in zip(q, p) if qi > 0)


def doc_rates(p0: float, p1: float, q0: float, q1: float, denial: bool = False) -> Doc:
    """b* from the ratio rule; the information at the optimum is KL(Q || P)."""
    prior_ratio, posterior_ratio = p0 / p1, q0 / q1
    if posterior_ratio <= prior_ratio:
        b, case = 1.0 - posterior_ratio / prior_ratio, PROPER
    else:
        b, case = prior_ratio / posterior_ratio - 1.0, EXCESSIVE
    if denial:
        b, case = -b, _DENIAL_CASE[case]
    return Doc(b, case, _kl_bits((q1, q0), (p1, p0)))


def _b_prime(counts) -> float:
    n11, n10, n01, n00 = counts
    return (n10 / n11) / ((n10 + n00) / (n11 + n01))


def doc_table(counts) -> Doc:
    n11, n10, n01, n00 = counts
    n, row = sum(counts), n11 + n10
    return doc_rates((n10 + n00) / n, (n11 + n01) / n, n10 / row, n11 / row)


def raven(counts) -> tuple[float, float]:
    """Central differences of 1 - b' in n11 and n00, the relaxed counts."""
    n11, n10, n01, n00 = (float(c) for c in counts)
    h11, h00 = 1e-5 * n11, 1e-5 * n00
    d11 = (_b_prime((n11 - h11, n10, n01, n00)) - _b_prime((n11 + h11, n10, n01, n00))) / (2 * h11)
    d00 = (_b_prime((n11, n10, n01, n00 - h00)) - _b_prime((n11, n10, n01, n00 + h00))) / (2 * h00)
    return d11, d00


def _test_reading(hit: float, miss: float) -> tuple[float, str]:
    """b* of a reading selected at rate ``hit`` on positives and ``miss`` on counterexamples."""
    if miss <= hit:
        return 1.0 - miss / hit, PROPER
    return hit / miss - 1.0, EXCESSIVE


def doc_test(sensitivity: float, specificity: float, prior_positive: float) -> tuple[Doc, Doc]:
    prior = (prior_positive, 1.0 - prior_positive)
    docs = []
    for hit, miss, likelihood in (
        (sensitivity, 1.0 - specificity, (sensitivity, 1.0 - specificity)),
        (specificity, 1.0 - sensitivity, (1.0 - sensitivity, specificity)),
    ):
        b, case = _test_reading(hit, miss)
        joint = [p * t for p, t in zip(prior, likelihood)]
        mass = math.fsum(joint)
        docs.append(Doc(b, case, _kl_bits([j / mass for j in joint], prior)))
    return docs[0], docs[1]


def _belief_info(truth: np.ndarray, prior: np.ndarray, sampling: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Average semantic information of each belief in ``b`` (rows) in bits."""
    b = b[:, None]
    tb = np.where(b >= 0, 1.0 - b + b * truth, 1.0 + b * truth)
    with np.errstate(divide="ignore"):
        logs = np.log2(tb)
    mask = sampling > 0
    info = np.where(mask, sampling * logs, 0.0).sum(axis=1) - np.log2(tb @ prior)
    info[np.any(np.isneginf(logs) & mask, axis=1)] = -np.inf
    return info


def belief_grid(truth, prior, sampling) -> Doc:
    """b* and bits by a coarse grid over [-1, 1] refined around its best point."""
    truth, prior, sampling = (np.asarray(v, dtype=float) for v in (truth, prior, sampling))
    grid = np.linspace(-1.0, 1.0, 2001)
    best = grid[int(np.argmax(_belief_info(truth, prior, sampling, grid)))]
    fine = np.linspace(max(-1.0, best - 2e-3), min(1.0, best + 2e-3), 4001)
    info = _belief_info(truth, prior, sampling, fine)
    k = int(np.argmax(info))
    return Doc(float(fine[k]), None, float(info[k]))


class ChannelFit(NamedTuple):
    conditions: tuple[str, ...]
    selecting: np.ndarray       # P(h_j | e_i), rows by condition
    truth: np.ndarray           # rows max-normalized
    mutual_info_bits: float     # Shannon I(H; E)


def channel_fit(labels, records) -> ChannelFit:
    """Selecting rule, matched truth functions and Shannon MI from raw counts."""
    conditions = tuple(dict.fromkeys(c for c, _ in records))
    col = {label: i for i, label in enumerate(labels)}
    row = {c: j for j, c in enumerate(conditions)}
    counts = np.zeros((len(conditions), len(labels)))
    np.add.at(counts, ([row[c] for c, _ in records], [col[e] for _, e in records]), 1.0)
    joint = counts / counts.sum()
    p_e, p_h = joint.sum(axis=0), joint.sum(axis=1)
    selecting = joint / p_e
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log2(joint[nz] / np.outer(p_h, p_e)[nz])))
    return ChannelFit(conditions, selecting, selecting / selecting.max(axis=1, keepdims=True), mi)
