"""Embedded worked examples: the birds, fatty-liver, HIV, swans, and CEP cases.

Each row compares a published value against its recomputation from the raw
inputs.  Two published values are known not to match their own inputs (the
fatty-liver information and the negative-HIV-test information); those rows
carry status "warning" instead of failing.
"""

from __future__ import annotations

from fractions import Fraction

from .confirmation import (
    ContingencyTable,
    RateSpec,
    doc_from_rates,
    doc_from_test,
    doc_h1_from_table,
    gps_cep_doc,
    predicted_probability,
)


def _row(item: str, quantity: str, published, computed, tolerance,
         documented: bool = False) -> dict:
    """One row: "match" when |published - computed| <= tolerance, else "warning" or "fail".

    Python subtracts two ``Fraction`` values exactly, so the same comparison
    serves the exact row, whose tolerance is 0, and the float rows.
    """
    delta = abs(published - computed)
    if delta <= tolerance:
        status = "match"
    elif documented:
        status = "warning"
    else:
        status = "fail"
    return {
        "item": item,
        "quantity": quantity,
        "published": str(published) if isinstance(published, Fraction) else published,
        "computed": str(computed) if isinstance(computed, Fraction) else computed,
        "delta": float(delta),
        "status": status,
    }


def reproduce_rows() -> list[dict]:
    rows: list[dict] = []

    birds = doc_h1_from_table(ContingencyTable(83, 57, 17, 686))
    rows.append(_row("birds", "b_prime_star", 0.0924, birds.b_prime_star, 5e-4))
    rows.append(_row("birds", "b_star", 0.908, birds.b_star, 5e-4))
    rows.append(_row("birds", "information_bits", 0.923, birds.information_bits, 3e-3))

    liver = doc_h1_from_table(ContingencyTable(25, 16, 41, 60))
    rows.append(_row("fatty-liver", "b_star", 0.444, liver.b_star, 1e-3))
    rows.append(_row("fatty-liver", "information_bits", 0.025, liver.information_bits,
                     1e-3, documented=True))

    pos, neg = doc_from_test(0.917, 0.999, prior_positive=0.004)
    rows.append(_row("hiv-test", "b_plus_star", 0.9989, pos.b_star, 1e-4))
    rows.append(_row("hiv-test", "b_minus_star", 0.917, neg.b_star, 1e-3))
    rows.append(_row("hiv-test", "information_bits_positive", 5.52,
                     pos.information_bits, 0.01))
    rows.append(_row("hiv-test", "information_bits_negative", 0.04,
                     neg.information_bits, 1e-3, documented=True))
    rows.append(_row("hiv-test", "predicted_probability_high_risk", 0.991,
                     predicted_probability(0.1, pos.b_prime_star), 1e-3))

    swans_pos = doc_from_rates(RateSpec(prior=(0.2, 0.8), posterior=(0.01, 0.99)))
    rows.append(_row("swans-positive", "b_prime_star", 0.0404,
                     swans_pos.b_prime_star, 1e-4))
    rows.append(_row("swans-positive", "b_star", 0.9596, swans_pos.b_star, 1e-4))
    rows.append(_row("swans-positive", "information_bits", 0.2611,
                     swans_pos.information_bits, 1e-3))

    swans_neg = doc_from_rates(RateSpec(prior=(0.01, 0.99), posterior=(0.05, 0.95)))
    rows.append(_row("swans-negative", "b_prime_star", 0.192,
                     swans_neg.b_prime_star, 1e-3))
    rows.append(_row("swans-negative", "b_star", -0.808, swans_neg.b_star, 1e-3))
    rows.append(_row("swans-negative", "information_bits", 0.060,
                     swans_neg.information_bits, 1e-3))

    cep = gps_cep_doc(Fraction(1, 2), 1, 1000)
    rows.append(_row("gps-cep", "b_star", Fraction(998, 999), cep.b_star, 0))

    return rows


def reproduce_ok(rows: list[dict]) -> bool:
    """True when every row of ``reproduce_rows`` matches, ignoring the documented warnings."""
    return all(r["status"] != "fail" for r in rows)
