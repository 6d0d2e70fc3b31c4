"""Batch command-line front end.

Four subcommands: ``doc`` (degrees of confirmation), ``info`` (semantic
information of a truth function against prior/sampling files), ``msie``
(estimation from tagged samples or a synthetic position-estimator scenario),
and ``reproduce`` (regenerate the built-in worked examples).

All numeric logic lives in the core modules; this layer only parses,
dispatches, and formats.  Exit codes: 0 success, 1 parse/validation error,
2 mathematical degeneracy.  Machine output is JSON with fixed key order;
negative infinity is emitted as the literal token "-inf".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from . import reproduce as reproduce_mod
from .confirmation import (
    ContingencyTable,
    DocResult,
    RateSpec,
    doc_from_rates,
    doc_from_test,
    doc_h1_from_table,
    doc_h2_from_table,
    raven_increments,
)
from .distributions import Alphabet, Distribution
from .errors import ParseError, SemcalError
from .estimation import (
    channel_from_samples,
    empirical_conditional,
    gps_fit,
    optimal_truth_function,
    optimize_belief,
)
from .estimation_types import GpsModel, SampleSet
from .semantic_info import average_semantic_info, gkl_decomposition, pointwise_semantic_info
from .truth_functions import Crisp, Gaussian, Tabular, belief_adjust


def _tolerance() -> float:
    raw = os.environ.get("SEMCAL_TOLERANCE", "")
    if not raw:
        return 1e-9
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"SEMCAL_TOLERANCE is not a number: {raw!r}") from None


def _parse_floats(text: str, expected: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise ParseError(f"{what} needs {expected} comma-separated values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad number in {what}: {exc}") from None


def _read_distribution(path: str) -> Distribution:
    labels, probs = [], []
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#"):
                    continue
                if len(row) != 2:
                    raise ParseError(f"{path}: expected 'label,probability' rows, got {row}")
                labels.append(row[0].strip())
                probs.append(float(row[1]))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return Distribution(Alphabet(labels), probs, tolerance=_tolerance())


def _read_samples(path: str) -> SampleSet:
    records = []
    labels: dict[str, None] = {}
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#"):
                    continue
                if len(row) != 2:
                    raise ParseError(f"{path}: expected 'condition,label' rows, got {row}")
                condition, label = row[0].strip(), row[1].strip()
                records.append((condition, label))
                labels.setdefault(label)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not records:
        raise ParseError(f"{path}: no sample records")
    return SampleSet(Alphabet(tuple(labels)), records)


def _parse_tf(spec: str, alphabet: Alphabet):
    """crisp:a|b, gauss:center,stddev, table:v1,v2,..., belief:b:<inner>"""
    kind, _, rest = spec.partition(":")
    if kind == "crisp":
        members = [m for m in rest.split("|") if m]
        return Crisp(alphabet, members)
    if kind == "gauss":
        center, stddev = _parse_floats(rest, 2, "gauss spec")
        return Gaussian(center, stddev)
    if kind == "table":
        values = _parse_floats(rest, len(alphabet), "table spec")
        return Tabular(alphabet, values)
    if kind == "belief":
        b_text, _, inner = rest.partition(":")
        if not inner:
            raise ParseError("belief spec needs belief:<b>:<inner-spec>")
        try:
            b = float(b_text)
        except ValueError:
            raise ParseError(f"bad belief value {b_text!r}") from None
        return belief_adjust(_parse_tf(inner, alphabet), b)
    raise ParseError(f"unknown truth-function spec kind {kind!r}")


# -- output formatting ---------------------------------------------------

def _jsonable(value):
    if isinstance(value, float):
        if value == float("-inf"):
            return "-inf"
        if value == float("inf"):
            return "inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _fmt_scalar(value) -> str:
    if isinstance(value, float):
        if value == float("-inf"):
            return "-inf"
        if value == float("inf"):
            return "inf"
        return format(value, ".12g")
    return str(value)


def _emit(record: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(_jsonable(record), indent=2) + "\n"
    else:
        lines = [f"command: {record['command']}"]
        for section in ("inputs", "outputs"):
            lines.append(f"{section}:")
            for key, value in record[section].items():
                if isinstance(value, dict):
                    lines.append(f"  {key}:")
                    for k2, v2 in value.items():
                        lines.append(f"    {k2:<28} {_fmt_scalar(v2)}")
                else:
                    lines.append(f"  {key:<30} {_fmt_scalar(value)}")
        for warning in record["warnings"]:
            lines.append(f"warning: {warning}")
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _doc_fields(result: DocResult) -> dict:
    fields = {
        "b_star": result.b_star,
        "b_prime_star": result.b_prime_star,
        "case": result.case.value,
    }
    if result.information_bits is not None:
        fields["information_bits"] = result.information_bits
    return fields


# -- subcommands ---------------------------------------------------------

def cmd_doc(args) -> dict:
    supplied = [name for name in ("table", "rates", "test") if getattr(args, name)]
    if len(supplied) != 1:
        raise ParseError("exactly one of --table, --rates, --test is required")
    record = {"command": "doc", "inputs": {}, "outputs": {}, "warnings": []}

    if args.table:
        counts = _parse_floats(args.table, 4, "--table")
        table = ContingencyTable(*counts)
        record["inputs"]["table"] = dict(zip(("n11", "n10", "n01", "n00"), counts))
        record["outputs"]["h1"] = _doc_fields(doc_h1_from_table(table))
        record["outputs"]["h2"] = _doc_fields(doc_h2_from_table(table))
        d11, d00 = raven_increments(table)
        record["outputs"]["raven_increments"] = {
            "db_star_dn11": d11, "db_star_dn00": d00,
        }
    elif args.rates:
        p0, p1, q0, q1 = _parse_floats(args.rates, 4, "--rates")
        record["inputs"]["rates"] = {"P0": p0, "P1": p1, "Q0": q0, "Q1": q1}
        result = doc_from_rates(RateSpec(prior=(p0, p1), posterior=(q0, q1)))
        record["outputs"]["h1"] = _doc_fields(result)
    else:
        sens, spec = _parse_floats(args.test, 2, "--test")
        record["inputs"]["test"] = {"sensitivity": sens, "specificity": spec}
        if args.prior_positive is not None:
            record["inputs"]["prior_positive"] = args.prior_positive
        pos, neg = doc_from_test(sens, spec, prior_positive=args.prior_positive)
        record["outputs"]["positive"] = _doc_fields(pos)
        record["outputs"]["negative"] = _doc_fields(neg)
    return record


def cmd_info(args) -> dict:
    prior = _read_distribution(args.prior)
    sampling = _read_distribution(args.sampling)
    tf = _parse_tf(args.tf, prior.alphabet)
    record = {
        "command": "info",
        "inputs": {"prior": args.prior, "sampling": args.sampling, "tf": args.tf},
        "outputs": {},
        "warnings": [],
    }
    pointwise = {
        label: pointwise_semantic_info(tf, prior, label) for label in prior.alphabet
    }
    record["outputs"]["pointwise_bits"] = pointwise
    record["outputs"]["average_bits"] = average_semantic_info(tf, prior, sampling)
    kl_info, penalty = gkl_decomposition(tf, prior, sampling)
    record["outputs"]["kl_info_bits"] = kl_info
    record["outputs"]["penalty_bits"] = penalty
    return record


def cmd_msie(args) -> dict:
    if bool(args.samples) == bool(args.gps):
        raise ParseError("exactly one of --samples, --gps is required")
    record = {"command": "msie", "inputs": {}, "outputs": {}, "warnings": []}

    if args.gps:
        try:
            with open(args.gps) as fh:
                scenario = json.load(fh)
            model = GpsModel(
                grid_size=int(scenario["grid_size"]),
                delta_e=float(scenario["delta_e"]),
                d=float(scenario["d"]),
                c=float(scenario["c"]),
            )
        except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad scenario file {args.gps}: {exc}") from None
        record["inputs"]["gps"] = scenario
        delta_hat, d_hat, b_hat = gps_fit(model.channel_matrix())
        record["outputs"]["delta_e_hat"] = delta_hat
        record["outputs"]["d_hat"] = d_hat
        record["outputs"]["b_hat"] = b_hat
        record["outputs"]["b_reference"] = model.reference_belief
        return record

    samples = _read_samples(args.samples)
    prior = _read_distribution(args.prior) if args.prior else None
    channel, prior = channel_from_samples(samples, prior)
    record["inputs"]["samples"] = args.samples
    record["inputs"]["records"] = len(samples)
    for j, name in enumerate(channel.hypotheses):
        tf = optimal_truth_function(channel, j)
        peak_label = channel.alphabet.labels[max(
            range(len(tf.table)), key=lambda i: tf.table[i])]
        sampling = empirical_conditional(samples, {name})
        result = optimize_belief(Crisp(channel.alphabet, {peak_label}), prior, sampling)
        record["outputs"][name] = {
            **{f"truth[{label}]": v for label, v in zip(channel.alphabet, tf.table)},
            **_doc_fields(result),
        }
    return record


def cmd_reproduce(args) -> tuple[dict, int]:
    rows = reproduce_mod.reproduce_rows()
    record = {"command": "reproduce", "inputs": {}, "outputs": {}, "warnings": []}
    for row in rows:
        key = f"{row['item']}.{row['quantity']}"
        record["outputs"][key] = {
            "published": row["published"],
            "computed": row["computed"],
            "delta": row["delta"],
            "status": row["status"],
        }
        if row["status"] == "warning":
            record["warnings"].append(
                f"{key}: published {row['published']} vs computed "
                f"{_fmt_scalar(row['computed'])} (documented discrepancy)")
    status = 0 if reproduce_mod.reproduce_ok(rows) else 2
    return record, status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcal",
        description="Semantic information and degree-of-confirmation calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")

    p_doc = sub.add_parser("doc", help="degree of confirmation")
    p_doc.add_argument("--table", help="n11,n10,n01,n00 contingency counts")
    p_doc.add_argument("--rates", help="P0,P1,Q0,Q1 prior/posterior masses")
    p_doc.add_argument("--test", help="sensitivity,specificity")
    p_doc.add_argument("--prior-positive", type=float, default=None,
                       help="base rate for the information of a test reading")
    add_common(p_doc)

    p_info = sub.add_parser("info", help="semantic information of a truth function")
    p_info.add_argument("--prior", required=True, help="label,probability CSV")
    p_info.add_argument("--sampling", required=True, help="label,probability CSV")
    p_info.add_argument("--tf", required=True,
                        help="crisp:a|b, gauss:center,stddev, table:v1,..., belief:b:<inner>")
    add_common(p_info)

    p_msie = sub.add_parser("msie", help="estimate truth functions from samples")
    p_msie.add_argument("--samples", help="condition,label CSV")
    p_msie.add_argument("--prior", help="optional label,probability CSV")
    p_msie.add_argument("--gps", help="JSON scenario: grid_size, delta_e, d, c")
    add_common(p_msie)

    p_rep = sub.add_parser("reproduce", help="regenerate the built-in worked examples")
    add_common(p_rep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "doc":
            record, status = cmd_doc(args), 0
        elif args.command == "info":
            record, status = cmd_info(args), 0
        elif args.command == "msie":
            record, status = cmd_msie(args), 0
        else:
            record, status = cmd_reproduce(args)
    except SemcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    _emit(record, args.format, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
