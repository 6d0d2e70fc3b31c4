"""Batch command-line front end.

Four subcommands: ``doc`` (degrees of confirmation), ``info`` (semantic
information of a truth function against prior/sampling files), ``msie``
(estimation from tagged samples or a synthetic position-estimator scenario),
and ``reproduce`` (regenerate the built-in worked examples).

All numeric logic lives in the core modules; this layer only parses,
dispatches, and formats.  Exit codes: 0 success, 1 usage, parse or
validation error, 2 mathematical degeneracy.  Machine output is JSON with fixed key order;
negative infinity is emitted as the literal token "-inf".

Only the modules ``doc`` needs (``confirmation``, ``distributions``,
``errors``) are imported at load time.  The other commands import their
modules when they run: each process runs one command, and compiling and
executing the modules it does not use (the belief searches, the position
model, ``fractions``, ``csv``) would add about a fifth to the wall time of a
``semcal doc`` process.  The value classes are built on
``distributions.Frozen`` rather than the standard library's class
generator, whose import (with ``inspect``) and per-class ``exec`` would
cost a ``semcal doc`` process about 15%.  Calls into ``estimation`` and
``reproduce`` go through the module attribute, so a wrapper set on that
attribute (a timer, a call counter) sees them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

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
from .distributions import Alphabet, Distribution, bayes_invert
from .errors import ParseError, SemcalError

if TYPE_CHECKING:
    from .estimation_types import SampleSet


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError (exit 1) instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


def _parse_floats(text: str, expected: int, what: str) -> list[float]:
    """``expected`` comma-separated numbers from ``text``, or ParseError.

    Every number the CLI reads from text goes through here: the ``--table``,
    ``--rates`` and ``--test`` values, the ``gauss:``, ``table:`` and
    ``belief:`` truth-function specs, and each probability of a
    distribution file.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise ParseError(f"{what} needs {expected} comma-separated values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad number in {what}: {exc}") from None


def _read_pairs(path: str, header: str):
    """Yield the two-column rows of a CSV file, skipping blank and '#' rows."""
    import csv

    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#"):
                    continue
                if len(row) != 2:
                    raise ParseError(f"{path}: expected '{header}' rows, got {row}")
                yield row
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _read_distribution(path: str) -> Distribution:
    labels, probs = [], []
    for label, prob in _read_pairs(path, "label,probability"):
        labels.append(label.strip())
        probs += _parse_floats(prob, 1, f"{path}: probability of {labels[-1]!r}")
    return Distribution(Alphabet(labels), probs)


def _read_samples(path: str) -> SampleSet:
    from .estimation_types import SampleSet

    records = [(c.strip(), e.strip()) for c, e in _read_pairs(path, "condition,label")]
    if not records:
        raise ParseError(f"{path}: no sample records")
    return SampleSet(Alphabet(tuple(dict.fromkeys(e for _, e in records))), records)


def _parse_tf(spec: str, alphabet: Alphabet):
    """crisp:a|b, gauss:center,stddev, table:v1,v2,..., belief:b:<inner>"""
    from .truth_functions import Crisp, Gaussian, Tabular, belief_adjust

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
        b, = _parse_floats(b_text, 1, "belief value")
        return belief_adjust(_parse_tf(inner, alphabet), b)
    raise ParseError(f"unknown truth-function spec kind {kind!r}")


# -- output formatting ---------------------------------------------------

def _token(value):
    """A non-finite float as its output token "-inf", "inf" or "nan"; else the value."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return _token(value)


def _fmt_scalar(value) -> str:
    if isinstance(value, float) and math.isfinite(value):
        return format(value, ".12g")
    return str(_token(value))


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
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from None
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
#
# Each fills the record that ``main`` built and returns the exit status.

def cmd_doc(args, record: dict) -> int:
    if args.prior_positive is not None and args.test is None:
        raise ParseError("--prior-positive applies only to --test")
    inputs, outputs = record["inputs"], record["outputs"]

    if args.table is not None:
        counts = _parse_floats(args.table, 4, "--table")
        table = ContingencyTable(*counts)
        inputs["table"] = dict(zip(("n11", "n10", "n01", "n00"), counts))
        outputs["h1"] = _doc_fields(doc_h1_from_table(table))
        outputs["h2"] = _doc_fields(doc_h2_from_table(table))
        d11, d00 = raven_increments(table)
        outputs["raven_increments"] = {"db_star_dn11": d11, "db_star_dn00": d00}
    elif args.rates is not None:
        p0, p1, q0, q1 = _parse_floats(args.rates, 4, "--rates")
        inputs["rates"] = {"P0": p0, "P1": p1, "Q0": q0, "Q1": q1}
        outputs["h1"] = _doc_fields(doc_from_rates(RateSpec(prior=(p0, p1), posterior=(q0, q1))))
    else:
        sens, spec = _parse_floats(args.test, 2, "--test")
        inputs["test"] = {"sensitivity": sens, "specificity": spec}
        if args.prior_positive is not None:
            inputs["prior_positive"] = args.prior_positive
        pos, neg = doc_from_test(sens, spec, prior_positive=args.prior_positive)
        outputs["positive"] = _doc_fields(pos)
        outputs["negative"] = _doc_fields(neg)
    return 0


def cmd_info(args, record: dict) -> int:
    from .semantic_info import _pointwise_bits, average_semantic_info, gkl_decomposition

    prior = _read_distribution(args.prior)
    sampling = _read_distribution(args.sampling)
    tf = _parse_tf(args.tf, prior.alphabet)
    record["inputs"].update(prior=args.prior, sampling=args.sampling, tf=args.tf)
    outputs = record["outputs"]
    labels = prior.alphabet.labels
    outputs["pointwise_bits"] = dict(zip(labels, _pointwise_bits(tf, prior, labels)))
    outputs["average_bits"] = average_semantic_info(tf, prior, sampling)
    outputs["kl_info_bits"], outputs["penalty_bits"] = gkl_decomposition(tf, prior, sampling)
    return 0


def cmd_msie(args, record: dict) -> int:
    from . import estimation
    from .estimation_types import GpsModel
    from .truth_functions import Crisp

    inputs, outputs = record["inputs"], record["outputs"]

    if args.gps is not None:
        try:
            with open(args.gps) as fh:
                scenario = json.load(fh)
            model = GpsModel(grid_size=scenario["grid_size"], delta_e=scenario["delta_e"],
                             d=scenario["d"], c=scenario["c"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad scenario file {args.gps}: {exc}") from None
        inputs["gps"] = scenario
        outputs["delta_e_hat"], outputs["d_hat"], outputs["b_hat"] = estimation.gps_fit(
            model.channel_matrix())
        outputs["b_reference"] = model.reference_belief
        return 0

    samples = _read_samples(args.samples)
    channel, prior = estimation.channel_from_samples(samples)
    inputs["samples"] = args.samples
    inputs["records"] = len(samples)
    for j, name in enumerate(channel.hypotheses):
        tf = estimation.optimal_truth_function(channel, j)
        # the max-normalized row is 1.0 exactly where the row peaks, below it elsewhere
        peak_label = channel.alphabet.labels[tf.table.index(1.0)]
        sampling = bayes_invert(prior, channel.row(j))    # P(E|h_j) by Bayes' rule
        result = estimation.optimize_belief(Crisp(channel.alphabet, {peak_label}), prior,
                                            sampling)
        outputs[name] = {
            **{f"truth[{label}]": v for label, v in zip(channel.alphabet, tf.table)},
            **_doc_fields(result),
        }
    return 0


def cmd_reproduce(args, record: dict) -> int:
    from . import reproduce

    rows = reproduce.reproduce_rows()
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
    return 0 if reproduce.reproduce_ok(rows) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semcal",
        description="Semantic information and degree-of-confirmation calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")

    p_doc = sub.add_parser("doc", help="degree of confirmation")
    source = p_doc.add_mutually_exclusive_group(required=True)
    source.add_argument("--table", help="n11,n10,n01,n00 contingency counts")
    source.add_argument("--rates", help="P0,P1,Q0,Q1 prior/posterior masses")
    source.add_argument("--test", help="sensitivity,specificity")
    p_doc.add_argument("--prior-positive", type=float, default=None,
                       help="base rate for the information of a test reading (--test only)")
    add_common(p_doc)

    p_info = sub.add_parser("info", help="semantic information of a truth function")
    p_info.add_argument("--prior", required=True, help="label,probability CSV")
    p_info.add_argument("--sampling", required=True, help="label,probability CSV")
    p_info.add_argument("--tf", required=True,
                        help="crisp:a|b, gauss:center,stddev, table:v1,..., belief:b:<inner>")
    add_common(p_info)

    p_msie = sub.add_parser("msie", help="estimate truth functions from samples")
    source = p_msie.add_mutually_exclusive_group(required=True)
    source.add_argument("--samples", help="condition,label CSV")
    source.add_argument("--gps", help="JSON scenario: grid_size, delta_e, d, c")
    add_common(p_msie)

    p_rep = sub.add_parser("reproduce", help="regenerate the built-in worked examples")
    add_common(p_rep)
    return parser


def main(argv: list[str] | None = None) -> int:
    commands = {"doc": cmd_doc, "info": cmd_info, "msie": cmd_msie,
                "reproduce": cmd_reproduce}
    try:
        args = build_parser().parse_args(argv)
        record = {"command": args.command, "inputs": {}, "outputs": {}, "warnings": []}
        status = commands[args.command](args, record)
        _emit(record, args.format, args.out)
    except SemcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return status


if __name__ == "__main__":
    sys.exit(main())
