"""The four workloads: one cycle of timed operations each, and their checks.

An operation is timed around ``run`` alone; ``check`` then compares its
output with a second code path and runs outside the timed region.  Calls
into semcal go through module attributes (``confirmation.doc_h1_from_table``
and so on), so the traced run can swap those attributes for timing wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import semcal.cli
from semcal import (confirmation, distributions, estimation, estimation_types, semantic_info,
                    truth_functions)

import inputs
import reference

#: Wall-clock limit on one CLI subprocess; an invocation that hits it counts as failed.
CHILD_TIMEOUT_S = 60

# Tolerances of the checks.  Closed forms agree to rounding; golden-section
# searches are held to test_08's bounds; gps fits to test_12's bounds.
CLOSED_TOL = 1e-9
SEARCH_B_TOL, SEARCH_BITS_TOL = 1e-3, 1e-6
GPS_SHIFT_TOL, GPS_D_REL_TOL, GPS_B_TOL = 1.0, 0.05, 0.02


@dataclass(frozen=True)
class Calibration:
    """Fixed work that no change to semcal can alter, timed just before each
    operation of the same nature.  The reference machine, an Intel Xeon 2-vCPU
    KVM guest shared with other tenants, changes speed by 20-70% for seconds at
    a time; an operation's time over its calibration's is steady, and
    ``nominal_s`` (the calibration's time on that machine when quiet) turns the
    ratio back into seconds."""

    name: str
    nominal_s: float
    run: Callable[[], object]


def _python_loop():
    counts: dict = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return counts


_GRID = np.linspace(-3.0, 3.0, 200 * 200).reshape(200, 200)


def _numpy_kernel():
    for _ in range(40):
        truth = 0.9 * np.exp(-(_GRID**2) / 2.0) + 0.1
        total = float(np.sum(np.log2(truth) - np.log2(truth.mean(axis=0))[None, :]))
    return total


PYTHON_LOOP = Calibration("python_loop", 1.0e-4, _python_loop)
NUMPY_KERNEL = Calibration("numpy_kernel", 1.0e-2, _numpy_kernel)


def spawn_calibration(env: dict) -> Calibration:
    """``python -c pass``: interpreter start-up, for operations run as subprocesses.

    Its output is captured like the operations': with a timeout and no pipes,
    ``subprocess.run`` would poll for the exit with sleeps of up to 50 ms.
    """
    return Calibration("python_startup", 4.0e-2, lambda: subprocess.run(
        [sys.executable, "-c", "pass"], env=env, capture_output=True, check=True,
        timeout=CHILD_TIMEOUT_S))


@dataclass(frozen=True)
class Op:
    kind: str                         # operations of one kind share a latency series
    run: Callable[[], object]
    check: Callable[[object], bool]   # True when the output is correct
    calibration: Calibration
    inproc: Callable[[], object] | None = None   # in-process variant timed by traced passes


def child_env(src: Path) -> dict:
    """Environment of every child: this one (with its single BLAS thread), the
    checkout's semcal first on the path, and semcal's default tolerance."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.pop("SEMCAL_TOLERANCE", None)
    return env


def _doc_ok(result, ref: reference.Doc, b_tol: float, bits_tol: float) -> bool:
    """b*, case and bits of a closed-form result against the reference."""
    if abs(result.b_star - ref.b_star) > b_tol:
        return False
    # At b* = 0 the two cases meet and rounding may pick either.
    if result.case.value != ref.case and abs(ref.b_star) > 1e-9:
        return False
    return abs(result.information_bits - ref.bits) <= bits_tol


def _search_ok(result, ref: reference.Doc) -> bool:
    """A belief search against the reference optimum, within test_08's bounds.

    The search sees only the base truth function, so it names the case of an
    affirmation even for a denial; its sign of b* is what is compared.
    """
    return (abs(result.b_star - ref.b_star) <= SEARCH_B_TOL
            and abs(result.information_bits - ref.bits) <= SEARCH_BITS_TOL)


def _same(actual, expected) -> bool:
    """Equality of decoded CLI JSON with an in-process result, floats to rounding."""
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(_same(actual[k], v) for k, v in expected.items()))
    if isinstance(expected, float):
        if math.isinf(expected):
            return actual == ("-inf" if expected < 0 else "inf")
        return (isinstance(actual, (int, float)) and not isinstance(actual, bool)
                and math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-15))
    return actual == expected


def _doc_fields(result) -> dict:
    fields = {"b_star": result.b_star, "b_prime_star": result.b_prime_star,
              "case": result.case.value}
    if result.information_bits is not None:
        fields["information_bits"] = result.information_bits
    return fields


class Workload:
    """A seeded workload: ``cycle(i)`` lists the operations of its i-th round."""

    name: str
    # Kinds name latency series; a kind also covers its dotted sub-kinds, so
    # "cli" is every invocation and "cli.doc" the doc invocations.
    main_kind: str    # reported as op_p50_ms and ops_per_s
    aux_kind: str     # reported as aux_p50_ms
    #: This workload's figures under their own names -> (kind, statistic).
    named: dict = {}

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def probe(self) -> list[Op]:
        """A short traced sample of this workload's layers, run by other workloads' traces."""
        return self.cycle(0)

    def counting_ops(self) -> list[tuple[int, Op]]:
        """(alphabet size, belief solve) pairs for the call-counting pass."""
        return []


# -- cli_batch -------------------------------------------------------------

class CliBatch(Workload):
    """One closed-loop client running ``python -m semcal`` over a shuffled mix."""

    name = "cli_batch"
    main_kind = "cli"
    aux_kind = "cli.doc"
    named = {"cli_p50_ms": ("cli", "p50_ms"), "cli_tail_ms": ("cli", "tail_ms"),
             "cli_doc_p50_ms": ("cli.doc", "p50_ms")}

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.inp = inputs.cli_inputs(seed, workdir)
        self.env = child_env(src)
        self.spawn = spawn_calibration(self.env)
        self.cwd = str(workdir)
        self._expected: dict = {}

    def _op(self, kind: str, key, argv: list[str], expect: Callable[[], tuple[int, dict | None]]) -> Op:
        argv = [*argv, "--format", "json"]

        def run():
            proc = subprocess.run([sys.executable, "-m", "semcal", *argv], env=self.env,
                                  cwd=self.cwd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr

        def inproc():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = semcal.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result) -> bool:
            if key not in self._expected:
                self._expected[key] = expect()
            code, out, err = result
            want_code, want_outputs = self._expected[key]
            if code != want_code:
                return False
            if want_outputs is None:
                return out == "" and err.startswith("error:")
            return _same(json.loads(out)["outputs"], want_outputs)

        return Op(kind, run, check, self.spawn, inproc)

    # Expected results: the same library calls the CLI makes, made in process.

    @staticmethod
    def _expect_table(counts):
        t = confirmation.ContingencyTable(*map(float, counts))
        d11, d00 = confirmation.raven_increments(t)
        return 0, {"h1": _doc_fields(confirmation.doc_h1_from_table(t)),
                   "h2": _doc_fields(confirmation.doc_h2_from_table(t)),
                   "raven_increments": {"db_star_dn11": d11, "db_star_dn00": d00}}

    @staticmethod
    def _expect_rates(rates):
        p0, p1, q0, q1 = rates
        spec = confirmation.RateSpec(prior=(p0, p1), posterior=(q0, q1))
        return 0, {"h1": _doc_fields(confirmation.doc_from_rates(spec))}

    @staticmethod
    def _expect_test(test):
        pos, neg = confirmation.doc_from_test(test[0], test[1], prior_positive=test[2])
        return 0, {"positive": _doc_fields(pos), "negative": _doc_fields(neg)}

    @staticmethod
    def _expect_info(case: inputs.InfoCase):
        alphabet = distributions.Alphabet(case.labels)
        prior = distributions.Distribution(alphabet, case.prior)
        sampling = distributions.Distribution(alphabet, case.sampling)
        if case.table is not None:
            tf = truth_functions.Tabular(alphabet, case.table)
        else:
            tf = truth_functions.belief_adjust(truth_functions.Crisp(alphabet, case.members),
                                               case.belief)
        kl_info, penalty = semantic_info.gkl_decomposition(tf, prior, sampling)
        return 0, {
            "pointwise_bits": {label: semantic_info.pointwise_semantic_info(tf, prior, label)
                               for label in alphabet},
            "average_bits": semantic_info.average_semantic_info(tf, prior, sampling),
            "kl_info_bits": kl_info,
            "penalty_bits": penalty,
        }

    @staticmethod
    def _expect_msie(case: inputs.RecordsCase):
        alphabet = distributions.Alphabet(case.labels)
        samples = estimation_types.SampleSet(alphabet, case.records)
        channel, prior = estimation.channel_from_samples(samples)
        outputs = {}
        for j, name in enumerate(channel.hypotheses):
            tf = estimation.optimal_truth_function(channel, j)
            peak = alphabet.labels[max(range(len(tf.table)), key=tf.table.__getitem__)]
            sampling = estimation.empirical_conditional(samples, {name})
            result = estimation.optimize_belief(truth_functions.Crisp(alphabet, {peak}),
                                                prior, sampling)
            outputs[name] = {**{f"truth[{label}]": v for label, v in zip(alphabet, tf.table)},
                             **_doc_fields(result)}
        return 0, outputs

    @staticmethod
    def _expect_reproduce():
        return 0, {f"{r['item']}.{r['quantity']}": {k: r[k] for k in
                                                     ("published", "computed", "delta", "status")}
                   for r in semcal.reproduce.reproduce_rows()}

    def cycle(self, i: int) -> list[Op]:
        inp, v = self.inp, i % inputs.CLI_VARIANTS
        w = (v + inputs.CLI_VARIANTS // 2) % inputs.CLI_VARIANTS
        ops = []
        for k in (v, w):
            counts, rates, test, info = inp.tables[k], inp.rates[k], inp.tests[k], inp.infos[k]
            ops.append(self._op("cli.doc", ("table", k),
                                ["doc", "--table", ",".join(map(str, counts))],
                                lambda c=counts: self._expect_table(c)))
            ops.append(self._op("cli.doc", ("rates", k),
                                ["doc", "--rates", ",".join(map(repr, rates))],
                                lambda r=rates: self._expect_rates(r)))
            ops.append(self._op("cli.doc", ("test", k),
                                ["doc", "--test", f"{test[0]!r},{test[1]!r}",
                                 "--prior-positive", repr(test[2])],
                                lambda t=test: self._expect_test(t)))
            ops.append(self._op("cli.info", ("info", k),
                                ["info", "--prior", info.prior_path, "--sampling",
                                 info.sampling_path, "--tf", info.tf_spec],
                                lambda c=info: self._expect_info(c)))
            rec = inp.records[k % inputs.CLI_RECORD_FILES]
            ops.append(self._op("cli.msie", ("msie", k % inputs.CLI_RECORD_FILES),
                                ["msie", "--samples", rec.path],
                                lambda c=rec: self._expect_msie(c)))
        ops.append(self._op("cli.reproduce", "reproduce", ["reproduce"], self._expect_reproduce))
        if i % 2:
            ops.append(self._op("cli.error", ("malformed", v),
                                ["doc", "--table", inp.malformed[v]], lambda: (1, None)))
        else:
            ops.append(self._op("cli.error", ("empty", v),
                                ["doc", "--table", inp.empty_rows[v]], lambda: (2, None)))
        # Interleave the mix so that slow and fast periods of the machine fall on
        # every kind of invocation alike.
        random.Random(f"{self.seed}:{i}").shuffle(ops)
        return ops


# -- confirm_2x2 -----------------------------------------------------------

AB = distributions.Alphabet(("e1", "e0"))
TABLES_PER_SOLVE = 16


class Confirm2x2(Workload):
    """Many small problems: closed forms on 2x2 tables and 2-letter belief solves."""

    name = "confirm_2x2"
    main_kind = "table"
    aux_kind = "solve2"
    named = {"closed_form_tables_per_s": ("table", "per_s"),
             "belief_2x2_solves_per_s": ("solve2", "per_s")}

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.cases = inputs.confirm_inputs(seed)
        self.refs = [self._reference(c) for c in self.cases]

    @staticmethod
    def _reference(case: inputs.TableCase):
        n11, n10, n01, n00 = case.counts
        return (reference.doc_table(case.counts),
                reference.doc_table((n00, n10, n01, n11)),   # the contrapositive swaps n11, n00
                reference.raven(case.counts),
                reference.doc_rates(*case.rates, denial=case.denial),
                reference.doc_test(*case.test))

    def _table_op(self, k: int) -> Op:
        case = self.cases[k]
        p0, p1, q0, q1 = case.rates
        hypothesis = "denial" if case.denial else "affirmative"

        def run():
            t = confirmation.ContingencyTable(*case.counts)
            return (confirmation.doc_h1_from_table(t),
                    confirmation.doc_h2_from_table(t),
                    confirmation.raven_increments(t),
                    confirmation.doc_from_rates(
                        confirmation.RateSpec(prior=(p0, p1), posterior=(q0, q1)), hypothesis),
                    confirmation.doc_from_test(*case.test[:2], prior_positive=case.test[2]))

        def check(out) -> bool:
            h1, h2, (d11, d00), rates, (pos, neg) = out
            r_h1, r_h2, (r11, r00), r_rates, (r_pos, r_neg) = self.refs[k]
            return (_doc_ok(h1, r_h1, CLOSED_TOL, CLOSED_TOL)
                    and _doc_ok(h2, r_h2, CLOSED_TOL, CLOSED_TOL)
                    and math.isclose(d11, r11, rel_tol=1e-6)
                    and math.isclose(d00, r00, rel_tol=1e-6)
                    and _doc_ok(rates, r_rates, CLOSED_TOL, CLOSED_TOL)
                    and _doc_ok(pos, r_pos, CLOSED_TOL, CLOSED_TOL)
                    and _doc_ok(neg, r_neg, CLOSED_TOL, CLOSED_TOL))

        return Op("table", run, check, PYTHON_LOOP, run)

    def _solve_op(self, k: int) -> Op:
        """optimize_belief on the two-letter crisp hypothesis, against the closed form."""
        case = self.cases[k]
        p0, p1, q0, q1 = case.rates

        def run():
            base = truth_functions.Crisp(AB, {"e1"})
            if case.denial:
                base = truth_functions.negate(base)
            return estimation.optimize_belief(base, distributions.Distribution(AB, (p1, p0)),
                                              distributions.Distribution(AB, (q1, q0)))

        return Op("solve2", run, lambda out: _search_ok(out, self.refs[k][3]), PYTHON_LOOP, run)

    def cycle(self, i: int) -> list[Op]:
        start = (i * TABLES_PER_SOLVE) % len(self.cases)
        ops = [self._table_op(start + j) for j in range(TABLES_PER_SOLVE)]
        ops.append(self._solve_op(start + i % 2))
        return ops

    def counting_ops(self) -> list[tuple[int, Op]]:
        return [(2, self._solve_op(0)), (2, self._solve_op(1))]


# -- belief_wide -----------------------------------------------------------

class BeliefWide(Workload):
    """Few problems on wide alphabets: belief solves at n=64 and 256, one channel fit."""

    name = "belief_wide"
    main_kind = "solve256"
    aux_kind = "channel_fit"
    named = {"belief_wide_solves_per_s@n=256": ("solve256", "per_s"),
             "belief_wide_solves_per_s@n=64": ("solve64", "per_s"),
             "channel_fit_ms": ("channel_fit", "p50_ms")}

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.inp = inputs.wide_inputs(seed)
        self.refs = {}
        for key, problems in self.inp.problems.items():
            self.refs[key] = [self._reference(p) for p in problems]
        self.channel_ref = reference.channel_fit(self.inp.samples.alphabet.labels,
                                                 self.inp.records)

    @staticmethod
    def _reference(p: inputs.BeliefProblem) -> reference.Doc:
        if p.kind == "crisp":
            # Two-mass reduction: the crisp hypothesis only sees its set's mass.
            p1 = math.fsum(pr for pr, t in zip(p.prior.probs, p.truth) if t)
            q1 = math.fsum(q for q, t in zip(p.sampling.probs, p.truth) if t)
            return reference.doc_rates(1.0 - p1, p1, 1.0 - q1, q1)
        return reference.belief_grid(p.truth, p.prior.probs, p.sampling.probs)

    def _solve_op(self, n: int, kind: str, k: int) -> Op:
        p = self.inp.problems[n, kind][k]
        ref = self.refs[n, kind][k]

        def run():
            return estimation.optimize_belief(p.base, p.prior, p.sampling)

        return Op(f"solve{n}", run, lambda out: _search_ok(out, ref), PYTHON_LOOP, run)

    def _channel_op(self) -> Op:
        samples, ref = self.inp.samples, self.channel_ref

        def run():
            channel, prior = estimation.channel_from_samples(samples)
            tfs = [estimation.optimal_truth_function(channel, j)
                   for j in range(len(channel.hypotheses))]
            return channel, tfs, semantic_info.semantic_mutual_info(channel, prior, tfs)

        def check(out) -> bool:
            channel, tfs, smi = out
            # Matched truth functions make the semantic MI equal Shannon's.
            return (channel.hypotheses == ref.conditions
                    and all(max(abs(a - b) for a, b in zip(row, ref_row)) <= CLOSED_TOL
                            for row, ref_row in zip(channel.matrix, ref.selecting))
                    and all(max(abs(a - b) for a, b in zip(tf.table, ref_row)) <= CLOSED_TOL
                            for tf, ref_row in zip(tfs, ref.truth))
                    and abs(smi - ref.mutual_info_bits) <= CLOSED_TOL)

        return Op("channel_fit", run, check, PYTHON_LOOP, run)

    def cycle(self, i: int) -> list[Op]:
        k = i % inputs.WIDE_PROBLEMS
        return [self._solve_op(256, "crisp", k), self._solve_op(256, "tabular", k),
                self._solve_op(64, "crisp", k), self._solve_op(64, "tabular", k),
                self._channel_op()]

    def counting_ops(self) -> list[tuple[int, Op]]:
        return [(n, self._solve_op(n, kind, 0))
                for n in inputs.WIDE_SIZES for kind in ("crisp", "tabular")]


# -- gps_fit ---------------------------------------------------------------

class GpsFit(Workload):
    """Position-model fits and ``msie --gps`` at m=200 every round, m=256 in the first."""

    name = "gps_fit"
    main_kind = "fit200"
    aux_kind = "msie200"
    named = {"gps_fit_ms@m=200": ("fit200", "p50_ms"), "gps_fit_ms@m=256": ("fit256", "p50_ms"),
             "msie_gps_ms@m=200": ("msie200", "p50_ms"),
             "msie_gps_ms@m=256": ("msie256", "p50_ms")}

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.scenarios = {s.model.grid_size: s for s in inputs.gps_inputs(seed, workdir)}
        self.env = child_env(src)
        self.cwd = str(workdir)
        self._exact_fit: dict = {}

    @staticmethod
    def _within_bounds(model, delta_hat: float, d_hat: float, b_hat: float) -> bool:
        return (abs(delta_hat - model.delta_e) <= GPS_SHIFT_TOL
                and abs(d_hat - model.d) <= GPS_D_REL_TOL * model.d
                and abs(b_hat - model.reference_belief) <= GPS_B_TOL)

    def _fit_op(self, m: int, exact: bool) -> Op:
        scenario = self.scenarios[m]
        model = scenario.model
        if exact:
            def run():
                return estimation.gps_fit(model.channel_matrix())
        else:
            def run():
                return estimation.gps_fit(scenario.noisy)

        def check(out) -> bool:
            if exact:   # the in-process result that ``msie --gps`` must reproduce
                self._exact_fit[m] = out
            return self._within_bounds(model, *out)

        return Op(f"fit{m}", run, check, NUMPY_KERNEL, run)

    def _msie_op(self, m: int) -> Op:
        scenario = self.scenarios[m]

        def run():
            proc = subprocess.run([sys.executable, "-m", "semcal", "msie", "--gps", scenario.path,
                                   "--format", "json"], env=self.env, cwd=self.cwd,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout

        def check(result) -> bool:
            code, out = result
            if code != 0:
                return False
            if m not in self._exact_fit:
                self._exact_fit[m] = estimation.gps_fit(scenario.model.channel_matrix())
            delta_hat, d_hat, b_hat = self._exact_fit[m]
            return _same(json.loads(out)["outputs"], {
                "delta_e_hat": delta_hat, "d_hat": d_hat, "b_hat": b_hat,
                "b_reference": scenario.model.reference_belief})

        return Op(f"msie{m}", run, check, NUMPY_KERNEL)

    def cycle(self, i: int) -> list[Op]:
        ops = [self._fit_op(200, True), self._fit_op(200, False), self._msie_op(200)]
        if i == 0:
            ops += [self._fit_op(256, True), self._fit_op(256, False), self._msie_op(256)]
        return ops

    def probe(self) -> list[Op]:
        return [self._fit_op(200, True)]


WORKLOADS = {w.name: w for w in (CliBatch, Confirm2x2, BeliefWide, GpsFit)}
