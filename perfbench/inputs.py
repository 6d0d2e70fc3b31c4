"""Seeded inputs of the four benchmark workloads.

Everything here is derived from the workload seed alone, so the same seed
gives the same inputs.  The module imports only the standard library and
semcal: a fresh interpreter that imports it and builds one workload's inputs
is what ``setup_s`` times, so numpy is loaded here only where the gps inputs
need it, and a program that stops importing numpy eagerly shows in setup_s.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from semcal import Alphabet, Crisp, Distribution, GpsModel, SampleSet, Tabular

#: Distinct inputs per kind of CLI invocation; cycles reuse them in turn.
CLI_VARIANTS = 16
#: Record files for ``msie --samples``: a few thousand records, 16 labels, 3 conditions.
CLI_RECORD_FILES = 4
CLI_RECORDS = 3000
CLI_RECORD_LABELS = 16
CLI_CONDITIONS = 3
INFO_LABELS = 8

#: Distinct 2x2 tables cycled through by confirm_2x2.
TABLE_POOL = 4096

#: Alphabet sizes of belief_wide, and problems per size and base kind.
WIDE_SIZES = (64, 256)
WIDE_PROBLEMS = 4
WIDE_RECORDS = 4096
WIDE_CONDITIONS = 4

#: Grid sizes of gps_fit and the per-row sample count of the noisy channels.
GPS_SIZES = (200, 256)
GPS_ROW_SAMPLES = 20000


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _simplex(rng: random.Random, n: int, floor: float = 0.05) -> list[float]:
    weights = [floor + rng.random() for _ in range(n)]
    total = math.fsum(weights)
    return [w / total for w in weights]


def _belief_truth(t: float, b: float) -> float:
    """Truth value of the belief-adjusted hypothesis, as the paper defines it."""
    return (1.0 - b) + b * t if b >= 0 else 1.0 + b * t


def _write_csv(path: Path, rows) -> None:
    path.write_text("".join(f"{a},{b}\n" for a, b in rows))


def _counts(rng: random.Random) -> tuple[int, int, int, int]:
    return tuple(rng.randint(2, 600) for _ in range(4))


def _table_rates(counts) -> tuple[float, float, float, float]:
    """(P0, P1, Q0, Q1) of s1 -> s2 from counts (n11, n10, n01, n00)."""
    n11, n10, n01, n00 = counts
    n = n11 + n10 + n01 + n00
    row = n11 + n10
    return (n10 + n00) / n, (n11 + n01) / n, n10 / row, n11 / row


# -- cli_batch -------------------------------------------------------------

@dataclass(frozen=True)
class InfoCase:
    labels: tuple[str, ...]
    prior: tuple[float, ...]
    sampling: tuple[float, ...]
    members: tuple[str, ...] | None   # crisp base of a belief spec, or None
    belief: float | None
    table: tuple[float, ...] | None   # tabular spec, or None
    prior_path: str
    sampling_path: str

    @property
    def tf_spec(self) -> str:
        if self.table is not None:
            return "table:" + ",".join(repr(v) for v in self.table)
        return f"belief:{self.belief!r}:crisp:" + "|".join(self.members)


@dataclass(frozen=True)
class RecordsCase:
    path: str
    labels: tuple[str, ...]        # in order of first appearance, as the CLI reads them
    records: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class CliInputs:
    tables: tuple[tuple[int, int, int, int], ...]
    rates: tuple[tuple[float, float, float, float], ...]
    tests: tuple[tuple[float, float, float], ...]   # sensitivity, specificity, prior_positive
    infos: tuple[InfoCase, ...]
    records: tuple[RecordsCase, ...]
    empty_rows: tuple[str, ...]    # --table values with n11 = n10 = 0: exit 2
    malformed: tuple[str, ...]     # --table values that do not parse: exit 1


def _records(rng: random.Random, labels, conditions, count, spread) -> list[tuple[str, str]]:
    """Tagged records in which every label appears, each condition peaked elsewhere."""
    n = len(labels)
    cumulative = {}
    for j, cond in enumerate(conditions):
        center = (j + 0.5) * n / len(conditions)
        cumulative[cond] = list(accumulate(
            0.2 + math.exp(-(min(abs(i - center), n - abs(i - center)) ** 2) / (2.0 * spread**2))
            for i in range(n)))
    order = list(labels)
    rng.shuffle(order)
    records = [(rng.choice(conditions), label) for label in order]
    for _ in range(count - n):
        cond = rng.choice(conditions)
        records.append((cond, rng.choices(labels, cum_weights=cumulative[cond])[0]))
    return records


def cli_inputs(seed: int, workdir: Path) -> CliInputs:
    rng = _rng(seed, "cli_batch")
    tables, rates, tests, infos, empty_rows, malformed = [], [], [], [], [], []
    labels = tuple(f"e{i}" for i in range(INFO_LABELS))
    for v in range(CLI_VARIANTS):
        tables.append(_counts(rng))
        p0, q0 = rng.uniform(0.05, 0.95), rng.uniform(0.02, 0.98)
        rates.append((p0, 1.0 - p0, q0, 1.0 - q0))
        tests.append((rng.uniform(0.3, 0.999), rng.uniform(0.3, 0.999), rng.uniform(0.001, 0.3)))
        prior, sampling = _simplex(rng, INFO_LABELS), _simplex(rng, INFO_LABELS)
        if v % 2:
            members, belief = None, None
            table = tuple(rng.uniform(0.05, 1.0) for _ in labels)
        else:
            members = tuple(sorted(rng.sample(labels, rng.randint(1, INFO_LABELS - 1))))
            belief, table = rng.uniform(0.1, 0.95), None
        prior_path, sampling_path = workdir / f"prior{v}.csv", workdir / f"sampling{v}.csv"
        _write_csv(prior_path, zip(labels, map(repr, prior)))
        _write_csv(sampling_path, zip(labels, map(repr, sampling)))
        infos.append(InfoCase(labels, tuple(prior), tuple(sampling), members, belief, table,
                              str(prior_path), str(sampling_path)))
        empty_rows.append(f"0,0,{rng.randint(1, 600)},{rng.randint(1, 600)}")
        a, b, c = (rng.randint(1, 600) for _ in range(3))
        malformed.append(rng.choice((f"{a},{b}x,{c},{a}", f"{a},{b},{c}", f"{a},,{b},{c}")))
    records = []
    rec_labels = [f"x{i:02d}" for i in range(CLI_RECORD_LABELS)]
    conditions = [f"c{j}" for j in range(CLI_CONDITIONS)]
    for f in range(CLI_RECORD_FILES):
        rows = _records(rng, rec_labels, conditions, CLI_RECORDS, spread=2.5)
        path = workdir / f"records{f}.csv"
        _write_csv(path, rows)
        first_seen = tuple(dict.fromkeys(label for _, label in rows))
        records.append(RecordsCase(str(path), first_seen, tuple(rows)))
    return CliInputs(tuple(tables), tuple(rates), tuple(tests), tuple(infos),
                     tuple(records), tuple(empty_rows), tuple(malformed))


# -- confirm_2x2 -----------------------------------------------------------

@dataclass(frozen=True)
class TableCase:
    counts: tuple[int, int, int, int]
    rates: tuple[float, float, float, float]   # P0, P1, Q0, Q1
    test: tuple[float, float, float]           # sensitivity, specificity, prior_positive
    denial: bool                               # confirm the negation in the rates/belief calls


def confirm_inputs(seed: int) -> tuple[TableCase, ...]:
    rng = _rng(seed, "confirm_2x2")
    cases = []
    for k in range(TABLE_POOL):
        counts = _counts(rng)
        n11, n10, n01, n00 = counts
        test = (n11 / (n11 + n01), n00 / (n00 + n10), (n11 + n01) / sum(counts))
        cases.append(TableCase(counts, _table_rates(counts), test, denial=bool(k % 2)))
    return tuple(cases)


# -- belief_wide -----------------------------------------------------------

@dataclass(frozen=True)
class BeliefProblem:
    kind: str            # "crisp" or "tabular"
    truth: tuple[float, ...]
    belief: float        # the belief the sampling distribution was generated with
    base: object         # the semcal truth function
    prior: Distribution
    sampling: Distribution


@dataclass(frozen=True)
class WideInputs:
    problems: dict       # (n, kind) -> tuple[BeliefProblem, ...]
    samples: SampleSet
    records: tuple[tuple[str, str], ...]


def _belief_problem(rng: random.Random, alphabet: Alphabet, kind: str) -> BeliefProblem:
    n = len(alphabet)
    prior = _simplex(rng, n)
    if kind == "crisp":
        members = rng.sample(alphabet.labels, rng.randint(n // 4, 3 * n // 4))
        base = Crisp(alphabet, members)
        chosen = set(members)
        truth = tuple(1.0 if label in chosen else 0.0 for label in alphabet)
    else:
        truth = tuple(rng.uniform(0.0, 1.0) for _ in range(n))
        base = Tabular(alphabet, truth)
    belief = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9)
    weights = [p * _belief_truth(t, belief) for p, t in zip(prior, truth)]
    total = math.fsum(weights)
    return BeliefProblem(kind, truth, belief, base, Distribution(alphabet, prior),
                         Distribution(alphabet, [w / total for w in weights]))


def wide_inputs(seed: int) -> WideInputs:
    rng = _rng(seed, "belief_wide")
    problems = {}
    for n in WIDE_SIZES:
        alphabet = Alphabet([f"x{i}" for i in range(n)])
        for kind in ("crisp", "tabular"):
            problems[n, kind] = tuple(_belief_problem(rng, alphabet, kind)
                                      for _ in range(WIDE_PROBLEMS))
    n = max(WIDE_SIZES)
    labels = [f"x{i}" for i in range(n)]
    conditions = [f"h{j}" for j in range(WIDE_CONDITIONS)]
    records = tuple(_records(rng, labels, conditions, WIDE_RECORDS, spread=n / 16))
    return WideInputs(problems, SampleSet(Alphabet(labels), records), records)


# -- gps_fit ---------------------------------------------------------------

@dataclass(frozen=True)
class GpsScenario:
    model: GpsModel
    noisy: object        # numpy array: multinomial sample of the exact channel, row-normalized
    path: str            # scenario JSON for ``semcal msie --gps``


def gps_inputs(seed: int, workdir: Path) -> tuple[GpsScenario, ...]:
    # numpy only here: the noisy channels are drawn with a seeded numpy generator.
    import numpy as np

    rng = _rng(seed, "gps_fit")
    scenarios = []
    for m in GPS_SIZES:
        spec = {"grid_size": m, "delta_e": rng.uniform(-6.0, 6.0),
                "d": rng.uniform(5.0, 8.0), "c": rng.uniform(0.0005, 0.0015)}
        model = GpsModel(**spec)
        generator = np.random.default_rng([seed, m])
        counts = generator.multinomial(GPS_ROW_SAMPLES, model.channel_matrix())
        noisy = counts / counts.sum(axis=1, keepdims=True)
        path = workdir / f"scenario{m}.json"
        path.write_text(json.dumps(spec))
        scenarios.append(GpsScenario(model, noisy, str(path)))
    return tuple(scenarios)


def build(workload: str, seed: int, workdir: Path):
    """The seeded inputs of one workload."""
    if workload == "cli_batch":
        return cli_inputs(seed, workdir)
    if workload == "confirm_2x2":
        return confirm_inputs(seed)
    if workload == "belief_wide":
        return wide_inputs(seed)
    if workload == "gps_fit":
        return gps_inputs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
