"""The statistics and the pair protocol of tools/bench_pairs.py, on fixed inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("values, expected", [
    ([7.0], (7.0, 7.0)),
    ([1.0, 2.0], (1.25, 1.75)),
    ([1.0, 2.0, 3.0, 4.0], (1.75, 3.25)),
    ([5.0, 1.0, 4.0, 2.0, 3.0], (2.0, 4.0)),
    ([3.0, 3.0, 3.0], (3.0, 3.0)),
])
def test_inclusive_quartiles(values, expected):
    assert bench_pairs.quartiles(values) == expected


def test_median_of_an_even_count():
    entry = bench_pairs.summarize([4.0, 1.0, 3.0, 2.0], [1.0, 1.0, 1.0, 1.0], "ms", "lower", 0.2)
    assert entry["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert entry["change_vs_parent_median_pct"] == -60.0
    assert entry["parent_iqr_pct_of_median"] == 60.0


@pytest.mark.parametrize("better, expected", [("lower", 1), ("higher", 1)])
def test_ties_count_for_neither_side(better, expected):
    assert bench_pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], better) == expected
    assert bench_pairs.wins([2.0, 2.0], [2.0, 2.0], better) == 0


def _claim(parent, change, better="lower"):
    return bench_pairs.claim("w", "m", bench_pairs.summarize(parent, change, "ms", better, 0.2))


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    faster = [p - 0.1 for p in parent]
    met = _claim(parent, faster)
    assert met["met"] and met["change_wins"] == "10/10"
    assert met["median_difference"] == pytest.approx(0.1)
    assert met["parent_iqr"] == pytest.approx(0.045)
    # eight wins: not met, however large the gap
    assert not _claim(parent, faster[:8] + [2.0, 2.0])["met"]
    # nine wins, one tie: met
    assert _claim(parent, faster[:9] + parent[9:])["met"]
    # every pair won, but by less than the parent's spread
    assert not _claim(parent, [p - 0.01 for p in parent])["met"]
    # a higher-is-better metric gains by rising
    higher = _claim(parent, [p + 0.1 for p in parent], better="higher")
    assert higher["met"] and higher["median_difference"] == pytest.approx(0.1)
    assert not _claim(parent, faster, better="higher")["met"]


def test_reproduces_a_hand_built_record():
    # BENCH_26.json's end-to-end metrics (its two hand-added raw metrics carry no bound)
    record = json.loads((ROOT / "BENCH_26.json").read_text())
    for workload in record["workloads"].values():
        for entry in filter(lambda e: "bound" in e, workload["metrics"].values()):
            again = bench_pairs.summarize(entry["parent_runs"], entry["change_runs"],
                                          entry["unit"], entry["better"], entry["bound"])
            for key in ("parent", "change"):
                assert again[key] == pytest.approx(entry[key], rel=1e-12)
            assert again["change_wins"] == entry["change_wins"]
    assert bench_pairs.claim("gps_fit", "op_p50_ms",
                             record["workloads"]["gps_fit"]["metrics"]["op_p50_ms"]) == \
        pytest.approx(record["claim"])


class FakeRuns:
    """Stands in for run_once: a fixed op_p50_ms per tree, and a log of the call order and seeds."""

    def __init__(self, failed_at=None, spans=None):
        self.calls = []
        self.seeds = []
        self.failed_at = failed_at
        self.spans = spans or {}

    def __call__(self, tree, workload, seed, seconds, trace):
        self.calls.append((tree.name, trace))
        self.seeds.append(seed)
        failed = int(len(self.calls) == self.failed_at)
        value = 2.0 if tree.name == "parent" else 1.0
        names = (["op_p50_ms", "setup_s", "ops_per_s", "aux_p50_ms"] if not trace
                 else self.spans.get(tree.name, ["confirmation.doc_from_test_us"]))
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {n: {"value": value + len(self.calls) / 100, "unit": "ms"}
                            for n in names},
                "environment": {"python": "3.x", "numpy": "2.x", "cpu_model": "cpu", "nproc": 2}}


@pytest.fixture
def trees(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return tmp_path / "parent", tmp_path / "change"


def _argv(trees, out, *extra):
    parent, change = trees
    return ["--parent", str(parent), "--change", str(change), "--workload", "confirm_2x2",
            "--pairs", "3", "--seed", "5", "--seconds", "1", "--out", str(out), *extra]


def test_pairs_alternate_and_merge_into_the_record(trees, tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"gps_fit": {"kept": True}}}))
    runs = FakeRuns()
    assert bench_pairs.main(_argv(trees, out, "--claim", "op_p50_ms", "--trace"), run=runs) == 0
    assert runs.calls == [("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                          ("parent", 0), ("change", 0), ("parent", 1), ("change", 1)]
    record = json.loads(out.read_text())
    assert record["workloads"]["gps_fit"] == {"kept": True}
    workload = record["workloads"]["confirm_2x2"]
    assert (workload["pairs"], workload["all_correct"], workload["change_failed_ops"]) == (3, True, 0)
    assert workload["metrics"]["op_p50_ms"]["change_wins"] == "3/3"
    assert workload["metrics"]["ops_per_s"]["change_wins"] == "0/3"
    assert record["claim"]["metric"] == "op_p50_ms" and record["claim"]["met"] is True
    traced = record["per_layer_trace1"]["workloads"]["confirm_2x2"]
    assert traced["metrics"]["confirmation.doc_from_test_us"] == {
        "parent": 2.07, "change": 1.08, "unit": "ms"}


def test_traced_metrics_of_only_one_tree_are_kept(trees, tmp_path):
    out = tmp_path / "BENCH.json"
    runs = FakeRuns(spans={"parent": ["old_us", "both_us"], "change": ["both_us", "new_us"]})
    assert bench_pairs.main(_argv(trees, out, "--trace"), run=runs) == 0
    traced = json.loads(out.read_text())["per_layer_trace1"]["workloads"]["confirm_2x2"]
    assert traced["metrics"] == {
        "old_us": {"parent": 2.07, "change": None, "unit": "ms"},
        "both_us": {"parent": 2.07, "change": 1.08, "unit": "ms"},
        "new_us": {"parent": None, "change": 1.08, "unit": "ms"}}


@pytest.mark.parametrize("failed_at", [3, 8], ids=["paired-run", "traced-run"])
def test_a_run_with_failed_ops_exits_non_zero(trees, tmp_path, failed_at):
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(_argv(trees, out, "--trace"), run=FakeRuns(failed_at)) == 1
    record = json.loads(out.read_text())
    assert record["workloads"]["confirm_2x2"]["all_correct"] is (failed_at == 8)


def test_compiled_from_source_is_read_per_tree_before_the_runs(trees, tmp_path):
    parent, change = trees
    (parent / "src" / "semcal").mkdir(parents=True)
    (change / "src" / "semcal" / "__pycache__").mkdir(parents=True)

    class Compiling(FakeRuns):
        # a run that leaves bytecode behind must not change what was recorded
        def __call__(self, tree, *args):
            (tree / "src" / "semcal" / "__pycache__").mkdir(exist_ok=True)
            return super().__call__(tree, *args)

    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(_argv(trees, out), run=Compiling()) == 0
    workload = json.loads(out.read_text())["workloads"]["confirm_2x2"]
    assert workload["compiled_from_source"] == {"parent": True, "change": False}
    assert bench_pairs.compiled_from_source(parent) is False
    assert bench_pairs.compiled_from_source(tmp_path / "no-such-tree") is True


def test_holdout_pairs_follow_the_claim_pairs_with_their_own_verdict(trees, tmp_path):
    out = tmp_path / "BENCH.json"
    runs = FakeRuns()
    argv = _argv(trees, out, "--claim", "op_p50_ms", "--holdout-seed", "41",
                 "--holdout-pairs", "2", "--trace")
    assert bench_pairs.main(argv, run=runs) == 0
    assert runs.calls == [("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                          ("parent", 0), ("change", 0),
                          ("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                          ("parent", 1), ("change", 1)]
    assert runs.seeds == [5] * 6 + [41] * 4 + [5] * 2
    record = json.loads(out.read_text())
    workload = record["workloads"]["confirm_2x2"]
    held = workload["holdout"]
    assert (held["seed"], held["pairs"], held["all_correct"]) == (41, 2, True)
    assert held["metrics"]["op_p50_ms"]["parent_runs"] == [2.07, 2.1]
    assert held["claim"]["metric"] == "op_p50_ms" and held["claim"]["change_wins"] == "2/2"
    assert held["claim"]["met"] is True
    # the claim itself reads the claim pairs alone
    assert record["claim"]["change_wins"] == "3/3" and workload["pairs"] == 3


def test_a_failed_holdout_run_exits_non_zero(trees, tmp_path):
    out = tmp_path / "BENCH.json"
    argv = _argv(trees, out, "--claim", "op_p50_ms", "--holdout-seed", "41",
                 "--holdout-pairs", "1")
    assert bench_pairs.main(argv, run=FakeRuns(failed_at=8)) == 1
    workload = json.loads(out.read_text())["workloads"]["confirm_2x2"]
    assert workload["all_correct"] is True and workload["holdout"]["all_correct"] is False


@pytest.mark.parametrize("extra", [
    ["--holdout-seed", "41", "--holdout-pairs", "5"],
    ["--claim", "op_p50_ms", "--holdout-seed", "41"],
    ["--claim", "op_p50_ms", "--holdout-pairs", "5"],
    ["--claim", "op_p50_ms", "--holdout-seed", "41", "--holdout-pairs", "0"],
], ids=["no-claim", "no-pairs", "no-seed", "zero-pairs"])
def test_incomplete_holdout_is_refused(trees, tmp_path, extra):
    runs = FakeRuns()
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(_argv(trees, tmp_path / "BENCH.json", *extra), run=runs)
    assert exit_info.value.code == 2 and runs.calls == []


def test_unknown_claim_metric_is_refused(trees, tmp_path):
    runs = FakeRuns()
    assert bench_pairs.main(_argv(trees, tmp_path / "BENCH.json", "--claim", "nope"),
                            run=runs) == 2
    assert runs.calls == []
