"""Alternating parent/change pairs of benchmark runs, kept as a BENCH_<n>.json record.

Usage (the trees are two checkouts of semcal, each with its own perfbench/):

    python3 tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --workload confirm_2x2 --pairs 10 --seed 28 --seconds 20 \\
        [--claim op_p50_ms [--holdout-seed 41 --holdout-pairs 5]] [--trace] \\
        [--out BENCH_27.json]

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T`` in
the tree itself, so each tree measures its own src/ with its own harness,
with ``PYTHONDONTWRITEBYTECODE=1`` so that no run leaves bytecode for the
next.  Each workload's ``compiled_from_source`` records, per tree, that no
``__pycache__`` lay under its src/ before the runs: bytecode left there by
an earlier run or test would skip the compile that a fresh checkout pays.
Pairs alternate which tree runs first: the parent on odd pairs, the
change on even ones.  Per end-to-end metric of the change tree's
BENCHMARK.json the record keeps each tree's median and inclusive quartiles
over the pairs, the change's wins (pairs where it reads better; ties count
for neither side) and the raw runs.  ``--claim`` names the metric the change
claims to improve: the claim is met when the change wins at least 9 pairs in
10 and the medians differ, in its favour, by more than the parent's
interquartile range.  ``--holdout-seed S --holdout-pairs N`` then runs N more
pairs at seed S, one not used while the change was written, and keeps them
with their own claim verdict under the workload's ``holdout``.  ``--trace``
adds one ``--trace 1`` run per tree, parent first, for the per-layer
metrics.

``--out`` merges the workload into that JSON file, so that one record can
hold several workloads, one invocation each.  The script exits 1 when any
run was not correct or had failed operations (the record is still written),
and 2 when a run produced no result or ``--claim`` names no end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Seconds a run may take beyond ten times its --seconds (set-up probes, traced layers).
RUN_TIMEOUT_S = 600
#: Share of pairs a claimed metric must win.
CLAIM_WIN_SHARE = 0.9
CLAIM_RULE = ("at least 9 of 10 pairs won, and the medians differ by more than the "
              "parent's interquartile range")


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) by the inclusive method: the data's own minimum and maximum are q0 and q4."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(parent, change, better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither side."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def spread(values) -> dict:
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(parent, change, unit: str, better: str, bound: float) -> dict:
    """One metric's entry: both trees' medians and quartiles, the wins and the raw runs."""
    before, after = spread(parent), spread(change)
    return {
        "unit": unit, "better": better, "bound": bound,
        "parent": before, "change": after,
        "change_vs_parent_median_pct": 100.0 * (after["median"] / before["median"] - 1.0),
        "parent_iqr_pct_of_median": 100.0 * (before["q3"] - before["q1"]) / before["median"],
        "change_iqr_pct_of_median": 100.0 * (after["q3"] - after["q1"]) / after["median"],
        "change_wins": f"{wins(parent, change, better)}/{len(parent)}",
        "parent_runs": list(parent), "change_runs": list(change),
    }


def claim(workload: str, metric: str, entry: dict) -> dict:
    """Whether ``entry`` (a ``summarize`` result) meets the claim rule."""
    before, after = entry["parent"], entry["change"]
    gain = before["median"] - after["median"]
    if entry["better"] != "lower":
        gain = -gain
    won, pairs = map(int, entry["change_wins"].split("/"))
    iqr = before["q3"] - before["q1"]
    return {
        "workload": workload, "metric": metric, "direction": entry["better"],
        "parent_median": before["median"], "change_median": after["median"],
        "change_vs_parent_median_pct": entry["change_vs_parent_median_pct"],
        "parent_iqr": iqr, "median_difference": gain, "change_wins": entry["change_wins"],
        "met": won >= CLAIM_WIN_SHARE * pairs and gain > iqr, "rule": CLAIM_RULE,
    }


def no_result(why: str):
    print(f"bench_pairs: {why}", file=sys.stderr)
    raise SystemExit(2)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one run of the tree's own harness, with its environment."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S + 10 * seconds)
    except subprocess.TimeoutExpired:
        no_result(f"{tree} ({workload}) did not finish")
    lines = proc.stdout.splitlines()
    try:
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if not isinstance(result, dict) or not {"correct", "failed", "metrics"} <= result.keys():
        sys.stderr.write(proc.stderr[-2000:])
        no_result(f"no result from {tree} ({workload}, exit status {proc.returncode})")
    result["environment"] = details.get("environment", {})
    return result


def runs_are_clean(runs) -> bool:
    return all(r["correct"] is True and r["failed"] == 0 for r in runs)


def pair_runs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float, run=run_once) -> tuple[list, list]:
    """``pairs`` untraced runs per tree; the parent goes first on odd pairs."""
    parent_runs, change_runs = [], []
    for number in range(1, pairs + 1):
        order = [(parent, parent_runs), (change, change_runs)]
        for tree, runs in order if number % 2 else order[::-1]:
            runs.append(run(tree, workload, seed, seconds, 0))
            last = runs[-1]
            print(f"pair {number} {tree.name or tree}: correct={last['correct']} "
                  f"failed={last['failed']}", file=sys.stderr)
    return parent_runs, change_runs


def compiled_from_source(tree: Path) -> bool:
    """Whether no ``__pycache__`` lies under the tree's src/, so that its runs compile semcal."""
    return not any((tree / "src").rglob("__pycache__"))


def workload_record(parent_runs, change_runs, spec: dict, seed: int) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        metrics[name] = summarize([r["metrics"][name]["value"] for r in parent_runs],
                                  [r["metrics"][name]["value"] for r in change_runs],
                                  m["unit"], m["better"], m["bound"])
    return {
        "seed": seed, "pairs": len(parent_runs),
        "first_in_pair": "parent on odd pairs, change on even pairs",
        "parent_failed_ops": sum(r["failed"] for r in parent_runs),
        "parent_attempted_ops": sum(r["attempted"] for r in parent_runs),
        "change_failed_ops": sum(r["failed"] for r in change_runs),
        "change_attempted_ops": sum(r["attempted"] for r in change_runs),
        "all_correct": runs_are_clean(parent_runs + change_runs),
        "metrics": metrics,
    }


def trace_record(parent_run: dict, change_run: dict) -> dict:
    """Both traced runs side by side; a metric only one tree reports reads None in the other."""
    before, after = parent_run["metrics"], change_run["metrics"]
    metrics = {}
    for name in {**before, **after}:
        value = {tree: run[name]["value"] if name in run else None
                 for tree, run in (("parent", before), ("change", after))}
        metrics[name] = {**value, "unit": (after.get(name) or before[name])["unit"]}
    return {
        "parent_correct": parent_run["correct"], "change_correct": change_run["correct"],
        "parent_failed_ops": parent_run["failed"], "change_failed_ops": change_run["failed"],
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--holdout-seed", type=int,
                        help="seed of a held-out check of the claim, after the claim pairs")
    parser.add_argument("--holdout-pairs", type=int, help="pairs of the held-out check")
    parser.add_argument("--trace", action="store_true", help="add one --trace 1 run per tree")
    parser.add_argument("--out", type=Path, help="JSON record to create or merge into")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    if (args.holdout_seed is None) != (args.holdout_pairs is None):
        parser.error("--holdout-seed and --holdout-pairs go together")
    if args.holdout_seed is not None and not args.claim:
        parser.error("a held-out check needs --claim")
    if args.holdout_pairs is not None and args.holdout_pairs < 1:
        parser.error("--holdout-pairs must be at least 1")
    return args


def main(argv=None, run=run_once) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.claim and args.claim not in {m["name"] for m in spec["end_to_end"]}:
        print(f"bench_pairs: {args.claim!r} is not an end-to-end metric", file=sys.stderr)
        return 2
    compiled = {"parent": compiled_from_source(args.parent),
                "change": compiled_from_source(args.change)}
    parent_runs, change_runs = pair_runs(args.parent, args.change, args.workload, args.pairs,
                                         args.seed, args.seconds, run)
    workload = workload_record(parent_runs, change_runs, spec, args.seed)
    workload["compiled_from_source"] = compiled
    clean = workload["all_correct"]
    if args.holdout_seed is not None:
        held = workload_record(*pair_runs(args.parent, args.change, args.workload,
                                          args.holdout_pairs, args.holdout_seed, args.seconds,
                                          run), spec, args.holdout_seed)
        held["claim"] = claim(args.workload, args.claim, held["metrics"][args.claim])
        workload["holdout"] = held
        clean = clean and held["all_correct"]

    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    env = change_runs[0]["environment"]
    record.update({
        "machine": {"cpu_model": env.get("cpu_model"), "vcpus": env.get("nproc")},
        "python": env.get("python"), "numpy": env.get("numpy"),
        "method": ("python3 tools/bench_pairs.py: python3 perfbench/run.py --workload W "
                   "--seed S --seconds T --trace 0 in each tree (its own src/ and perfbench/), "
                   "PYTHONDONTWRITEBYTECODE=1, pairs alternating which tree runs first (parent "
                   "first on odd pairs); median and inclusive quartiles over the pairs; a win is "
                   "a pair where the change reads better, ties count for neither"),
    })
    record.setdefault("claim", None)
    record.setdefault("workloads", {})[args.workload] = workload
    if args.claim:
        record["claim"] = claim(args.workload, args.claim, workload["metrics"][args.claim])
    if args.trace:
        traced = [run(tree, args.workload, args.seed, args.seconds, 1)
                  for tree in (args.parent, args.change)]
        clean = clean and runs_are_clean(traced)
        layers = record.setdefault("per_layer_trace1", {
            "note": "one --trace 1 run per tree and workload, parent first", "workloads": {}})
        layers["workloads"][args.workload] = trace_record(*traced)

    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    verdicts = {}
    if record["claim"] and record["claim"]["workload"] == args.workload:
        verdicts["claim"] = record["claim"]
    if "holdout" in workload:
        verdicts[f"held-out seed {args.holdout_seed}"] = workload["holdout"]["claim"]
    for label, c in verdicts.items():
        print(f"{label} {c['metric']}: {c['parent_median']:.6g} -> {c['change_median']:.6g} "
              f"({c['change_vs_parent_median_pct']:+.1f}%, wins {c['change_wins']}, "
              f"met {c['met']})", file=sys.stderr)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
