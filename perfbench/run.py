"""semcal benchmark: one seeded workload, measured for a fixed time.

Usage (from the root of a semcal checkout):

    python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Every operation's output is checked; the
last line of standard output is the JSON result, and the line before it a
JSON record of details (environment, per-kind latencies, sample counts).
Details and trace spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from itertools import count
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: Fresh-interpreter set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 7
#: Interpreter start-up and import-time probes per traced run.
IMPORT_REPEATS = 5
#: The tail is the highest percentile with ten samples beyond it, or the median
#: when there are too few samples for that.
TAIL_BEYOND = 10
#: Calibrations on each side of an operation whose median scales its latency.
CALIBRATION_HALF_WINDOW = 4


class Runner:
    """Executes operations, keeping latencies per kind and counting failures.

    With ``calibrated``, each operation is preceded by its calibration.  After
    ``scale()``, ``scaled`` holds each latency in reference seconds: its time
    over the median of the calibrations around it, times the calibration's
    nominal time.
    """

    def __init__(self, calibrated: bool = False):
        self.calibrated = calibrated
        self.samples = defaultdict(list)
        self.scaled = defaultdict(list)
        self.calibrations = defaultdict(list)
        self._paired = defaultdict(list)   # kind -> (latency, calibration, its index)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.kind}: {why}")

    def execute(self, op, fn, around=contextlib.nullcontext) -> None:
        """Time ``fn()`` inside the context ``around()``, then check its output."""
        self.attempted += 1
        try:
            if self.calibrated:
                start = perf_counter()
                op.calibration.run()
                calibration = perf_counter() - start
            with around():
                start = perf_counter()
                out = fn()
                elapsed = perf_counter() - start
            ok = op.check(out)
        except Exception as exc:  # a raising operation or check counts as failed
            self._fail(op, repr(exc))
            return
        self.samples[op.kind].append(elapsed)
        if self.calibrated:
            times = self.calibrations[op.calibration.name]
            times.append(calibration)
            self._paired[op.kind].append((elapsed, op.calibration, len(times) - 1))
        if not ok:
            self._fail(op, "output disagrees with the reference")

    def scale(self) -> None:
        """Fill ``scaled``.  A centred median of calibrations follows the machine's
        speed through an operation and is steadier than the one sample before it."""
        around = {}
        for name, times in self.calibrations.items():
            around[name] = [statistics.median(times[max(0, i - CALIBRATION_HALF_WINDOW):
                                                    i + CALIBRATION_HALF_WINDOW + 1])
                            for i in range(len(times))]
        for kind, pairs in self._paired.items():
            self.scaled[kind] = [elapsed / around[cal.name][i] * cal.nominal_s
                                 for elapsed, cal, i in pairs]

    def series(self, kind: str, scaled: bool = False) -> list[float]:
        """Latencies of ``kind`` and its dotted sub-kinds; "" gives every kind."""
        return [x for k, xs in (self.scaled if scaled else self.samples).items()
                if not kind or k == kind or k.startswith(kind + ".") for x in xs]


def latency_stats(values: list[float]) -> dict:
    if not values:
        raise RuntimeError("no successful operations of a reported kind")
    xs = sorted(values)
    n = len(xs)
    p50 = statistics.median(xs)
    rank = n - TAIL_BEYOND
    if rank <= n / 2:
        tail, rank = p50, math.ceil(n / 2)
    else:
        tail = xs[rank - 1]
    return {"n": n, "p50_ms": p50 * 1e3, "tail_ms": tail * 1e3,
            "tail_percentile": 100 * rank / n, "beyond_tail": n - rank,
            "per_s": n / math.fsum(xs)}


def scheduled(workload):
    for i in count():
        yield from workload.cycle(i)


# -- environment -------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def load_snapshot() -> dict:
    """Load average and cumulative CPU steal, read-only from /proc."""
    snap = {}
    loadavg = _read("/proc/loadavg")
    if loadavg:
        snap["loadavg"] = [float(x) for x in loadavg.split()[:3]]
    stat = _read("/proc/stat")
    if stat and stat.startswith("cpu "):
        ticks = [int(x) for x in stat.splitlines()[0].split()[1:]]
        snap["cpu_ticks"], snap["steal_ticks"] = sum(ticks[:8]), ticks[7]
    return snap


def steal_pct(before: dict, after: dict) -> float | None:
    if "cpu_ticks" not in before or "cpu_ticks" not in after:
        return None
    total = after["cpu_ticks"] - before["cpu_ticks"]
    return 100.0 * (after["steal_ticks"] - before["steal_ticks"]) / total if total else 0.0


def environment() -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size:
            kind = (kind or "Unified").strip()
            suffix = "" if kind == "Unified" else kind[0].lower()
            caches[f"L{level.strip()}{suffix}"] = size.strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_model": model, "nproc": len(os.sched_getaffinity(0)), "caches_per_core": caches}


# -- set-up ------------------------------------------------------------------

def setup_seconds(workload: str, seed: int, spawn, spawn_env: dict,
                  timeout: float) -> tuple[list[float], list[float]]:
    """Launch-to-ready times of fresh interpreters that import semcal and build
    the inputs: raw, and in reference seconds against the spawn calibration."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        spawn.run()
        calibration = perf_counter() - start
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            start = perf_counter()
            with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                                   str(seed), workdir], env=spawn_env, stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                times.append(perf_counter() - start)
                proc.wait(timeout=timeout)
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        scaled.append(times[-1] / calibration * spawn.nominal_s)
    return times, scaled


# -- runs ----------------------------------------------------------------------

def untraced_run(workload, seconds: float) -> tuple[Runner, dict]:
    runner = Runner(calibrated=True)
    deadline = perf_counter() + seconds
    for op in scheduled(workload):
        if perf_counter() >= deadline:
            break
        runner.execute(op, op.run)
    runner.scale()
    main, aux = (latency_stats(runner.series(k, scaled=True))
                 for k in (workload.main_kind, workload.aux_kind))
    metrics = {"op_p50_ms": main["p50_ms"], "ops_per_s": main["per_s"],
               "aux_p50_ms": aux["p50_ms"]}
    return runner, metrics


def traced_run(workload, others, seconds: float, env: dict, spans_path: Path):
    """Per-layer metrics.  Each operation runs untraced and then traced, so that
    both see the same machine state; then come traced samples of the other
    workloads' layers, the counting pass and the import-time probes."""
    import tracing

    plain, traced = Runner(), Runner()
    tracer = tracing.Tracer()
    deadline = perf_counter() + seconds
    for op in scheduled(workload):
        if perf_counter() >= deadline:
            break
        if op.inproc is not None:
            plain.execute(op, op.inproc)
            with tracer.installed():
                traced.execute(op, op.inproc, tracer.recording)
    overhead_pct = 100.0 * (math.fsum(traced.series("")) / math.fsum(plain.series("")) - 1.0)
    with tracer.installed():
        for other in others:
            for op in other.probe():
                if op.inproc is not None:
                    traced.execute(op, op.inproc, tracer.recording)

    per_n, solves = defaultdict(Counter), Counter()
    for source in (workload, *others):
        for n, op in source.counting_ops():
            traced.execute(op, op.inproc, lambda: tracing.counting(per_n[n]))
            solves[n] += 1

    spans = [s for s in tracer.spans if s is not None]
    tracing.write_spans(spans_path, spans)
    summary = tracing.summarize(spans)
    metrics = layer_metrics(summary, per_n, solves)
    metrics.update(tracing.import_times(env, IMPORT_REPEATS))
    metrics["trace.overhead_pct"] = overhead_pct
    return plain, traced, metrics


def layer_metrics(summary: dict, per_n: dict, solves: Counter) -> dict:
    def median(name, tag="", stat="inclusive", scale=1e6):
        entry = summary.get((name, tag))
        if not entry:
            raise RuntimeError(f"no trace spans for {name} {tag}")
        return statistics.median(entry[stat]) * scale

    def children(name, tag, child):
        return statistics.mean(c[child] for c in summary[name, tag]["children"])

    m = {f"cli.{f}_us": median(f"cli.{f}") for f in
         ("build_parser", "cmd_doc", "cmd_info", "cmd_msie", "cmd_reproduce", "main")}
    m["cli.main.self_us"] = median("cli.main", stat="self")
    m["reproduce.reproduce_rows_us"] = median("reproduce.reproduce_rows")
    for f in ("doc_h1_from_table", "doc_h2_from_table", "raven_increments", "doc_from_rates",
              "doc_from_test"):
        m[f"confirmation.{f}_us"] = median(f"confirmation.{f}")
    for n in (2, 64, 256):
        tag = f"n{n}"
        m[f"estimation.optimize_belief_us.{tag}"] = median("estimation.optimize_belief", tag)
        m[f"estimation.optimize_belief.objective_calls.{tag}"] = children(
            "estimation.optimize_belief", tag, "semantic_info.average_semantic_info")
        m[f"semantic_info.average_semantic_info_us.{tag}"] = median(
            "semantic_info.average_semantic_info", tag)
        m[f"truth_functions.value_calls.{tag}"] = (
            per_n[n]["truth_functions.value_calls"] / solves[n])
        if n > 2:   # 2-letter solves use crisp bases, which never look a label up
            m[f"distributions.Alphabet.index_calls.{tag}"] = (
                per_n[n]["distributions.Alphabet.index_calls"] / solves[n])
    m["estimation.channel_from_samples_ms"] = median("estimation.channel_from_samples", scale=1e3)
    m["estimation.empirical_conditional_calls"] = children(
        "estimation.channel_from_samples", "", "estimation.empirical_conditional")
    m["estimation.optimal_truth_function_us"] = median("estimation.optimal_truth_function")
    m["semantic_info.semantic_mutual_info_ms"] = median("semantic_info.semantic_mutual_info",
                                                        scale=1e3)
    m["estimation.gps_objective.calls.m200"] = children("estimation.gps_fit", "m200",
                                                        "estimation.gps_objective")
    m["estimation.gps_objective_us.m200"] = median("estimation.gps_objective", "m200")
    m["estimation.gps_fit.self_ms.m200"] = median("estimation.gps_fit", "m200", "self", 1e3)
    m["estimation_types.GpsModel.channel_matrix_ms.m200"] = median(
        "estimation_types.GpsModel.channel_matrix", "m200", scale=1e3)
    return m


# -- main ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cli_batch, confirm_2x2, belief_wide or gps_fit")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semcal" / "__init__.py").is_file():
        print(f"perfbench: no semcal sources at {SRC}; run from the root of a semcal checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One BLAS thread here and, through the inherited environment, in every child.
    os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    import semcal
    import workloads

    if SRC.resolve() not in Path(semcal.__file__).resolve().parents:
        print(f"perfbench: imported semcal from {semcal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = workloads.child_env(SRC)
    before = load_snapshot()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "environment": environment()}
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        def build(name):
            (workdir / name).mkdir()
            return workloads.WORKLOADS[name](args.seed, workdir / name, SRC)

        workload = build(args.workload)
        if args.trace:
            others = [build(name) for name in workloads.WORKLOADS if name != args.workload]
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            plain, runner, metrics = traced_run(workload, others, args.seconds, env, spans_path)
            details["spans"] = str(spans_path.relative_to(ROOT))
            attempted = plain.attempted + runner.attempted
            failed = plain.failed + runner.failed
            failures = plain.failures + runner.failures
            expected = spec["per_layer"]
        else:
            setup, setup_scaled = setup_seconds(args.workload, args.seed,
                                                workloads.spawn_calibration(env), env,
                                                workloads.CHILD_TIMEOUT_S)
            runner, metrics = untraced_run(workload, args.seconds)
            metrics["setup_s"] = statistics.median(setup_scaled)
            details["setup_s"] = {"raw": setup, "reference": setup_scaled}
            details["kinds"] = {kind: {"raw": latency_stats(runner.series(kind)),
                                       "reference": latency_stats(runner.series(kind, True))}
                                for kind in sorted(runner.samples)}
            details["named"] = {name: latency_stats(xs)[stat] if (xs := runner.series(kind, True))
                                else None for name, (kind, stat) in workload.named.items()}
            attempted, failed, failures = runner.attempted, runner.failed, runner.failures
            expected = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = load_snapshot()
    details.update({"failed_ops_ratio": failed / attempted, "failures": failures,
                    "loadavg_before": before.get("loadavg"), "loadavg_after": after.get("loadavg"),
                    "steal_pct": steal_pct(before, after)})

    units = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "differ from BENCHMARK.json")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    details["result"] = result
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
