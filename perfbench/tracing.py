"""Spans and call counts at semcal's layer boundaries, recorded from outside.

The traced run swaps module attributes in the callers' namespaces (for
example ``semcal.estimation.gps_objective``, which ``gps_fit`` looks up on
every call, or ``semcal.cli.cmd_doc``, which ``main`` dispatches to) for
wrappers that record a span: name, size tag, start, end and parent.  Spans
stay in memory until the run ends.  Hot methods (``TruthFunction.value``,
``Alphabet.index``) are only counted, in a pass of their own, because timing
them would multiply the cost of a solve.
"""

from __future__ import annotations

import contextlib
import functools
import re
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

import semcal.cli
import semcal.reproduce
from semcal import confirmation, distributions, estimation, estimation_types, semantic_info
from semcal import truth_functions


class Span(NamedTuple):
    name: str
    tag: str          # problem size, e.g. "n256" or "m200"; "" where none applies
    start: float
    end: float
    parent: int       # index of the enclosing span, -1 at top level


def _size_n(*args, **kwargs) -> str:
    """Alphabet size of (truth function, prior, sampling) calls."""
    return f"n{len(args[1].alphabet)}"


def _size_m(observed, *args, **kwargs) -> str:
    return f"m{observed.shape[0]}"


def _grid(model, *args, **kwargs) -> str:
    return f"m{model.grid_size}"


# (owner, attribute, span name, size tag).  The owner is the namespace the
# caller looks the name up in, so only calls made through it are timed.
TIMED = (
    (semcal.cli, "main", "cli.main", None),
    (semcal.cli, "build_parser", "cli.build_parser", None),
    (semcal.cli, "cmd_doc", "cli.cmd_doc", None),
    (semcal.cli, "cmd_info", "cli.cmd_info", None),
    (semcal.cli, "cmd_msie", "cli.cmd_msie", None),
    (semcal.cli, "cmd_reproduce", "cli.cmd_reproduce", None),
    (semcal.reproduce, "reproduce_rows", "reproduce.reproduce_rows", None),
    (confirmation, "doc_h1_from_table", "confirmation.doc_h1_from_table", None),
    (confirmation, "doc_h2_from_table", "confirmation.doc_h2_from_table", None),
    (confirmation, "raven_increments", "confirmation.raven_increments", None),
    (confirmation, "doc_from_rates", "confirmation.doc_from_rates", None),
    (confirmation, "doc_from_test", "confirmation.doc_from_test", None),
    (estimation, "optimize_belief", "estimation.optimize_belief", _size_n),
    (estimation, "average_semantic_info", "semantic_info.average_semantic_info", _size_n),
    (estimation, "channel_from_samples", "estimation.channel_from_samples", None),
    (estimation, "empirical_conditional", "estimation.empirical_conditional", None),
    (estimation, "optimal_truth_function", "estimation.optimal_truth_function", None),
    (semantic_info, "semantic_mutual_info", "semantic_info.semantic_mutual_info", None),
    (estimation, "gps_fit", "estimation.gps_fit", _size_m),
    (estimation, "gps_objective", "estimation.gps_objective", _size_m),
    (estimation_types.GpsModel, "channel_matrix", "estimation_types.GpsModel.channel_matrix",
     _grid),
)


def _counted_methods():
    """(class, attribute, counter) for each hot method the counting pass counts."""
    found = [(cls, "value", "truth_functions.value_calls")
             for cls in vars(truth_functions).values()
             if isinstance(cls, type) and issubclass(cls, truth_functions.TruthFunction)
             and "value" in vars(cls)]
    found.append((distributions.Alphabet, "index", "distributions.Alphabet.index_calls"))
    return found


@contextlib.contextmanager
def _swapped(replacements):
    """Set each (owner, attribute, value), restoring the originals on exit."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in originals:
            setattr(owner, attr, value)


class Tracer:
    """Records spans around the TIMED functions while ``active``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.active = False
        self._stack: list[int] = []

    def _wrap(self, fn, name, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            tag = size(*args, **kwargs) if size else ""
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, tag, start, end, parent)
        return traced

    @contextlib.contextmanager
    def installed(self):
        with _swapped([(owner, attr, self._wrap(vars(owner)[attr], name, size))
                       for owner, attr, name, size in TIMED]):
            yield self

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False


@contextlib.contextmanager
def counting(counts: Counter):
    """Count calls of the hot methods into ``counts`` while the block runs."""
    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with _swapped([(cls, attr, counted(vars(cls)[attr], key))
                   for cls, attr, key in _counted_methods()]):
        yield


def summarize(spans: list[Span]) -> dict:
    """Per (name, tag): inclusive and self durations, and children per span by name."""
    child_time = defaultdict(float)
    child_names = defaultdict(Counter)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
            child_names[span.parent][span.name] += 1
    out = defaultdict(lambda: {"inclusive": [], "self": [], "children": []})
    for sid, span in enumerate(spans):
        entry = out[span.name, span.tag]
        duration = span.end - span.start
        entry["inclusive"].append(duration)
        entry["self"].append(duration - child_time[sid])
        entry["children"].append(child_names[sid])
    return out


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        fh.write("name,tag,start_s,end_s,parent\n")
        for s in spans:
            fh.write(f"{s.name},{s.tag},{s.start!r},{s.end!r},{s.parent}\n")


# -- interpreter start-up and import time -----------------------------------

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(.*)$")


def import_times(env: dict, repeats: int) -> dict:
    """Medians of ``python -c pass`` wall time and of semcal's and numpy's import time.

    ``import semcal; import numpy`` lists numpy whether semcal imports it
    eagerly (nested under semcal) or not (after it).
    """
    startup, semcal_us, numpy_us = [], [], []
    for _ in range(repeats):
        start = perf_counter()
        # Captured output: with a timeout and no pipes, the wait for the exit polls.
        subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True,
                       check=True, timeout=60)
        startup.append(perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import semcal; import numpy"], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                cumulative.setdefault(match.group(3).strip(), int(match.group(2)))
        semcal_us.append(cumulative["semcal"])
        numpy_us.append(cumulative["numpy"])
    return {"interp.startup_ms": statistics.median(startup) * 1e3,
            "import.semcal_ms": statistics.median(semcal_us) / 1e3,
            "import.numpy_ms": statistics.median(numpy_us) / 1e3}
