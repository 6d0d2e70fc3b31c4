"""Each command loads only the modules it runs.

``import semcal`` loads no submodule: the package resolves its exports on
first use.  numpy would be most of the time the whole package takes to
import, and only the position model (``GpsModel``, ``lag_distribution``,
``gps_objective``, ``gps_fit``) uses it.  ``semcal doc`` loads neither the belief searches nor
``fractions``, and no command loads ``csv`` but the two that read CSV files (``info`` and
``msie --samples``).  semcal imports neither ``dataclasses`` nor the ``inspect`` it pulls in (the
value classes are built on ``distributions.Frozen``); only numpy, on the position-model path,
imports ``inspect``.  Each load check runs in a fresh interpreter, because this
test process has everything loaded already.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import semcal

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import semcal, semcal.cli
before = "numpy" in sys.modules
status = semcal.cli.main(sys.argv[1:])
print(json.dumps({"before": before, "status": status, "after": "numpy" in sys.modules}))
"""


def fresh_python(*args):
    """The last stdout line, as JSON, of ``python *args`` with this checkout's semcal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_fresh(argv, out, script=SCRIPT):
    return fresh_python("-c", script, *argv, "--out", str(out))


@pytest.fixture
def files(tmp_path):
    (tmp_path / "prior.csv").write_text("e1,0.8\ne0,0.2\n")
    (tmp_path / "sampling.csv").write_text("e1,0.99\ne0,0.01\n")
    lines = ["h1,e1"] * 83 + ["h1,e0"] * 57 + ["h0,e1"] * 17 + ["h0,e0"] * 686
    (tmp_path / "birds.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "gps.json").write_text(json.dumps(
        {"grid_size": 64, "delta_e": 3, "d": 5.0, "c": 0.001}))
    return tmp_path


NUMPY_FREE = {
    "doc-table": ["doc", "--table", "83,57,17,686"],
    "doc-rates": ["doc", "--rates", "0.2,0.8,0.01,0.99"],
    "doc-test": ["doc", "--test", "0.917,0.999", "--prior-positive", "0.1"],
    "info": ["info", "--prior", "{dir}/prior.csv", "--sampling", "{dir}/sampling.csv",
             "--tf", "belief:0.9:crisp:e1"],
    "msie-samples": ["msie", "--samples", "{dir}/birds.csv"],
    "reproduce": ["reproduce"],
}


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_command_leaves_numpy_unloaded(files, argv):
    result = run_fresh([a.format(dir=files) for a in argv], files / "report.txt")
    assert result == {"before": False, "status": 0, "after": False}


def test_gps_fit_loads_numpy(files):
    result = run_fresh(["msie", "--gps", str(files / "gps.json")], files / "report.txt")
    assert result == {"before": False, "status": 0, "after": True}


LOADED_SCRIPT = """
import json, sys
import semcal.cli
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "semcal"
                  or m in ("fractions", "numpy", "dataclasses", "inspect", "csv"))
before = loaded()
status = semcal.cli.main(sys.argv[1:])
print(json.dumps({"before": before, "status": status, "after": loaded()}))
"""

SHELL = ["semcal", "semcal.cli", "semcal.confirmation", "semcal.distributions", "semcal.errors"]
INFO = [*SHELL, "semcal.semantic_info", "semcal.truth_functions"]
SEARCHES = [*INFO, "semcal.estimation", "semcal.estimation_types"]

# name: (argv, exit status, what the command leaves loaded among semcal.*, fractions, numpy,
# dataclasses, inspect and csv)
LOADS = {
    "doc-table": (NUMPY_FREE["doc-table"], 0, SHELL),
    "doc-rates": (NUMPY_FREE["doc-rates"], 0, SHELL),
    "doc-test": (NUMPY_FREE["doc-test"], 0, SHELL),
    "doc-malformed": (["doc", "--table", "1,2"], 1, SHELL),
    "doc-empty-row": (["doc", "--table", "0,5,0,5"], 2, SHELL),
    "info": (NUMPY_FREE["info"], 0, [*INFO, "csv"]),
    "msie-samples": (NUMPY_FREE["msie-samples"], 0, [*SEARCHES, "csv"]),
    # numpy imports inspect itself (numpy._core.overrides)
    "msie-gps": (["msie", "--gps", "{dir}/gps.json"], 0, [*SEARCHES, "numpy", "inspect"]),
    "reproduce": (["reproduce"], 0, [*SHELL, "fractions", "semcal.reproduce"]),
}


@pytest.mark.parametrize("argv, status, loaded", LOADS.values(), ids=LOADS.keys())
def test_command_loads_only_its_modules(files, argv, status, loaded):
    result = run_fresh([a.format(dir=files) for a in argv], files / "report.txt",
                       script=LOADED_SCRIPT)
    assert result == {"before": SHELL, "status": status, "after": sorted(loaded)}


def test_bare_import_loads_no_submodule():
    code = ("import json, sys, semcal; print(json.dumps(sorted(m for m in sys.modules if "
            "m.partition('.')[0] == 'semcal' or m in ('fractions', 'numpy', 'dataclasses', "
            "'inspect', 'csv'))))")
    assert fresh_python("-c", code) == ["semcal"]


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(semcal.__path__) if m.name != "__main__")


# The package's __getattr__ is called directly: in this process every submodule
# is loaded already, so plain attribute access would not reach it.
def test_every_submodule_resolves():
    for name in SUBMODULES:
        assert semcal.__getattr__(name) is importlib.import_module(f"semcal.{name}"), name


def test_every_export_resolves_to_its_definition():
    for name in semcal.__all__:
        value = semcal.__getattr__(name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert getattr(semcal, name) is value, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(semcal, "no_such_name")
    assert not hasattr(semcal, "__wrapped__")


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from semcal import *", namespace)
    assert set(semcal.__all__) <= set(namespace)
    assert set(semcal.__all__) | set(SUBMODULES) <= set(dir(semcal))
