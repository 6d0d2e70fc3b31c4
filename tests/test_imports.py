"""numpy is loaded only on the position-estimator path.

numpy is most of the time ``import semcal`` takes, and only the position
model (``GpsModel``, ``lag_distribution``, ``gps_objective``, ``gps_fit``)
uses it.  Each case runs in a fresh interpreter, because this test process
has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import semcal, semcal.cli
before = "numpy" in sys.modules
status = semcal.cli.main(sys.argv[1:])
print(json.dumps({"before": before, "status": status, "after": "numpy" in sys.modules}))
"""


def run_fresh(argv, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv, "--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
