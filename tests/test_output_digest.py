"""tools/output_digest.py prints the same digests in any interpreter, whatever its hash seed.

``--against TREE`` names each group as the same or differing in another tree.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def digests(hash_seed: str) -> list[str]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return run.stdout.splitlines()


def test_two_hash_seeds_print_the_same_digests():
    # a set's iteration order, as in a Crisp's positive_set, changes with the seed
    first, second = digests("1"), digests("2")
    assert first == second
    assert [line.split()[1] for line in first] == [*output_digest.GROUPS, "total"]
    assert all(len(line.split()[0]) == 64 for line in first)


def test_canonical_sorts_sets_and_spells_out_value_classes():
    from semcal import Alphabet, Crisp

    crisp = Crisp(Alphabet(["a", "b", "c"]), ["c", "a"])
    assert output_digest.canonical(crisp) == (
        "Crisp(alphabet=Alphabet(labels=tuple('a', 'b', 'c')), positive_set={'a', 'c'})")
    assert output_digest.canonical(output_digest.np.array([0.5, 1.0])) == "float64:list(0.5, 1.0)"


def against(tree: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, str(TOOL), "--against", str(tree)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_against_the_same_tree_prints_same_for_every_group():
    run = against(ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [f"same  {name}" for name in output_digest.GROUPS]


def test_against_a_tree_whose_rows_differ_names_that_group_and_exits_1(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "semcal", tree / "src" / "semcal",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "src" / "semcal" / "reproduce.py", "a") as module:
        module.write("\n\n_rows = reproduce_rows\n\n\n"
                     "def reproduce_rows():\n    return _rows()[:-1]\n")
    run = against(tree)
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines() == [
        f"{'differs' if name == 'reproduce' else 'same'}  {name}"
        for name in output_digest.GROUPS]
    assert not list(tree.rglob("__pycache__"))
