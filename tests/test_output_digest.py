"""tools/output_digest.py prints the same digests in any interpreter, whatever its hash seed."""

import importlib.util
import os
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
