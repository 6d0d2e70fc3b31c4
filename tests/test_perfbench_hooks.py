"""The attributes that the benchmark's tracer swaps must exist where it looks.

``perfbench/tracing.py`` times a call by replacing an attribute in the
namespace its caller reads it from (``TIMED``); ``--trace 1`` fails when one
is missing.  This pins each of them, so a refactor that moves or renames one
fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("perfbench/tracing.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_attribute_is_in_its_owner(tracing):
    assert tracing.TIMED
    for owner, attribute, name, _ in tracing.TIMED:
        assert attribute in vars(owner), name
