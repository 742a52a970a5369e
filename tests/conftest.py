import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gen import std_sig, struct_sig  # noqa: E402

# Under CI (which sets ``CI``) every ``@given`` test draws the same examples
# on every run; each test's own ``max_examples`` still applies.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def sig():
    """Shared symmetric signature with a spread of generator shapes."""
    return std_sig()


@pytest.fixture(scope="session")
def msig():
    """Monoidal-level signature of bare objects (no braiding allowed)."""
    return struct_sig()


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def golden_dir():
    return Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def perfbench_gen():
    """The benchmark's seeded input generator (``perfbench/gen.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
