"""The benchmark's tracing contract and the example scripts run on the
current sources."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the traced bench run patches these names by string; a rename would
    # otherwise only break `bench/run.py --trace 1`
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for module_name, attr, _, _ in wrapped:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("argv", [
    ["scripts/precision_scaling.py", "--n", "1", "2"],
    ["scripts/parallelism_tradeoff.py"],
])
def test_script_runs(argv):
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
