"""The benchmark's tracing contract, the example scripts and the README
examples run on the current sources."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the traced bench run patches these names by string; a rename would
    # otherwise only break `bench/run.py --trace 1`
    wrapped = _load_bench("tracing").WRAPPED
    assert wrapped
    for module_name, attr, _, _ in wrapped:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tracer_counts_work_and_uninstalls(tmp_path):
    # the traced bench run reads result shapes (build_bank's list of states,
    # multiply's events, bank_execute's accounting); a change to them would
    # otherwise only break `bench/run.py --trace 1`
    tracing = _load_bench("tracing")
    workloads = _load_bench("workloads")
    cli = importlib.import_module("pimsim.cli")
    originals = [getattr(importlib.import_module(module), attr)
                 for module, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for sim, name in enumerate(["cnn-wide", "mlp-n8"]):
            tracer.begin_sim(sim)
            try:
                statuses, _ = workloads.simulate(
                    cli, workloads.workload(name), 0, tmp_path / name)
            finally:
                tracer.end_sim()
            assert statuses == [0]
    finally:
        tracer.uninstall()
    for sim in (0, 1):
        counts = tracer.counts[sim]
        for counter in ("engine.alloc_bytes", "subarray.multiply_calls",
                        "subarray.aap_executed", "datapath.plane_reads"):
            assert counts[counter] > 0, (sim, counter)
    for (module, attr, _, _), original in zip(tracing.WRAPPED, originals):
        assert getattr(importlib.import_module(module), attr) is original


@pytest.mark.parametrize("name", ["cnn-wide", "mlp-n8", "timing-sweep"])
def test_bench_workload_meets_its_golden(name, tmp_path):
    # one gated simulation per bench workload: exit 0, oracle PASS, executed
    # AAPs equal to the model, and report.json equal to bench/golden.json
    workloads = _load_bench("workloads")
    cli = importlib.import_module("pimsim.cli")
    wl = workloads.workload(name)
    statuses, _ = workloads.simulate(cli, wl, 0, tmp_path)
    problems, mults, _ = workloads.check(wl, statuses, tmp_path,
                                         workloads.load_golden(name))
    assert problems == []
    assert mults > 0


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


def _readme_block(section):
    """The first fenced block after the README heading `### section`."""
    text = (ROOT / "README.md").read_text()
    match = re.search(rf"^### {section}\n.*?^```\w*\n(.*?)^```", text,
                      re.M | re.S)
    assert match, section
    return match.group(1)


def test_readme_network_file_runs(tmp_path):
    from pimsim.cli import RunConfig, run
    from pimsim.mapper import network_from_json

    net = network_from_json(_readme_block("Network files"))
    status, report = run(net, RunConfig(mode="timing"), tmp_path)
    assert status == 0
    assert len(report["per_layer"]) == len(net.layers) == 2


def test_readme_timing_config_is_the_default():
    from pimsim.timing import TimingParams

    assert TimingParams.from_text(
        _readme_block("Timing configuration")) == TimingParams()
