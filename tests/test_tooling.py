"""The benchmark's tracing contract, the example scripts, the module entry
point and the README examples run on the current sources; every name the
package defines has a reader outside the tests."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
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


# work counters of one traced simulation of each workload; they depend on
# the geometry and the command stream, not on the seed
TRACED_WORK = {
    "cnn-wide": {"subarray.aap_executed": 504,
                 "subarray.multiply_calls": 3,
                 "engine.alloc_bytes": 12_615_680,
                 "datapath.plane_reads": 1_776},
    "mlp-n8": {"subarray.aap_executed": 7_960,
               "subarray.multiply_calls": 5,
               "engine.alloc_bytes": 1_081_344,
               "datapath.plane_reads": 1_184},
}


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
        for sim, name in enumerate(TRACED_WORK):
            tracer.begin_sim(sim)
            try:
                statuses, _ = workloads.simulate(
                    cli, workloads.workload(name), 0, tmp_path / name)
            finally:
                tracer.end_sim()
            assert statuses == [0]
    finally:
        tracer.uninstall()
    for sim, want in enumerate(TRACED_WORK.values()):
        counts = tracer.counts[sim]
        assert {counter: counts[counter] for counter in want} == want, sim
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


# sha256 of report.json, report.txt and plan.txt of bench runs at seed 0;
# a change to any report byte fails here
REPORT_DIGESTS = {
    ("cnn-wide", "cnn-wide"): (
        "2f07e0e813eb1f45fb592212e250d124d33e8abdee9b033123a70f40bcdc6ed5",
        "ff4ff3c01cbd507f94d83782b3a689a90dc06d0873652b4f8a3b3d82c03e7eff",
        "791d64ad1561f05bcd646b9e24d3968ab244430aa1cd9a892aacec22269470d8"),
    ("mlp-n8", "mlp-n8"): (
        "b8b131e6435b55dae9d7584d99310bfdbb130636bb6e5829a0cc33870f61c16c",
        "f666a372991834e39a82f6506904bae7886e37f30deedbe4d13c07d4e1b04d23",
        "b36ff6c39126a050508975d1b2441f4e6848109f6aeca38eb24062310fd0dcd6"),
    ("timing-sweep", "alexnet-P3-n4"): (
        "0cef30ccf407f92e03fc925962899c2ca354b69e2590770a549b34ccc77115c7",
        "3a39e8effd64b7305fe00a950faeb8a79715032648217efeee4d9d4b95c49b31",
        "ff614b358d673007a29c313323dfcd34042c231979295d39af6c469d0a52e0d8"),
    ("timing-sweep", "vgg16-P5-n8"): (
        "c27a9de629122a9c11f84c9ce3e9ad917de19d0c9277ea970e129361d2d27b95",
        "8b8e933dc42b3432380784ed9ec909edba183789cc3108159c75744a30a60083",
        "d40c92165c239ab3a33905ba8b05ac0555768a0fb6ee487337d9da56fac6be6e"),
    # eight skips, so plan.txt ends in eight reserved-bank lines
    ("timing-sweep", "resnet18-P1-n2"): (
        "7daa9e279e12fed76da34f0a1be23b7060a14d612bb54d4522536564098f2a77",
        "8d0c32cdddbbbd119e053d8a983736c5060416239df896316035aa8e987f7a16",
        "b6bef6888005964e8193224733adf72e5e92b3fc9ad798a2da248338d88ba596"),
}


@pytest.mark.parametrize("workload, key", list(REPORT_DIGESTS),
                         ids=[key for _, key in REPORT_DIGESTS])
def test_report_bytes_are_frozen(workload, key, tmp_path):
    workloads = _load_bench("workloads")
    cli = importlib.import_module("pimsim.cli")
    ev = next(ev for ev in workloads.workload(workload).evaluations
              if ev.key == key)
    status, _ = cli.run(ev.build(), cli.RunConfig(seed=0, **ev.config),
                        tmp_path)
    assert status == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("report.json", "report.txt", "plan.txt"))
    assert got == REPORT_DIGESTS[workload, key]


@pytest.mark.parametrize("workload", ["cnn-wide", "mlp-n8", "timing-sweep"])
def test_bench_reports_encode_as_the_stdlib_json(workload):
    # the report writer's own indent=2 encoder, on every report the bench
    # writes at seed 0
    workloads = _load_bench("workloads")
    cli = importlib.import_module("pimsim.cli")
    for ev in workloads.workload(workload).evaluations:
        status, report = cli.run(ev.build(),
                                 cli.RunConfig(seed=0, **ev.config), None)
        assert status == 0
        assert cli._indented_json(report) == json.dumps(report, indent=2)


def _sweep_plans():
    """(key, plan) of every timing-sweep evaluation, as cli.run maps it."""
    workloads = _load_bench("workloads")
    cli = importlib.import_module("pimsim.cli")
    for ev in workloads.workload("timing-sweep").evaluations:
        net, config = ev.build(), cli.RunConfig(seed=0, **ev.config)
        plan = cli.map_network(net, config.column_size,
                               config.subarrays_per_bank, config.rows)
        plan.reserved_banks = cli.plan_residual(
            net, len(net.layers) + len(net.residual_edges))
        yield ev.key, plan


def test_sweep_plan_blocks_are_bounded():
    from pimsim.mapper import BLOCK_BYTES, plan_to_text

    for key, plan in _sweep_plans():
        assert max(map(len, plan_to_text(plan))) <= BLOCK_BYTES, key


def test_sweep_plan_writes_in_bounded_memory(tmp_path):
    # the listing is formatted a block at a time as it is written; the
    # largest sweep plan is 455 KB
    from pimsim import mapper
    from pimsim.cli import _write

    mapper._decimals()
    for key, plan in _sweep_plans():
        with open(tmp_path / "plan.txt", "wb") as f:
            tracemalloc.start()
            try:
                _write(f, mapper.plan_to_text(plan))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 192_000, key


@pytest.mark.parametrize("argv", [
    ["scripts/precision_scaling.py", "--n", "1", "2"],
    ["scripts/parallelism_tradeoff.py"],
    ["scripts/minor_faults.py", "cnn-wide", "2"],
])
def test_script_runs(argv):
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("argv, reason", [
    (["scripts/precision_scaling.py", "--preset", "foo"], "unknown preset"),
    (["scripts/precision_scaling.py", "--column-size", "10"],
     "exceeds column_size 10"),
    (["scripts/precision_scaling.py", "--n", "0"], "precision 0 is invalid"),
    (["scripts/parallelism_tradeoff.py", "--preset", "foo"],
     "unknown preset"),
    (["scripts/parallelism_tradeoff.py", "--images", "0"],
     "need at least one image"),
], ids=["scaling-preset", "scaling-column-size", "scaling-n",
        "tradeoff-preset", "tradeoff-images"])
def test_script_rejects_bad_input_in_one_line(argv, reason):
    # a bad argument ends the script with exit status 2 and one stderr
    # line, as pimsim.cli.main does, not a traceback, and prints no table
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and reason in done.stderr
    assert done.stderr.count("\n") == 1
    assert not done.stdout


def _load_full_size():
    spec = importlib.util.spec_from_file_location(
        "full_size", ROOT / "scripts" / "full_size.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_full_size_digests_cover_every_preset_vector():
    # scripts/full_size.py runs at full size, outside the suite; its pinned
    # digests must name every preset's parallelism vectors at n = 4,
    # AlexNet's and ResNet18 P1 at the other precisions, and VGG16 P1 at
    # n = 8
    from pimsim.presets import PARALLELISM

    script = _load_full_size()
    want = {f"{name}-{vector}" for name, vectors in PARALLELISM.items()
            for vector in vectors}
    assert len(want) == 9
    assert sorted(script.DIGESTS) == [1, 2, 4, 8]
    assert set(script.DIGESTS[4]) == want
    small = {"alexnet-P1", "alexnet-P2", "alexnet-P3", "resnet18-P1"}
    assert set(script.DIGESTS[1]) == set(script.DIGESTS[2]) == small
    assert set(script.DIGESTS[8]) == small | {"vgg16-P1"}
    for table in script.DIGESTS.values():
        for digests in table.values():
            assert len(digests) == len(script.REPORT_NAMES)
            assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)


@pytest.mark.parametrize("only, unpinned", [
    (["alexnet-P1", "vgg16-P1"], "vgg16-P1 is not pinned at n = 1, 2"),
    (["alexnet-P9"], "alexnet-P9 is not pinned at n = 1, 2, 8")],
    ids=["pinned-at-n8-only", "no-such-vector"])
def test_full_size_only_rejects_an_unpinned_combination(
        only, unpinned, tmp_path, capsys, monkeypatch):
    # --only names combinations to run; one not pinned at a precision asked
    # for stops the script with one line before any child process starts
    script = _load_full_size()

    def run_one(*args):
        raise AssertionError("a combination ran")

    monkeypatch.setattr(script, "run_one", run_one)
    result = tmp_path / "result.json"
    argv = [str(result), "--precisions", "1", "2", "8"]
    with pytest.raises(SystemExit) as done:
        script.main([*argv, *(arg for key in only for arg in ("--only", key))])
    assert done.value.code == 2
    assert capsys.readouterr().err == f"full_size.py: error: {unpinned}\n"
    assert not result.exists()


@pytest.mark.parametrize("extra, status", [([], 0), (["--rows", "0"], 2)],
                         ids=["runs", "rows-0"])
def test_module_entry_point_exit_status(extra, status, tmp_path):
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "pimsim", "--preset", "alexnet",
         "--mode", "timing", "--cols", "32768", "--output", str(out), *extra],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == status, done.stderr
    if status == 0:
        assert sorted(p.name for p in out.iterdir()) == [
            "plan.txt", "report.json", "report.txt"]
    else:
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert not out.exists()


# Runs the pimsim CLI (target "pimsim") or a script (a path) with the
# arguments that follow, then prints on stderr whether numpy was imported.
_IMPORT_PROBE = """
import runpy, sys
target, sys.argv = sys.argv[1], sys.argv[1:]
try:
    if target == "pimsim":
        from pimsim.cli import main
        sys.exit(main(sys.argv[1:]))
    runpy.run_path(target, run_name="__main__")
finally:
    print("numpy imported:", "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, numpy", [
    (["pimsim", "--preset", "vgg16", "--parallelism", "P3",
      "--mode", "timing", "--cols", "32768"], False),
    (["scripts/precision_scaling.py", "--n", "1", "2"], False),
    (["scripts/parallelism_tradeoff.py"], False),
    (["pimsim", "--model", "toy.json", "--mode", "both"], True),
], ids=["cli-timing", "precision-scaling", "parallelism-tradeoff",
        "cli-both"])
def test_only_functional_runs_import_numpy(argv, numpy, tmp_path):
    # the timing path reads its counts from pimsim.layout and never loads
    # the engine, so it starts without numpy's import
    (tmp_path / "toy.json").write_text(_readme_block("Network files"))
    if argv[0] == "pimsim":
        argv = [*argv, "--output", str(tmp_path / "out")]
    else:
        argv = [str(ROOT / argv[0]), *argv[1:]]
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.endswith(f"numpy imported: {numpy}\n"), done.stderr
    if numpy:
        assert "functional: PASS" in done.stdout


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


# Names src/pimsim defines that nothing under src/pimsim, scripts or bench
# reads, each with why it stays; "module.qualname"
UNREAD_BY_DESIGN = {
    "subarray.add_bitserial":
        "the n-bit ADD primitive the skip connections will run "
        "(ROADMAP item 5)",
    "mapper.LayerPlacement.mac_location":
        "the per-MAC reference for plan.txt's listing, and the location a "
        "first divergence will name (ROADMAP item 6)",
    "timing.PipelineReport.occupancy":
        "the busy intervals the timeline will write (ROADMAP item 6)",
    "mapper.network_to_json":
        "the tests' network-file writer; moving it into tests/ would not "
        "shrink the program",
}


def _defined_names(tree):
    """(qualified name, name) of every function, class, method or property
    and UPPER_CASE constant a module defines at its top level or in a
    class body; dunders are left out."""
    def defs(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield prefix + node.name, node.name
                if isinstance(node, ast.ClassDef):
                    yield from defs(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not prefix:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id.isupper():
                            yield name.id, name.id

    return [(qual, name) for qual, name in defs(tree.body, "")
            if not (name.startswith("__") and name.endswith("__"))]


def _read_names(tree):
    """Every name a module reads: Name loads, attributes, imported names
    and string constants (the bench patches names by string)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_src_name_has_a_reader():
    """Each function, class, method, property and UPPER_CASE constant of
    src/pimsim has a reader in src/pimsim, scripts or bench, or an entry in
    UNREAD_BY_DESIGN that says why it stays; an entry that has gained a
    reader fails too, so the list stays the inventory of unread names.

    The check is by name, not by binding: a dead method that shares its
    name with a live one, in any class or module, counts as read. So it
    can miss dead code, but it never flags a name that something reads.
    """
    package = ROOT / "src" / "pimsim"
    defined = [(f"{path.stem}.{qual}", name)
               for path in sorted(package.glob("*.py"))
               for qual, name in _defined_names(ast.parse(path.read_text()))]
    read = set()
    for folder in (package, ROOT / "scripts", ROOT / "bench"):
        for path in folder.rglob("*.py"):
            read |= _read_names(ast.parse(path.read_text()))
    unread = {qual for qual, name in defined if name not in read}
    no_reader = sorted(unread - set(UNREAD_BY_DESIGN))
    assert not no_reader, f"defined in src/pimsim, never read: {no_reader}"
    stale = sorted(set(UNREAD_BY_DESIGN) - unread)
    assert not stale, f"listed as unread, but read or gone: {stale}"


def test_declared_numpy_floor_has_bitwise_count():
    # datapath.packed_mac_sums calls np.bitwise_count, which NumPy 2.0 added
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor, "pyproject.toml declares no numpy floor"
    assert tuple(map(int, floor.groups())) >= (2, 0)


# numpy helpers written in Python around the array kernels they call, and
# the per-layer path's replacement for each
PYTHON_LEVEL_HELPERS = {
    "pad": "np.zeros and one slice assignment",
    "clip": "np.maximum and np.minimum",
    "diff": "one subtraction of two slices",
    "array_split": "slices of a fixed number of rows",
    "ndindex": "nested range loops",
    "sliding_window_view": "one as_strided view",
}


def test_layer_path_calls_no_python_level_numpy_helper():
    """engine, datapath and oracle run once per layer, or per chunk and
    pass, and call numpy's array kernels directly. The helpers above cost
    several times more in place than alone: timed by wrapping each numpy
    call over 200 cnn-wide simulations in one process, np.pad took 171 us
    per simulation (2 calls), np.clip 116 us (6), sliding_window_view 106
    us (2), np.diff 35 us (3) and np.array_split 21 us (1), together with
    the int64 einsum fold about 12% of a 5.1 ms simulation."""
    found = []
    for name in ("engine", "datapath", "oracle"):
        path = ROOT / "src" / "pimsim" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            # np.pad, x.clip, or a name imported from numpy
            if isinstance(node, ast.Attribute):
                called = [node.attr]
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "numpy"):
                called = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{name}.py:{node.lineno} {helper} (use "
                      f"{PYTHON_LEVEL_HELPERS[helper]})"
                      for helper in called if helper in PYTHON_LEVEL_HELPERS]
    assert not found, found
