"""Preset, network I/O, run driver and report tests."""

import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim import engine, timing
from pimsim.cli import (
    REPORT_NAMES,
    RunConfig,
    RunConfigError,
    _indented_json,
    _open_reports,
    _write,
    emit_report,
    load_network,
    main,
    run,
)
from pimsim.engine import run_functional
from pimsim.mapper import (
    LayerSpec,
    MappingError,
    NetworkDescription,
    conv_layer,
    linear_layer,
    map_network,
    network_to_json,
    plan_residual,
    plan_to_text,
)
from pimsim.presets import PARALLELISM, preset
from pimsim.timing import TimingParams


def toy_net(n=3):
    return NetworkDescription(
        "toy", n,
        [conv_layer(H=4, W=4, I=1, O=2, K=2), linear_layer(w1=18, w2=4)],
        parallelism=[1, 1],
    )


class TestPresets:
    def test_alexnet_parallelism_vectors(self):
        assert PARALLELISM["alexnet"]["P3"] == (4, 4, 4, 4, 4, 4, 2, 1)
        assert PARALLELISM["alexnet"]["P1"] == (1,) * 8
        assert PARALLELISM["alexnet"]["P2"] == (2,) * 8

    def test_vgg16_parallelism_vectors(self):
        assert PARALLELISM["vgg16"]["P5"][-3:] == (1, 1, 1)
        assert PARALLELISM["vgg16"]["P5"][:13] == (8,) * 13
        assert PARALLELISM["vgg16"]["P4"] == (8,) * 13 + (4, 4, 4)

    def test_resnet18_p1(self):
        assert PARALLELISM["resnet18"]["P1"] == (1,) * 18

    def test_layer_counts(self):
        assert len(preset("alexnet").layers) == 8
        assert len(preset("vgg16").layers) == 16
        assert len(preset("resnet18").layers) == 18

    def test_every_vector_divides_outputs(self):
        for name, vectors in PARALLELISM.items():
            for tag in vectors:
                net = preset(name, tag)
                assert net.validate() == []

    def test_alexnet_feature_sizes_chain(self):
        net = preset("alexnet")
        fc = net.layers[5]
        assert fc.w1 == 6 * 6 * 256

    def test_vgg_fc_width(self):
        net = preset("vgg16")
        assert net.layers[13].w1 == 7 * 7 * 512

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            preset("lenet")
        with pytest.raises(ValueError):
            preset("alexnet", "P9")


class TestNetworkIO:
    def test_minimal_file_parses(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            '{"name": "one", "precision": 2, '
            '"layers": [{"kind": "linear", "w1": 3, "w2": 4}]}'
        )
        net = load_network(path)
        assert net.layers[0].w2 == 4
        assert net.parallelism == [1]

    def test_wrong_parallelism_length_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            '{"name": "one", "precision": 2, "parallelism": [1, 1], '
            '"layers": [{"kind": "linear", "w1": 3, "w2": 4}]}'
        )
        with pytest.raises(MappingError):
            load_network(path)

    def test_save_load_byte_identical(self, tmp_path):
        net = preset("alexnet", "P3")
        path = tmp_path / "alexnet.json"
        path.write_text(network_to_json(net))
        again = load_network(path)
        assert network_to_json(again) == path.read_text()

    def test_missing_file(self):
        with pytest.raises(MappingError):
            load_network("/nonexistent/net.json")


class TestRunDriver:
    def test_toy_both_modes_pass(self, tmp_path):
        status, report = run(toy_net(), RunConfig(mode="both"), tmp_path)
        assert status == 0
        assert report["functional"]["passed"]
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "plan.txt").exists()

    def test_plan_file_is_plan_to_text_bytes(self, tmp_path):
        net = toy_net()
        net.residual_edges = [(0, 1)]
        config = RunConfig(mode="both")
        status, _ = run(net, config, tmp_path)
        assert status == 0
        plan = map_network(net, config.column_size, config.subarrays_per_bank,
                           config.rows)
        plan.reserved_banks = plan_residual(net, 3)
        assert ((tmp_path / "plan.txt").read_bytes()
                == b"".join(plan_to_text(plan)))

    def test_infeasible_mapping_is_documented_failure(self):
        net = toy_net()
        with pytest.raises(MappingError):
            run(net, RunConfig(mode="timing", column_size=8))

    def test_infeasible_parallelism_is_documented_failure(self):
        net = NetworkDescription(
            "badk", 2, [linear_layer(w1=2, w2=4)], parallelism=[3]
        )
        with pytest.raises(MappingError, match="does not divide"):
            run(net, RunConfig(mode="timing"))

    def test_empty_network_header_only_report(self, tmp_path):
        net = NetworkDescription("empty", 2, [])
        status, report = run(net, RunConfig(mode="both"), tmp_path)
        assert status == 0
        assert report["per_layer"] == []
        assert report["aap_total"] == 0
        text = (tmp_path / "report.txt").read_text()
        assert "empty" in text

    def test_same_seed_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(toy_net(), RunConfig(mode="both", seed=9), a)
        run(toy_net(), RunConfig(mode="both", seed=9), b)
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()

    def test_rerun_over_longer_reports_rewrites_each_in_place(self, tmp_path):
        # an AlexNet timing run leaves reports longer than the toy network's
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        status, _ = run(preset("alexnet"),
                        RunConfig(mode="timing", rows=4096, cols=32768),
                        reused)
        assert status == 0
        names = ("report.json", "report.txt", "plan.txt")
        old = {name: (reused / name).stat().st_size for name in names}
        for out in (reused, fresh):
            assert run(toy_net(), RunConfig(mode="both", seed=3), out)[0] == 0
        for name in names:
            assert (reused / name).stat().st_size < old[name]
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_mode_consistency(self, tmp_path):
        _, func = run(toy_net(), RunConfig(mode="both", seed=4), None)
        _, tim = run(toy_net(), RunConfig(mode="timing", seed=4), None)
        assert func["aap_total"] == tim["aap_total"]
        assert func["footprint_bits_total"] == tim["footprint_bits_total"]
        assert func["functional"]["trace_aap_total"] == func["aap_total"]

    def test_mode_consistency_multi_subarray(self):
        # MACs spill onto a second subarray: traces log the broadcast once
        # per subarray, so both modes must still agree
        net = NetworkDescription(
            "wide", 2, [linear_layer(w1=10, w2=8)], parallelism=[1]
        )
        status, report = run(
            net, RunConfig(mode="both", cols=32, column_size=32), None
        )
        assert status == 0
        place_subs = report["per_layer"][0]["subarrays_used"]
        assert place_subs > 1
        assert (report["functional"]["trace_aap_total"]
                == place_subs * report["aap_total"])

    def test_bank_budget_enforced(self):
        net = preset("resnet18")
        with pytest.raises(MappingError, match="banks"):
            run(net, RunConfig(mode="timing", rows=4096, cols=8192,
                               column_size=8192, banks=18))

    def test_bad_config_rejected(self):
        with pytest.raises(RunConfigError):
            RunConfig(mode="bogus")
        with pytest.raises(RunConfigError):
            RunConfig(column_size=512, cols=256)
        with pytest.raises(RunConfigError):
            RunConfig(images=0)


class TestReports:
    def test_json_round_trip(self, tmp_path):
        _, report = run(toy_net(), RunConfig(mode="timing"), None)
        path = tmp_path / "r.json"
        with open(path, "wb") as f:
            emit_report(report, "json", f)
        again = json.loads(path.read_text())
        assert again == json.loads(json.dumps(report))

    def test_table_contains_area_and_pipeline(self, tmp_path):
        _, report = run(toy_net(), RunConfig(mode="timing"), None)
        path = tmp_path / "r.txt"
        with open(path, "wb") as f:
            emit_report(report, "table", f)
        text = path.read_text()
        assert "514877" in text
        assert "pipeline" in text

    def test_mul_aap_total_is_sum_of_layers(self):
        _, report = run(toy_net(), RunConfig(mode="timing"), None)
        assert report["aap_total"] == sum(
            e["aap_count"] for e in report["per_layer"]
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(RunConfigError):
            emit_report({}, "xml", io.BytesIO())

    @staticmethod
    def _write_path(path, blocks):
        # open the file as run does, then write it
        [f] = _open_reports([path])
        with f:
            _write(f, blocks)

    def test_writer_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "r.txt"
        self._write_path(path, [b"a longer first version\n" * 100])
        self._write_path(path, [b"short\n"])
        assert path.read_bytes() == b"short\n"
        # blocks from a generator, over a longer file and then over a
        # shorter one
        blocks = [b"%d\n" % i * 3000 for i in range(5)]
        self._write_path(path, [b"x" * 100_000])
        self._write_path(path, (block for block in blocks))
        assert path.read_bytes() == b"".join(blocks)
        self._write_path(path, (block for block in blocks * 3))
        assert path.read_bytes() == b"".join(blocks * 3)
        self._write_path(path, [])
        assert path.read_bytes() == b""

    @settings(deadline=None)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(),
        lambda children: st.lists(children)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children),
        max_leaves=40))
    @example(value={"a\"\\é\n": ["\u2603 \"q\"", -0.0, float("nan"),
                                 float("-inf"), 10**30, True, None]})
    @example(value={"e": {}, "l": [], "n": [[], {}, [[{}]]], "s": 1.5e-300})
    def test_indented_json_is_the_stdlib_text(self, value):
        assert _indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002],
                             ids=["022", "077", "002"])
    def test_writer_creates_the_mode_write_bytes_does(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            self._write_path(tmp_path / "a", [b"x"])
            (tmp_path / "b").write_bytes(b"x")
        finally:
            os.umask(old)
        assert ((tmp_path / "a").stat().st_mode
                == (tmp_path / "b").stat().st_mode)


class TestFunctionalEngine:
    def test_conv_then_linear_matches_oracle(self):
        net = toy_net()
        plan = map_network(net, 64)
        result = run_functional(net, plan, seed=1)
        assert result.passed, result.mismatch

    def test_pooled_conv_matches_oracle(self):
        net = NetworkDescription(
            "pool", 2,
            [conv_layer(H=6, W=6, I=1, O=2, K=3, p=1, s=1, pool=2),
             linear_layer(w1=18, w2=3)],
        )
        plan = map_network(net, 64)
        result = run_functional(net, plan, seed=2)
        assert result.passed, result.mismatch

    def test_stacked_parallelism_matches_oracle(self):
        net = NetworkDescription(
            "stack", 2,
            [linear_layer(w1=6, w2=4)],
            parallelism=[2],
        )
        plan = map_network(net, 32)
        result = run_functional(net, plan, seed=3)
        assert result.passed, result.mismatch

    def test_stacked_conv_matches_oracle(self):
        net = NetworkDescription(
            "stackconv", 3,
            [conv_layer(H=5, W=5, I=2, O=4, K=3, p=1, s=1),
             linear_layer(w1=100, w2=2)],
            parallelism=[2, 2],
        )
        plan = map_network(net, 128)
        result = run_functional(net, plan, seed=8)
        assert result.passed, result.mismatch


class TestMainEntry:
    def test_preset_timing_run(self, tmp_path, capsys):
        status = main([
            "--preset", "alexnet", "--parallelism", "P3", "--mode", "timing",
            "--column-size", "32768", "--rows", "4096", "--cols", "32768",
            "--output", str(tmp_path),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "alexnet-P3" in out
        assert (tmp_path / "report.json").exists()

    def test_model_file_run(self, tmp_path, capsys):
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main([
            "--model", str(netfile), "--mode", "both",
            "--output", str(tmp_path / "out"),
        ])
        assert status == 0
        assert "functional: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [9, 16])
    def test_precision_above_eight_bits_passes(self, tmp_path, capsys, n):
        # operands wider than a byte keep their high bits on the way in,
        # through the padded conv input and the linear weights alike
        netfile = tmp_path / "wide.json"
        netfile.write_text(json.dumps({
            "name": "wide", "precision": n,
            "layers": [
                {"kind": "conv", "H": 3, "W": 3, "I": 2, "O": 2, "K": 3,
                 "L": 3, "s": 1, "p": 1},
                {"kind": "linear", "w1": 18, "w2": 4},
            ],
        }))
        status = main([
            "--model", str(netfile), "--mode", "both",
            "--output", str(tmp_path / "out"),
        ])
        assert status == 0
        assert "functional: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n, status", [(30, 0), (31, 2), (32, 2),
                                           (64, 2)])
    def test_precision_limit_of_the_int64_sums(self, tmp_path, capsys, n,
                                               status):
        # 3-term dot products of n-bit operands stay below 2**63 up to
        # n = 30; wider ones are rejected before anything runs, not wrapped
        netfile = tmp_path / "lin.json"
        netfile.write_text(json.dumps({
            "name": "lin", "precision": n,
            "layers": [{"kind": "linear", "w1": 3, "w2": 4}],
        }))
        # the 64-bit layer needs 328 rows; with fewer the row budget
        # rejects it first (test_stacking_deeper_than_the_rows_exit_code)
        rows = ["--rows", "512"] if n == 64 else []
        got = main([
            "--model", str(netfile), "--mode", "both", *rows,
            "--output", str(tmp_path / "out"),
        ])
        out, err = capsys.readouterr()
        assert got == status
        if status == 0:
            assert "functional: PASS" in out
        else:
            assert err == (
                f"error: layer 0: 3-term dot products at precision {n} can "
                f"overflow the 64-bit MAC sums (needs 2 * precision + bit "
                f"length of 3 <= 63)\n")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["timing", "functional", "both"])
    @pytest.mark.parametrize("source, message", [
        # 4 pairs at n=8: 9 + 7 + 16 + 5 * 8 rows
        (["--preset", "alexnet", "--parallelism", "P3", "--precision", "8",
          "--rows", "64", "--cols", "32768", "--column-size", "32768"],
         "layer 0: 64 rows cannot stack 4 pairs at n=8 (need 72)"),
        # one pair at n=64: 9 + 63 + 128 + 2 * 64 rows
        (["--model", "lin64.json", "--rows", "256"],
         "layer 0: 256 rows cannot stack 1 pairs at n=64 (need 328)"),
    ], ids=["alexnet-P3-n8", "linear-n64"])
    def test_stacking_deeper_than_the_rows_exit_code(
            self, tmp_path, capsys, monkeypatch, mode, source, message):
        # every mode rejects the placement with the same line, timing
        # included: no latency for a layer whose pairs do not fit the rows
        monkeypatch.chdir(tmp_path)
        Path("lin64.json").write_text(json.dumps({
            "name": "lin", "precision": 64,
            "layers": [{"kind": "linear", "w1": 3, "w2": 4}],
        }))
        status = main([*source, "--mode", mode, "--output", "out"])
        assert status == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("out").exists()

    @pytest.mark.parametrize("mode", ["timing", "functional", "both"])
    def test_layer_k_field_exit_code(self, tmp_path, capsys, mode):
        # a layer's k comes only from the parallelism vector
        netfile = tmp_path / "k.json"
        netfile.write_text(json.dumps({
            "name": "k", "precision": 2,
            "layers": [{"kind": "linear", "w1": 3, "w2": 4, "k": 2}],
        }))
        status = main([
            "--model", str(netfile), "--mode", mode,
            "--output", str(tmp_path / "out"),
        ])
        assert status == 2
        assert capsys.readouterr().err == (
            "error: layer 0: unknown fields ['k']\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["timing", "functional", "both"])
    @pytest.mark.parametrize("layers", [[], [{"kind": "linear", "w1": 3,
                                              "w2": 4}]],
                             ids=["empty", "linear"])
    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed -1 must not be negative"),
        (["--column-size", "0"], "column_size must be at least 1"),
        (["--subarrays-per-bank", "0"],
         "subarrays_per_bank must be at least 1"),
        (["--banks", "0"], "banks must be at least 1"),
    ], ids=["seed", "column-size", "subarrays-per-bank", "banks"])
    def test_impossible_run_setting_exit_code(self, tmp_path, capsys, mode,
                                              layers, flags, message):
        # rejected before mapping, so even a network with no layers fails
        netfile = tmp_path / "net.json"
        netfile.write_text(json.dumps({"name": "net", "precision": 2,
                                       "layers": layers}))
        status = main([
            "--model", str(netfile), "--mode", mode, *flags,
            "--output", str(tmp_path / "out"),
        ])
        assert status == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--rows", "--cols"])
    @pytest.mark.parametrize("mode", ["timing", "both"])
    def test_zero_dimension_exit_code(self, tmp_path, capsys, flag, mode):
        # 0 is rejected, not replaced by the default size
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main([
            "--model", str(netfile), "--mode", mode, flag, "0",
            "--output", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert status == 2
        assert err == "error: subarray dimensions must be positive\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", REPORT_NAMES)
    def test_report_name_that_is_a_directory_writes_nothing(
            self, tmp_path, capsys, name):
        # every report file is opened before any is written; the ones this
        # run created are removed again
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        status = main(["--preset", "alexnet", "--mode", "timing",
                       "--cols", "32768", "--output", str(out)])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == [name]

    def test_reports_of_an_earlier_run_stay_when_one_cannot_open(
            self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--preset", "alexnet", "--mode", "timing",
                     "--cols", "32768", "--output", str(out)]) == 0
        before = {name: (out / name).read_bytes()
                  for name in ("report.json", "report.txt")}
        (out / "plan.txt").unlink()
        (out / "plan.txt").mkdir()
        status = main(["--preset", "vgg16", "--mode", "timing",
                       "--cols", "32768", "--output", str(out)])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_mapping_failure_exit_code(self, tmp_path, capsys):
        status = main([
            "--preset", "vgg16", "--mode", "timing",
            "--column-size", "4096", "--output", str(tmp_path),
        ])
        assert status == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["timing", "functional", "both"])
    def test_kernel_larger_than_padded_input_exit_code(self, tmp_path, capsys,
                                                       mode):
        # (2 - 5 + 0) // 1 + 1 = -2 output rows: rejected before mapping,
        # never a made-up latency or a numpy traceback
        netfile = tmp_path / "bad.json"
        netfile.write_text(json.dumps({
            "name": "bad", "precision": 4,
            "layers": [{"kind": "conv", "H": 2, "W": 2, "I": 1, "O": 1,
                        "K": 5, "L": 5, "p": 0}],
        }))
        status = main([
            "--model", str(netfile), "--mode", mode,
            "--output", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert status == 2
        assert err.count("\n") == 1
        assert "5x5 kernel does not fit the 2x2 input" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["functional", "both", "timing"])
    def test_layers_that_do_not_chain_exit_code(self, tmp_path, capsys, mode):
        # the conv produces 3x3x2 = 18 elements, the linear layer takes 5
        netfile = tmp_path / "bad.json"
        netfile.write_text(json.dumps({
            "name": "bad", "precision": 3,
            "layers": [{"kind": "conv", "H": 4, "W": 4, "I": 1, "O": 2,
                        "K": 2, "L": 2},
                       {"kind": "linear", "w1": 5, "w2": 4}],
        }))
        status = main([
            "--model", str(netfile), "--mode", mode,
            "--output", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert status == 2
        assert err.count("\n") == 1
        assert "layer 1 takes 5 input elements, but layer 0 produces 18" in err
        assert not (tmp_path / "out").exists()

    def test_functional_mode_checks_the_aap_count(self, tmp_path, capsys,
                                                  monkeypatch):
        # a model one AAP off per multiply fails the run, not only in both
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        count = timing.mul_aap_count
        monkeypatch.setattr(timing, "mul_aap_count", lambda n: count(n) + 1)
        status = main([
            "--model", str(netfile), "--mode", "functional",
            "--output", str(tmp_path / "out"),
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "functional: FAIL (traces logged" in out
        assert "AAPs, timing model expected" in out

    def test_aap_errors_that_cancel_fail_the_run(self, tmp_path, capsys,
                                                 monkeypatch):
        # +7 AAPs on layer 0 and -7 on layer 1 leave the network's total
        # equal to the model's; the run still fails, at layer 0
        execute = engine.bank_execute

        def tampered(banks, place, sfu):
            outputs, acct = execute(banks, place, sfu)
            moved = (7, -7)[place.layer_index]
            return outputs, replace(acct, aap_total=acct.aap_total + moved)

        monkeypatch.setattr(engine, "bank_execute", tampered)
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main(["--model", str(netfile), "--mode", "functional",
                       "--output", str(tmp_path / "out")])
        assert status == 1
        assert ("functional: FAIL (traces logged 74 AAPs, timing model "
                "expected 67, in layer 0)\n") in capsys.readouterr().out

    @staticmethod
    def _patch_bank_execute(monkeypatch, tamper):
        # tamper(layer_index, outputs) returns the outputs the run sees
        execute = engine.bank_execute

        def tampered(banks, place, sfu):
            outputs, acct = execute(banks, place, sfu)
            return tamper(place.layer_index, outputs), acct

        monkeypatch.setattr(engine, "bank_execute", tampered)

    def test_oracle_mismatch_fails_the_run(self, tmp_path, capsys,
                                           monkeypatch):
        # bit 0 of output element 3 of layer 1 flips: the run names that
        # element in every verdict it writes and exits 1
        def flip(idx, outputs):
            if idx == 1:
                outputs.reshape(-1)[3] ^= 1
            return outputs

        self._patch_bank_execute(monkeypatch, flip)
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net(4)))
        out = tmp_path / "out"
        status = main(["--model", str(netfile), "--mode", "functional",
                       "--output", str(out)])
        message = "layer 1: element 3 is 3, oracle says 2"
        assert status == 1
        assert f"functional: FAIL ({message})\n" in capsys.readouterr().out
        functional = json.loads((out / "report.json").read_text())[
            "functional"]
        assert functional["passed"] is False
        assert functional["mismatch"] == message
        assert (out / "report.txt").read_text().endswith(
            f"functional check: FAIL: {message}\n")

    def test_oracle_shape_mismatch_fails_the_run(self, tmp_path, capsys,
                                                 monkeypatch):
        # layer 0 returns its 18 outputs flattened and one short
        self._patch_bank_execute(
            monkeypatch,
            lambda idx, outputs: outputs.reshape(-1)[:-1] if idx == 0
            else outputs)
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net(4)))
        status = main(["--model", str(netfile), "--mode", "functional",
                       "--output", str(tmp_path / "out")])
        assert status == 1
        assert ("functional: FAIL (layer 0: shape (17,) != oracle "
                "(2, 3, 3))") in capsys.readouterr().out

    def test_comma_list_parallelism_runs(self, tmp_path, capsys):
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main(["--model", str(netfile), "--parallelism", "2,2",
                       "--output", str(tmp_path / "out")])
        assert status == 0
        assert "functional: PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["parallelism"] == [2, 2]
        assert report["network"] == "toy"

    def test_preset_run_is_named_after_its_comma_list(self, tmp_path):
        # named after the vector it ran, not after the P1 it started from;
        # a P-vector run keeps its name (test_preset_timing_run)
        status = main([
            "--preset", "alexnet", "--parallelism", "4,4,4,4,4,4,2,1",
            "--mode", "timing", "--cols", "32768", "--column-size", "32768",
            "--output", str(tmp_path),
        ])
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["network"] == "alexnet-4,4,4,4,4,4,2,1"
        assert report["parallelism"] == [4, 4, 4, 4, 4, 4, 2, 1]

    @pytest.mark.parametrize("vector, message", [
        ("1,x", "parallelism must be P1..P5 or a comma list, got '1,x'"),
        ("P2", "P-vectors only apply to presets; give a comma list"),
    ])
    def test_bad_parallelism_flag_exit_code(self, tmp_path, capsys, vector,
                                            message):
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main(["--model", str(netfile), "--parallelism", vector,
                       "--output", str(tmp_path / "out")])
        assert status == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["timing", "functional", "both"])
    @pytest.mark.parametrize("text, message", [
        ("{not json", "network file is not valid JSON: "),
        ("[]", "network file must hold a JSON object"),
        ('{"name": "x", "precision": 2, "layers": {}}',
         "'layers' must be a list"),
        ('{"name": "x", "precision": 2, "layers": [], "parallelism": 1}',
         "'parallelism' must be a list"),
        ('{"name": "x", "precision": 2, "layers": [], '
         '"residual_edges": [[0]]}',
         "each residual edge must be a [src, dst] pair"),
        ('{"name": "x", "precision": 2, "layers": [{"w1": 2, "w2": 2}]}',
         "layer 0: missing 'kind'"),
    ], ids=["not-json", "array", "layers", "parallelism", "edge", "kind"])
    def test_malformed_network_file_exit_code(self, tmp_path, capsys, mode,
                                              text, message):
        netfile = tmp_path / "bad.json"
        netfile.write_text(text)
        status = main(["--model", str(netfile), "--mode", mode,
                       "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["timing", "functional", "both"])
    @pytest.mark.parametrize("w2", [10**300, 10**307, 10**308],
                             ids=["energy-inf", "total-inf", "int-too-large"])
    def test_modeled_value_beyond_float64_exit_code(self, tmp_path, capsys,
                                                    mode, w2):
        # 10**300 outputs made an infinite energy, 10**307 an infinite
        # pipeline total, 10**308 an OverflowError; none may reach a report
        # or the engine
        net = NetworkDescription("big", 4, [linear_layer(w1=1, w2=w2)])
        message = "a modeled latency or energy is not a finite float"
        with pytest.raises(MappingError, match=message):
            run(net, RunConfig(mode=mode), tmp_path / "run")
        assert not (tmp_path / "run").exists()
        netfile = tmp_path / "big.json"
        netfile.write_text(network_to_json(net))
        status = main(["--model", str(netfile), "--mode", mode,
                       "--output", str(tmp_path / "out")])
        assert status == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_empty_network_file_runs(self, tmp_path, capsys):
        netfile = tmp_path / "empty.json"
        netfile.write_text(json.dumps({"name": "empty", "precision": 2,
                                       "layers": []}))
        status = main([
            "--model", str(netfile), "--output", str(tmp_path / "out"),
        ])
        assert status == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())[
            "per_layer"] == []

    def test_precision_flag_with_a_network_file_exit_code(self, tmp_path,
                                                          capsys):
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main([
            "--model", str(netfile), "--precision", "9",
            "--output", str(tmp_path / "out"),
        ])
        assert status == 2
        assert capsys.readouterr().err == (
            "error: --precision applies to presets; a network file sets its "
            "own precision\n")
        assert not (tmp_path / "out").exists()

    def test_unlisted_preset_vector_exit_code(self, tmp_path, capsys):
        status = main([
            "--preset", "alexnet", "--parallelism", "P5", "--mode", "timing",
            "--output", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert status == 2
        assert err.count("\n") == 1
        assert "not 'P5'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["timing", "both"])
    @pytest.mark.parametrize("field,value,message", [
        ("H", "4", "H must be an integer, got '4'"),
        ("H", 4.5, "H must be an integer, got 4.5"),
        ("H", None, "H must be an integer, got None"),
        ("K", True, "K must be an integer, got True"),
        ("p", -1, "padding -1 must not be negative"),
        ("pool", -1, "pool window -1 must be 1 to 3"),
        ("pool", 2.5, "pool must be an integer or null, got 2.5"),
        ("pool", "a", "pool must be an integer or null, got 'a'"),
        ("pool", 9, "pool window 9 must be 1 to 3 for the 3x3 output"),
        ("precision", "4", "precision must be an integer, got '4'"),
        ("name", ["x", {"y": None}],
         "name must be a string, got ['x', {'y': None}]"),
        ("parallelism", [1.5], "k must be an integer, got 1.5"),
        ("parallelism", [0], "k=0 must be at least 1"),
    ])
    def test_bad_network_field_exit_code(self, tmp_path, capsys, mode, field,
                                         value, message):
        # a 4x4 input through a 2x2 kernel gives a 3x3 output
        doc = {"name": "bad", "precision": 4, "parallelism": [1],
               "layers": [{"kind": "conv", "H": 4, "W": 4, "I": 1, "O": 2,
                           "K": 2, "L": 2}]}
        if field in doc:
            doc[field] = value
        else:
            doc["layers"][0][field] = value
        netfile = tmp_path / "bad.json"
        netfile.write_text(json.dumps(doc))
        status = main([
            "--model", str(netfile), "--mode", mode,
            "--output", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert status == 2
        assert err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["timing", "functional", "both"])
    def test_name_without_utf8_exit_code(self, tmp_path, capsys, mode):
        # a lone surrogate survives JSON but has no UTF-8 encoding
        doc = json.loads(network_to_json(toy_net()))
        doc["name"] = "\ud800"
        netfile = tmp_path / "bad.json"
        netfile.write_text(json.dumps(doc))
        status = main(["--model", str(netfile), "--mode", mode,
                       "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status == 2
        assert err == "error: name must encode to UTF-8, got '\\ud800'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,message", [
        ("t_aap = fast", "t_aap = 'fast' is not a valid float"),
        ("sfu_cycles.relu = 1.5", "sfu_cycles.relu = '1.5' is not a valid int"),
        ("t_aap = nan", "t_aap must be positive and finite, got nan"),
        pytest.param("sfu_cycles.pool = " + "9" * 4300,
                     "sfu_cycles.pool must be finite and >= 0, got an int "
                     "beyond float range", id="sfu_cycles-beyond-float"),
    ])
    def test_bad_timing_config_exit_code(self, tmp_path, capsys, line,
                                         message):
        cfg = tmp_path / "timing.txt"
        cfg.write_text(line + "\n")
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main([
            "--model", str(netfile), "--mode", "timing",
            "--timing-config", str(cfg), "--output", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert status == 2
        assert err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, content, message", [
        ("--model", b"\xff\xfe{}", "network file {} is not UTF-8: "),
        ("--model", b"[" * 100_000 + b"]" * 100_000,
         "network file {} nests too deeply"),
        ("--timing-config", b"\xff\xfet_aap = 1\n",
         "timing config {} is not UTF-8: "),
    ], ids=["network-not-utf8", "network-too-deep", "timing-not-utf8"])
    def test_undecodable_input_file_exit_code(self, tmp_path, capsys, flag,
                                              content, message):
        # each ended in a traceback: UnicodeDecodeError, or RecursionError
        # from json.loads
        bad = tmp_path / "bad.in"
        bad.write_bytes(content)
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        model = bad if flag == "--model" else netfile
        argv = ["--model", str(model), "--mode", "both",
                "--output", str(tmp_path / "out")]
        if flag == "--timing-config":
            argv += [flag, str(bad)]
        status = main(argv)
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: " + message.format(bad)), err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_timing_config_flag(self, tmp_path):
        cfg = tmp_path / "timing.txt"
        cfg.write_text("t_aap = 97.5\nsfu_cycles.pool = 3\n")
        netfile = tmp_path / "toy.json"
        netfile.write_text(network_to_json(toy_net()))
        status = main([
            "--model", str(netfile), "--mode", "timing",
            "--timing-config", str(cfg), "--output", str(tmp_path / "o"),
        ])
        assert status == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        doubled = json.loads(
            (tmp_path / "o" / "report.json").read_text()
        )["per_layer"][0]["multiply_ns"]
        assert doubled == report["per_layer"][0]["aap_count"] * 97.5

    def test_resnet_residual_overhead_reported(self):
        net = preset("resnet18")
        _, report = run(
            net,
            RunConfig(mode="timing", rows=4096, cols=32768,
                      column_size=32768),
            None,
        )
        res = report["pipeline"]["residual_overhead_ns"]
        banks = len(net.layers) + len(net.residual_edges)
        reserved = plan_residual(net, banks)
        assert len(reserved) == 8
        # per skip: two inbound and one outbound row-transfer window, and
        # one (4n + 1)-AAP addition
        p, n = TimingParams(), net.precision
        want = sum(
            3 * math.ceil(r.transfer_bits / 32768) * p.t_rowclone_interbank
            + (4 * n + 1) * p.t_aap
            for r in reserved
        )
        assert res > 0
        assert res == pytest.approx(want, rel=1e-12)

    def test_huge_image_batch_is_cheap(self, tmp_path):
        t0 = time.perf_counter()
        status = main(["--preset", "vgg16", "--rows", "4096", "--cols",
                       "32768", "--mode", "timing", "--images", "100000000",
                       "--output", str(tmp_path)])
        assert status == 0
        assert time.perf_counter() - t0 < 10
        pipe = json.loads((tmp_path / "report.json").read_text())["pipeline"]
        assert pipe["images"] == 100_000_000
        assert pipe["total_ns"] == (pipe["fill_ns"] + 99_999_999
                                    * pipe["steady_state_per_image_ns"])


# Run flags the fuzz may set, besides --images.
_FUZZ_FLAGS = ("--rows", "--cols", "--column-size", "--subarrays-per-bank",
               "--banks", "--seed")


@st.composite
def _fuzzed_run(draw):
    """(mode, network document, flags) of one CLI run: a small network that
    mostly chains and maps, then a few fields or flags replaced by small
    ints, values of the wrong type, or (timing mode only) ints beyond the
    float64 range."""
    mode = draw(st.sampled_from(["timing", "functional", "both"]))
    small = st.integers(-1, 6)
    odd = small | st.sampled_from([None, True, 1.5, "3", []])
    big = small | st.sampled_from([64, 256, 4096])
    if mode == "timing":
        huge = st.integers(2**63, 10**320) | st.sampled_from(
            [10**300, 10**307, 10**308])
        odd, big = odd | huge, big | huge
    if draw(st.booleans()):
        first = {"kind": "conv", "H": draw(st.integers(1, 5)),
                 "W": draw(st.integers(1, 5)), "I": draw(st.integers(1, 3)),
                 "O": draw(st.sampled_from([1, 2, 4])),
                 "K": draw(st.integers(1, 3)), "L": draw(st.integers(1, 3)),
                 "p": draw(st.integers(0, 1)), "s": draw(st.integers(1, 2)),
                 "pool": draw(st.sampled_from([None, 1, 2]))}
    else:
        first = {"kind": "linear", "w1": draw(st.integers(1, 8)),
                 "w2": draw(st.sampled_from([1, 2, 4]))}
    layers = [first]
    if draw(st.booleans()):
        layers.append({"kind": "linear",
                       "w1": LayerSpec(**first).output_elements(),
                       "w2": draw(st.sampled_from([1, 2, 4]))})
    doc = {"name": "fuzz", "precision": draw(st.integers(1, 4)),
           "parallelism": [draw(st.sampled_from([1, 2])) for _ in layers],
           "layers": layers,
           "residual_edges": [[0, 1]] if len(layers) == 2
           and draw(st.booleans()) else []}
    flags = {}
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(
            ["name", "precision", "parallelism", "layer", "flag", "images"]))
        if target == "layer":
            layer = draw(st.sampled_from(layers))
            layer[draw(st.sampled_from(sorted(layer)))] = draw(odd)
        elif target == "parallelism":
            doc["parallelism"][draw(st.integers(0, len(layers) - 1))] = (
                draw(odd))
        elif target == "flag":
            flags[draw(st.sampled_from(_FUZZ_FLAGS))] = draw(big)
        elif target == "images":
            flags["--images"] = draw(big)
        else:
            doc[target] = draw(odd)
    return mode, doc, flags


class TestFuzzedRuns:
    @given(run_case=_fuzzed_run())
    @example(run_case=("timing", {"name": "big", "precision": 4, "layers": [
        {"kind": "linear", "w1": 1, "w2": 10**308}]}, {}))
    @example(run_case=("timing", {"name": "wide", "precision": 1, "layers": [
        {"kind": "linear", "w1": 1, "w2": 1}]}, {"--cols": 2**63}))
    @settings(max_examples=100, deadline=None)
    def test_every_run_exits_0_or_2(self, tmp_path_factory, run_case):
        # exit 1 is an oracle or AAP mismatch, so on these inputs a bug;
        # exit 2 is one error line and no reports
        mode, doc, flags = run_case
        base = tmp_path_factory.mktemp("fuzz")
        (base / "net.json").write_text(json.dumps(doc))
        out = base / "out"
        argv = ["--model", str(base / "net.json"), "--mode", mode,
                "--output", str(out)]
        for flag, value in flags.items():
            argv += [flag, str(value)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = main(argv)
        err = stderr.getvalue()
        if status == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()
            return
        assert status == 0, (stdout.getvalue(), err)
        assert sorted(p.name for p in out.iterdir()) == [
            "plan.txt", "report.json", "report.txt"]

        def not_finite(name):
            raise AssertionError(f"report.json holds {name}")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=not_finite)
        if mode != "timing":
            assert report["functional"]["passed"]
