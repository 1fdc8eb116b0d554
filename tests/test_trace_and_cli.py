"""Tests for the timeline Gantt chart and the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.trace import GANTT_WIDTH, render_gantt
from repro.cli import build_parser, main
from repro.compiler import Compiler
from repro.config import SystemConfig
from repro.ir import OpKind, Unit
from repro.models import GPT2_CONFIGS
from repro.models.workload import Stage, StagePass
from repro.scheduling import ActivityStats, EventEngine, ScheduledCommand, Timeline


@pytest.fixture(scope="module")
def generation_timeline() -> Timeline:
    config = SystemConfig.ianus()
    stream = Compiler(config).compile_block(
        GPT2_CONFIGS["m"], StagePass(Stage.GENERATION, 1, 192)
    ).stream
    return EventEngine(config).simulate(stream)


class TestTraceExport:
    def test_gantt_has_one_lane_per_active_unit(self, generation_timeline):
        chart = render_gantt(generation_timeline)
        assert "matrix unit" in chart
        assert "pim" in chart
        assert "#" in chart

    def test_gantt_spans_the_chart_width(self, generation_timeline):
        header, *lanes = render_gantt(generation_timeline).splitlines()
        assert len(header) == GANTT_WIDTH
        for lane in lanes:
            assert "#" in lane[:GANTT_WIDTH]
            assert lane[GANTT_WIDTH:].startswith("  (")
            assert lane.endswith(" us busy)")

    def test_gantt_of_empty_timeline(self):
        empty = Timeline(commands=[], stats=ActivityStats())
        assert "empty" in render_gantt(empty)

    @pytest.mark.parametrize("makespan", [50e-6, 2.69e-3, 1.23])
    def test_gantt_prints_whole_numbers(self, makespan):
        """No label is cut, however many digits the makespan has."""
        timeline = Timeline([
            ScheduledCommand(0, Unit.MATRIX_UNIT, OpKind.FC_QKV, "", 0.0, makespan, 0.0, 0),
            ScheduledCommand(1, Unit.PIM, OpKind.PIM_GEMV, "", 0.0, makespan / 3, 0.0, 0),
        ])
        header, *lanes = render_gantt(timeline).splitlines()
        assert header.endswith(f" {makespan * 1e6:,.1f} us")
        assert len(lanes) == 2
        assert all(lane.endswith(" us busy)") for lane in lanes)


#: Every numeric ``repro serve`` flag: (its flag and keyword spellings,
#: finite out-of-range values, one in-range value).  Every flag also
#: rejects the non-finite values; ``--flag=value`` keeps argparse from
#: reading ``-inf`` as an option.
SERVE_NUMERIC_FLAGS = {
    "--requests": (("--requests",), ("0", "-3"), "3"),
    "--replicas": (("--replicas", "num_replicas"), ("0", "-2"), "2"),
    "--rate": (("--rate", "rate_rps"), ("0", "-1.5"), "5"),
    "--load": (("--load",), ("0", "-0.5"), "0.8"),
    "--max-batch": (("--max-batch", "max_batch"), ("0", "-1"), "2"),
    "--batch-share": (("--batch-share", "batch_share"), ("-0.5", "1.5"), "0.5"),
    "--kv-fraction": (("--kv-fraction", "kv_fraction"), ("0", "-0.5", "1.5"), "0.5"),
    "--page-tokens": (("--page-tokens", "page_tokens"), ("0", "-16"), "8"),
    "--chunk-tokens": (("--chunk-tokens", "chunk_tokens"), ("-1", "-64"), "32"),
    "--prefix-share": (("--prefix-share", "prefix_share"), ("-0.1", "1.5"), "0.5"),
    "--prefix-tokens": (("--prefix-tokens", "prefix_tokens"), ("0", "-8"), "8"),
    "--prefix-groups": (("--prefix-groups", "prefix_groups"), ("0", "-2"), "2"),
    "--link-gbps": (("--link-gbps", "link_gbps"), ("0", "-8"), "8"),
    "--classes": (("--classes", "num_classes"), ("0", "-2"), "2"),
    "--devices": (("--devices", "num_devices"), ("0", "-1"), "2"),
}


def _run_cli(argv) -> "tuple[int, str]":
    """Exit code and standard error of one in-process CLI run (argparse
    rejects an unparseable value by raising ``SystemExit``)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, err.getvalue()


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "gpt2-xl" in output
        assert "fig08" in output
        assert "ianus" in output

    def test_simulate_command_default_backend(self, capsys):
        code = main([
            "simulate", "--model", "gpt2-m", "--input-tokens", "32",
            "--output-tokens", "4",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "total" in output
        assert "ms/token" in output

    @pytest.mark.parametrize(
        "backend", ["ianus", "npu-mem", "ianus-x2", "partitioned-x2"]
    )
    def test_simulate_with_gantt(self, backend, capsys):
        code = main([
            "simulate", "--model", "gpt2-m", "--backend", backend,
            "--input-tokens", "16", "--output-tokens", "2", "--gantt",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "generation stage, KV length 17" in output
        assert "matrix unit" in output

    @pytest.mark.parametrize("backend", ["a100", "dfx"])
    def test_gantt_rejected_on_analytical_backends(self, backend, capsys):
        code = main([
            "simulate", "--model", "gpt2-m", "--backend", backend, "--gantt",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "--gantt" in captured.err and "ianus" in captured.err
        assert "total" not in captured.out

    @pytest.mark.parametrize(
        "output_tokens, header, never_priced",
        [
            # Workload(32, 4) prices generation passes at KV 33-35.
            ("4", "generation stage, KV length 35", "KV length 36"),
            # One output token: the summarization pass is the only pass.
            ("1", "summarization stage, KV length 32", "generation stage"),
        ],
    )
    def test_gantt_charts_the_last_pass_priced(
        self, output_tokens, header, never_priced, capsys
    ):
        code = main([
            "simulate", "--model", "gpt2-m", "--input-tokens", "32",
            "--output-tokens", output_tokens, "--gantt",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert header in output
        assert never_priced not in output

    @pytest.mark.parametrize("backend", ["npu-mem", "a100", "dfx"])
    def test_simulate_other_backends(self, backend, capsys):
        code = main([
            "simulate", "--model", "gpt2-m", "--backend", backend,
            "--input-tokens", "32", "--output-tokens", "2",
        ])
        assert code == 0
        assert "total" in capsys.readouterr().out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_invalid_backend_rejected(self, capsys):
        # The parser accepts any backend string (multi-device names are
        # open-ended: ianus-xN); the command rejects unknown ones with the
        # full list of known names, multi-device spellings included.
        assert main(["simulate", "--backend", "tpu"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend" in err
        assert "ianus-x2" in err

    def test_list_includes_sweeps_and_traces(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "sweeps (shardable" in output
        assert "serving" in output and "cells" in output
        assert "gpt2-paper" in output

    def test_serve_command(self, capsys):
        code = main([
            "serve", "--model", "gpt2-m", "--backend", "ianus",
            "--policy", "interleaved", "--trace", "chatbot",
            "--rate", "2.0", "--requests", "4", "--no-disk-cache",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "throughput" in output
        assert "TTFT" in output
        assert "pass-cost cache" in output

    def test_serve_writes_metrics_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        code = main([
            "serve", "--model", "gpt2-m", "--backend", "a100",
            "--policy", "fcfs", "--trace", "summarize", "--load", "0.5",
            "--requests", "3", "--per-request", "--no-disk-cache",
            "--json", str(path),
        ])
        assert code == 0
        document = json.loads(path.read_text())
        assert document["policy"] == "fcfs"
        assert len(document["per_request"]) == 3
        assert "nominal capacity" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--requests", "0", "--no-disk-cache"], "--requests"),
            (["serve", "--rate", "-1", "--no-disk-cache"], "rate_rps"),
            (["serve", "--load", "0", "--no-disk-cache"], "--load"),
            (["serve", "--max-batch", "0", "--no-disk-cache"], "max_batch"),
            (["serve", "--batch-share", "1.5", "--no-disk-cache"], "batch_share"),
            (["serve", "--trace", "nope", "--no-disk-cache"], "unknown trace"),
            (["serve", "--model", "nope", "--no-disk-cache"], "unknown model"),
            (
                ["serve", "--model", "bert-base", "--trace", "chatbot",
                 "--rate", "2.0", "--requests", "2", "--no-disk-cache"],
                "not a decoder",
            ),
            (["serve", "--kv-fraction", "0", "--no-disk-cache"], "kv_fraction"),
            (
                ["serve", "--kv-fraction", "1.5", "--no-disk-cache"],
                "kv_fraction must be in (0, 1]",
            ),
            (["serve", "--page-tokens", "0", "--no-disk-cache"], "page_tokens"),
            (["serve", "--prefix-share", "1.2", "--no-disk-cache"], "prefix_share"),
            (["serve", "--prefix-share", "-0.1", "--no-disk-cache"], "[0, 1]"),
            (["serve", "--prefix-tokens", "0", "--no-disk-cache"], "prefix_tokens"),
            (["serve", "--prefix-groups", "0", "--no-disk-cache"], "prefix_groups"),
            (["serve", "--swap", "--link-gbps", "0", "--no-disk-cache"], "link_gbps"),
            (
                ["serve", "--swap", "--link-gbps", "nan", "--no-disk-cache"],
                "positive finite",
            ),
            (
                ["serve", "--swap", "--link-gbps", "inf", "--no-disk-cache"],
                "positive finite",
            ),
            (
                ["serve", "--swap", "--admission", "worst-case", "--no-disk-cache"],
                "optimistic admission",
            ),
            (["serve", "--slo", "nan", "--no-disk-cache"], "slo_targets"),
            (["serve", "--rate", "nan", "--no-disk-cache"], "rate_rps"),
            (["serve", "--rate", "inf", "--no-disk-cache"], "rate_rps"),
            (["serve", "--load", "nan", "--no-disk-cache"], "--load"),
            (
                ["serve", "--prefix-share", "0.5", "--prefix-tokens", "100000",
                 "--no-disk-cache"],
                "prefix_tokens must be in",
            ),
            (
                ["serve", "--backend", "dfx", "--devices", "4", "--no-disk-cache"],
                "num_devices=4",
            ),
        ],
    )
    def test_serve_rejects_invalid_arguments(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_serve_reports_every_replica_down_without_a_traceback(self):
        # An autoscaled fleet may lose its last replica; a request that
        # arrives before a replacement is spawned has nowhere to go.
        code, err = _run_cli([
            "serve", "--replicas", "1", "--autoscaler", "queue-depth",
            "--failures", "single:at-s=0.5", "--requests", "16", "--no-disk-cache",
        ])
        assert code == 2, err
        assert "every replica is down" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("replicas", ("1", "2"))
    def test_serve_reports_a_wedged_pool_without_a_traceback(self, replicas):
        # Optimistic admission without preemption wedges a 5% pool mid-run;
        # the simulator stops with a ServingStall naming the way out.
        code, err = _run_cli([
            "serve", "--admission", "optimistic", "--no-preempt",
            "--kv-fraction", "0.05", "--replicas", replicas, "--no-disk-cache",
        ])
        assert code == 2, err
        assert "preempt" in err
        assert "Traceback" not in err

    def test_serve_keeps_the_traceback_of_a_simulator_defect(self, monkeypatch):
        # Only the documented stops (ServingStall) read as a usage error; any
        # other RuntimeError mid-run is a defect and must surface as one.
        from repro.serving import ServingSimulator

        def broken(self, trace, record_events=False):
            raise RuntimeError("internal consistency check failed")

        monkeypatch.setattr(ServingSimulator, "simulate", broken)
        with pytest.raises(RuntimeError, match="internal consistency"):
            _run_cli(["serve", "--requests", "4", "--no-disk-cache"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--model", "nope"], "unknown model 'nope'"),
            (["simulate", "--input-tokens", "0"], "input_tokens must be positive"),
            (
                ["simulate", "--output-tokens", "-1"],
                "output_tokens must be non-negative",
            ),
            # The analytical baselines model one device.
            (
                ["simulate", "--backend", "a100", "--devices", "-1"],
                "num_devices=-1 is not supported",
            ),
            # GPT-13B needs ~24.6 GiB: more than one IANUS device holds.
            (["simulate", "--model", "gpt-13b"], "gpt-13b needs"),
        ],
    )
    def test_simulate_rejects_invalid_arguments(self, argv, message, capsys):
        # The constructors' own messages, printed without a traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_simulate_a_model_that_fits_only_across_devices(self, capsys):
        assert main([
            "simulate", "--model", "gpt-13b", "--backend", "ianus-x4",
            "--input-tokens", "32", "--output-tokens", "2",
        ]) == 0
        assert "total" in capsys.readouterr().out

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from([
            (flag, value)
            for flag, (_, bad_values, _) in SERVE_NUMERIC_FLAGS.items()
            for value in (*bad_values, "nan", "inf", "-inf")
        ]),
        policy=st.sampled_from(("fcfs", "interleaved", "srpt", "priority")),
        backend=st.sampled_from(("ianus", "a100")),
    )
    @example(case=("--devices", "0"), policy="fcfs", backend="a100")
    def test_numeric_serve_flags_reject_out_of_range_values(
        self, case, policy, backend
    ):
        # Each numeric flag is validated in one place (the CLI, a
        # constructor, the trace generator or argparse's int parsing);
        # wherever that is, an out-of-range value exits 2 naming the knob.
        flag, bad = case
        names, _, good = SERVE_NUMERIC_FLAGS[flag]
        if flag == "--devices" and backend == "a100":
            good = "1"  # the analytical baselines model exactly one device
        base = [
            "serve", "--model", "gpt2-m", "--requests", "4", "--no-disk-cache",
            "--policy", policy, "--backend", backend,
        ]
        code, err = _run_cli([*base, f"{flag}={bad}"])
        assert code == 2, err
        assert "Traceback" not in err
        assert any(name in err for name in names), err
        code, err = _run_cli([*base, f"{flag}={good}"])
        assert code == 0, err
