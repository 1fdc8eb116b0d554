"""Tests for timeline traces (Gantt/export) and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.analysis.trace import overlap_matrix, render_gantt, timeline_to_records
from repro.cli import build_parser, main
from repro.compiler import Compiler
from repro.config import SystemConfig
from repro.models import GPT2_CONFIGS
from repro.models.workload import Stage, StagePass
from repro.scheduling import EventEngine, Timeline


@pytest.fixture(scope="module")
def generation_timeline() -> Timeline:
    config = SystemConfig.ianus()
    stream = Compiler(config).compile_block(
        GPT2_CONFIGS["m"], StagePass(Stage.GENERATION, 1, 192)
    ).stream
    return EventEngine(config).simulate(stream)


class TestTraceExport:
    def test_records_cover_every_command(self, generation_timeline):
        records = timeline_to_records(generation_timeline)
        assert len(records) == len(generation_timeline.commands)
        first = records[0]
        assert {"cid", "unit", "kind", "tag", "start_us", "end_us", "duration_us"} <= set(first)

    def test_records_are_json_serialisable(self, generation_timeline):
        import json

        encoded = json.dumps(timeline_to_records(generation_timeline))
        assert isinstance(encoded, str) and len(encoded) > 100

    def test_gantt_has_one_lane_per_active_unit(self, generation_timeline):
        chart = render_gantt(generation_timeline, width=100)
        assert "matrix unit" in chart
        assert "pim" in chart
        assert "#" in chart

    def test_gantt_rejects_tiny_width(self, generation_timeline):
        with pytest.raises(ValueError):
            render_gantt(generation_timeline, width=10)

    def test_gantt_of_empty_timeline(self):
        from repro.scheduling.events import ActivityStats

        empty = Timeline(commands=[], stats=ActivityStats())
        assert "empty" in render_gantt(empty)

    def test_overlap_matrix_shows_pim_npu_overlap(self, generation_timeline):
        matrix = overlap_matrix(generation_timeline)
        pim_pairs = {pair: value for pair, value in matrix.items() if "pim" in pair}
        assert pim_pairs
        assert any(value > 0 for value in pim_pairs.values())

    def test_overlap_matrix_symmetric_by_construction(self, generation_timeline):
        matrix = overlap_matrix(generation_timeline)
        assert all(first < second for (first, second) in matrix)


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

    def test_simulate_with_gantt(self, capsys):
        code = main([
            "simulate", "--model", "gpt2-m", "--input-tokens", "16",
            "--output-tokens", "2", "--gantt",
        ])
        assert code == 0
        assert "matrix unit" in capsys.readouterr().out

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
            (["serve", "--rate", "-1", "--no-disk-cache"], "--rate"),
            (["serve", "--load", "0", "--no-disk-cache"], "--load"),
            (["serve", "--max-batch", "0", "--no-disk-cache"], "--max-batch"),
            (["serve", "--batch-share", "1.5", "--no-disk-cache"], "--batch-share"),
            (["serve", "--trace", "nope", "--no-disk-cache"], "unknown trace"),
            (["serve", "--model", "nope", "--no-disk-cache"], "unknown model"),
            (
                ["serve", "--model", "bert-base", "--trace", "chatbot",
                 "--rate", "2.0", "--requests", "2", "--no-disk-cache"],
                "not a decoder",
            ),
            (["serve", "--kv-fraction", "0", "--no-disk-cache"], "--kv-fraction"),
            (["serve", "--kv-fraction", "1.5", "--no-disk-cache"], "(0, 1]"),
            (["serve", "--page-tokens", "0", "--no-disk-cache"], "--page-tokens"),
            (["serve", "--prefix-share", "1.2", "--no-disk-cache"], "--prefix-share"),
            (["serve", "--prefix-share", "-0.1", "--no-disk-cache"], "[0, 1]"),
            (["serve", "--prefix-tokens", "0", "--no-disk-cache"], "--prefix-tokens"),
            (["serve", "--prefix-groups", "0", "--no-disk-cache"], "--prefix-groups"),
            (["serve", "--swap", "--link-gbps", "0", "--no-disk-cache"], "--link-gbps"),
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
            (["serve", "--rate", "nan", "--no-disk-cache"], "--rate"),
            (["serve", "--rate", "inf", "--no-disk-cache"], "--rate"),
            (["serve", "--load", "nan", "--no-disk-cache"], "--load"),
            (
                ["serve", "--prefix-share", "0.5", "--prefix-tokens", "100000",
                 "--no-disk-cache"],
                "prefix_tokens must be in",
            ),
        ],
    )
    def test_serve_rejects_invalid_arguments(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--model", "nope"], "unknown model 'nope'"),
            (["simulate", "--input-tokens", "0"], "input_tokens must be positive"),
            (
                ["simulate", "--output-tokens", "-1"],
                "output_tokens must be non-negative",
            ),
        ],
    )
    def test_simulate_rejects_invalid_arguments(self, argv, message, capsys):
        # The constructors' own messages, printed without a traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err
