"""Tests for the sweep-grid abstraction and cell-level sharding.

Covers the :class:`repro.experiments.base.Sweep` contract (unique cell ids,
missing-output detection, ``execute`` == ``run``), the registry's sweep
index, the runner's cell-sharded pool path (byte-identical rows vs serial,
per-cell timings and cache counters in the report), and the Fig. 8 fast-mode
trim.  The serial side of each comparison is the session's one fast-mode
evaluation (the ``experiment_result`` fixture), and the sharded side the
session's one ``sharded_run``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.base import Cell, ExperimentResult, Sweep
from repro.experiments.registry import SWEEPS, get_sweep
from repro.perf import run_many, write_report

#: Every experiment ported to the sweep abstraction (PR 2 + PR 3).
PORTED = (
    "fig08", "fig09", "fig11", "fig13", "fig14", "fig15", "fig17", "fig18",
    "serving", "cluster", "chaos", "kv-hierarchy", "multi-tenant",
    "ablation-overlap", "ablation-address-mapping", "ablation-fast-mode",
)


def _toy_run_cell(params: dict) -> dict:
    return {"double": params["value"] * 2}


def _toy_reduce(grid: Sweep, outputs: dict) -> ExperimentResult:
    rows = [[cell.cell_id, outputs[cell.cell_id]["double"]] for cell in grid.cells]
    return ExperimentResult(
        experiment_id=grid.experiment_id,
        title="toy",
        headers=["cell", "double"],
        rows=rows,
    )


def _toy_sweep() -> Sweep:
    cells = [Cell(f"c{i}", {"value": i}) for i in range(4)]
    return Sweep("toy", cells, _toy_run_cell, _toy_reduce)


class TestSweepContract:
    def test_execute_runs_cells_in_declared_order(self):
        result = _toy_sweep().execute()
        assert result.rows == [["c0", 0], ["c1", 2], ["c2", 4], ["c3", 6]]

    def test_duplicate_cell_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate cell id"):
            Sweep("dup", [Cell("a"), Cell("a")], _toy_run_cell, _toy_reduce)

    def test_missing_cell_output_rejected(self):
        grid = _toy_sweep()
        with pytest.raises(KeyError, match="missing cell output"):
            grid.reduce({"c0": {"double": 0}})

    def test_unknown_cell_id_rejected(self):
        with pytest.raises(KeyError, match="unknown cell"):
            _toy_sweep().run_cell_by_id("nope")

    def test_reduce_ignores_extra_outputs(self):
        grid = _toy_sweep()
        outputs = {cell.cell_id: _toy_run_cell(cell.params) for cell in grid.cells}
        outputs["stray"] = {"double": -1}
        assert grid.reduce(outputs).rows[0] == ["c0", 0]


class TestRegistrySweeps:
    @pytest.mark.parametrize("experiment_id", PORTED)
    def test_ported_experiments_declare_sweeps(self, experiment_id):
        grid = get_sweep(experiment_id, fast=True)
        assert grid is not None
        assert grid.experiment_id == experiment_id
        assert len(grid.cells) >= 3
        assert set(SWEEPS) == set(PORTED)

    def test_unported_experiment_has_no_sweep(self):
        assert get_sweep("table1", fast=True) is None

    @pytest.mark.parametrize("experiment_id", PORTED)
    def test_sweep_execute_equals_run(self, experiment_result, experiment_id):
        via_sweep = get_sweep(experiment_id, fast=True).execute()
        via_run = experiment_result(experiment_id)
        assert via_sweep.rows == via_run.rows
        assert via_sweep.measured_claims == via_run.measured_claims

    def test_fig08_grid_is_the_paper_grid(self):
        grid = get_sweep("fig08", fast=True)
        assert len(grid.cells) == 48  # 4 models x 3 inputs x 4 outputs


class TestFig08FastMode:
    def test_fast_trims_the_output_axis(self):
        from repro.experiments import fig08_gpt2_latency as fig08

        fast_grid = get_sweep("fig08", fast=True)
        full_grid = get_sweep("fig08", fast=False)
        assert len(full_grid.cells) > len(fast_grid.cells)
        fast_outputs = {cell.params["output"] for cell in fast_grid.cells}
        full_outputs = {cell.params["output"] for cell in full_grid.cells}
        assert fast_outputs == set(fig08.OUTPUT_SIZES)
        assert full_outputs == set(fig08.FULL_OUTPUT_SIZES)
        assert fast_outputs < full_outputs  # fast is a strict trim of full


class TestShardedEquivalence:
    def test_sharded_rows_identical_to_serial_for_every_ported_experiment(
        self, experiment_result, sharded_run
    ):
        for experiment_id in PORTED:
            sharded = sharded_run.results[experiment_id]
            serial = experiment_result(experiment_id)
            assert sharded.rows == serial.rows, experiment_id
            assert sharded.measured_claims == serial.measured_claims
            assert sharded.paper_claims == serial.paper_claims
        assert sharded_run.report.sharded
        assert all(t.ok for t in sharded_run.report.timings)

    def test_sharded_report_carries_cell_timings(self, sharded_run):
        (timing,) = [
            t for t in sharded_run.report.timings if t.experiment_id == "fig09"
        ]
        assert timing.cells == len(get_sweep("fig09", fast=True).cells)
        assert len(timing.cell_seconds) == timing.cells
        assert all(s >= 0 for s in timing.cell_seconds)
        assert timing.seconds == pytest.approx(sum(timing.cell_seconds))

    def test_sharded_mixes_sweep_and_plain_experiments(self):
        outcome = run_many(["table1", "fig18"], fast=True, jobs=2)
        assert set(outcome.results) == {"table1", "fig18"}
        by_id = {t.experiment_id: t for t in outcome.report.timings}
        assert by_id["table1"].cells == 1
        assert by_id["fig18"].cells == 3

    def test_failing_cell_reported_not_raised(self, monkeypatch):
        import repro.experiments.registry as registry

        def broken_sweep(fast=True):
            return Sweep(
                "broken",
                [Cell("ok", {"value": 1}), Cell("boom", {"value": -1})],
                _failing_run_cell,
                _toy_reduce,
            )

        monkeypatch.setitem(registry.EXPERIMENTS, "broken", ("synthetic", lambda fast=True: None))
        monkeypatch.setitem(registry.SWEEPS, "broken", broken_sweep)
        outcome = run_many(["broken", "table1"], fast=True, jobs=2)
        statuses = {t.experiment_id: t for t in outcome.report.timings}
        assert not statuses["broken"].ok
        assert "boom" in statuses["broken"].error
        assert statuses["table1"].ok
        assert "broken" not in outcome.results


def _failing_run_cell(params: dict) -> dict:
    if params["value"] < 0:
        raise RuntimeError("synthetic cell failure")
    return {"double": params["value"] * 2}


class TestReportSchema:
    def test_cell_stats_land_in_json(self, tmp_path):
        outcome = run_many(["fig18"], fast=True, jobs=2)
        path = write_report(outcome.report, tmp_path / "BENCH_cells.json")
        document = json.loads(path.read_text())
        (entry,) = document["benchmarks"]
        assert entry["extra_info"]["cells"] == 3
        assert entry["extra_info"]["sharded"] is True
        assert entry["stats"]["rounds"] == 3
        assert entry["stats"]["total"] == pytest.approx(
            sum(outcome.report.timings[0].cell_seconds)
        )
        assert "cache_stats" in document

    def test_cache_stats_aggregated_across_workers(self, sharded_run):
        stats = sharded_run.report.cache_stats
        assert stats["pass"]["misses"] + stats["pass"]["hits"] > 0
        assert stats["baseline"]["misses"] + stats["baseline"]["hits"] > 0

    def test_serial_cache_stats_include_baseline(self):
        outcome = run_many(["fig09"], fast=True, jobs=1)
        stats = outcome.report.cache_stats
        assert set(stats) == {"pass", "baseline"}
        summary = outcome.report.cache_summary()
        assert "pass-cost cache" in summary and "baseline cache" in summary
