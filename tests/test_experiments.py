"""Every registered paper-reproduction experiment, checked from one evaluation.

Each test reads its experiment from the session-scoped ``experiment_result``
fixture (``tests/conftest.py``), which evaluates every experiment once in
fast mode; nothing here re-runs one.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment

#: The boolean ``result.data`` claims of each experiment, every one of which
#: must hold.  Experiments not listed carry none.
CLAIMS = {
    "serving": {
        "monotone", "dominates", "srpt_wins", "priority_protects",
        "kv_pressure", "valid",
    },
    "cluster": {
        "differential", "kv_beats_rr", "admits_at_least",
        "admits_strictly_more", "valid",
    },
    "chaos": {
        "differential", "nothing_lost", "failover_loses_nothing",
        "failover_p99_bounded", "failover_deterministic",
        "autoscaler_beats_fixed_overprovisioned", "valid",
    },
    "kv-hierarchy": {
        "sharing_admits_more", "slow_link_loses", "engines_agree", "valid",
    },
    "multi-tenant": {"model_aware_wins", "engines_agree", "valid"},
}


class TestRegistry:
    def test_registry_covers_every_table_and_figure(self):
        expected = {
            "table1", "table2", "table3", "table4",
            "fig02", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig17", "fig18", "cost", "prototype",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_all_signature(self):
        assert callable(run_all)


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment_produces_well_formed_result(experiment_result, experiment_id):
    """Rows fit the headers, the text renders, and every claim is pinned and holds."""
    result = experiment_result(experiment_id)
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{experiment_id} produced no rows"
    assert all(len(row) == len(result.headers) for row in result.rows)
    assert result.measured_claims
    text = result.to_text()
    assert result.title in text
    assert "Measured" in text
    claims = {key: value for key, value in result.data.items() if isinstance(value, bool)}
    assert set(claims) == CLAIMS.get(experiment_id, set())
    assert [key for key, holds in claims.items() if not holds] == []


class TestSelectedExperimentOutcomes:
    def test_fig08_overall_speedup_in_range(self, experiment_result):
        result = experiment_result("fig08")
        assert 3.0 <= result.data["overall_average_speedup"] <= 12.0

    def test_fig09_dfx_loses_summarization(self, experiment_result):
        result = experiment_result("fig09")
        assert result.data["per_config"]["(128,1)"]["dfx"] > 10 * (
            result.data["per_config"]["(128,1)"]["ianus"]
        )

    def test_fig10_generation_speedups_in_range(self, experiment_result):
        result = experiment_result("fig10")
        speedups = result.data["generation_speedups"]
        assert 2.5 <= speedups["xl"] <= 8.0
        assert 2.5 <= speedups["l"] <= 8.0

    def test_fig11_energy_gains_in_range(self, experiment_result):
        result = experiment_result("fig11")
        assert all(2.0 <= gain <= 8.0 for gain in result.data["efficiency_gains"].values())

    def test_fig12_algorithm1_never_materially_worse_than_best_static(self, experiment_result):
        result = experiment_result("fig12")
        latencies = result.data["latencies"]
        for key in ("m", "l", "xl", "2.5b"):
            for tokens in (4, 8, 16):
                adaptive = latencies[f"{key}/{tokens}/Algorithm 1"]
                best_static = min(
                    latencies[f"{key}/{tokens}/Matrix unit"],
                    latencies[f"{key}/{tokens}/PIM"],
                )
                assert adaptive <= best_static * 1.10

    def test_fig13_ianus_is_best_configuration(self, experiment_result):
        result = experiment_result("fig13")
        for model_speedups in result.data["speedups"].values():
            best = max(model_speedups.values())
            assert model_speedups["unified / QKT,SV on MU / scheduled (IANUS)"] == pytest.approx(
                best, rel=0.01
            )

    def test_fig14_throughput_ratio_ordering(self, experiment_result):
        result = experiment_result("fig14")
        ratios = result.data["throughput_ratios"]
        assert ratios["base"] > ratios["3.9b"]

    def test_fig15_pim_chips_only_matter_for_generation(self, experiment_result):
        result = experiment_result("fig15")
        slowdowns = result.data["slowdowns"]["pims"]
        assert slowdowns["1/summarization-only (256,1)"] < 1.2
        assert slowdowns["1/generation-dominant (256,512)"] > 1.4

    def test_fig17_speedup_grows_with_model(self, experiment_result):
        result = experiment_result("fig17")
        speedups = result.data["average_speedups"]
        assert speedups["6.7b"] <= speedups["13b"] <= speedups["30b"]

    def test_fig18_strong_scaling_monotone(self, experiment_result):
        result = experiment_result("fig18")
        tokens = result.data["tokens_per_second"]
        assert tokens[2] < tokens[4] < tokens[8]

    def test_cost_analysis_beats_gpu(self, experiment_result):
        result = experiment_result("cost")
        assert all(v > 1.0 for v in result.data["improvements"].values())

    def test_prototype_validation_matches_reference(self, experiment_result):
        result = experiment_result("prototype")
        assert result.data["max_relative_perplexity_gap"] < 0.05

    def test_ablation_overlap_gain_above_one(self, experiment_result):
        result = experiment_result("ablation-overlap")
        assert all(gain >= 1.0 for gain in result.data["gains"].values())

    def test_ablation_fast_mode_error_small(self, experiment_result):
        result = experiment_result("ablation-fast-mode")
        assert all(error < 0.05 for error in result.data["errors"].values())
