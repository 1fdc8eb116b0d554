"""Shared fixtures for the IANUS reproduction test suite."""

from __future__ import annotations

import functools

import pytest


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Keep the persistent pass-cost cache out of ``~/.cache`` during tests.

    Every test gets a private ``REPRO_CACHE_DIR`` so CLI invocations that
    enable the disk cache by default neither read a stale warm cache nor
    litter the user's real cache directory.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))

from repro.config import SystemConfig
from repro.core.system import IanusSystem
from repro.experiments.registry import SWEEPS, run_experiment
from repro.models import GPT2_CONFIGS, Workload
from repro.models.workload import Stage, StagePass
from repro.perf import run_many
from repro.scheduling.durations import DurationModel


@pytest.fixture(scope="session")
def experiment_result():
    """``experiment_result(id)``: a registered experiment's fast-mode result.

    Each experiment is evaluated at most once per session, on first use, so
    every test of an experiment's rows or claims reads the same run.  The
    results are shared: read them, never mutate them.
    """
    return functools.cache(functools.partial(run_experiment, fast=True))


@pytest.fixture(scope="session")
def sharded_run():
    """One cell-sharded ``run_many`` over every experiment with a sweep grid."""
    return run_many(tuple(SWEEPS), fast=True, jobs=2)


@pytest.fixture(scope="session")
def ianus_config() -> SystemConfig:
    return SystemConfig.ianus()


@pytest.fixture(scope="session")
def npu_mem_config() -> SystemConfig:
    return SystemConfig.npu_mem()


@pytest.fixture(scope="session")
def durations(ianus_config) -> DurationModel:
    return DurationModel(ianus_config)


@pytest.fixture(scope="session")
def ianus_system(ianus_config) -> IanusSystem:
    return IanusSystem(ianus_config)


@pytest.fixture(scope="session")
def npu_mem_system(npu_mem_config) -> IanusSystem:
    return IanusSystem(npu_mem_config)


@pytest.fixture(scope="session")
def gpt2_xl():
    return GPT2_CONFIGS["xl"]


@pytest.fixture(scope="session")
def gpt2_m():
    return GPT2_CONFIGS["m"]


@pytest.fixture
def generation_pass() -> StagePass:
    return StagePass(stage=Stage.GENERATION, num_tokens=1, kv_length=192)


@pytest.fixture
def summarization_pass() -> StagePass:
    return StagePass(stage=Stage.SUMMARIZATION, num_tokens=128, kv_length=128)


@pytest.fixture
def small_workload() -> Workload:
    return Workload(input_tokens=64, output_tokens=8)
