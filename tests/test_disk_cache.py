"""Tests for the persistent (on-disk) pass-cost cache layer.

Covers the robustness contract of :class:`repro.perf.cache.DiskCacheFile`
and :class:`repro.perf.cache.PersistentPassCostCache`: schema-version
invalidation, corrupted-file fallback, atomic + lock-serialised concurrent
flushes, the ``REPRO_CACHE_DIR`` override, and the warm == cold equivalence
of experiment results.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.perf.cache import (
    CACHE_SCHEMA_VERSION,
    DiskCacheFile,
    PassCostCache,
    PersistentPassCostCache,
    default_cache_dir,
    flush_disk_caches,
    global_baseline_cache,
    global_decode_table_cache,
    global_pass_cache,
    install_disk_caches,
    set_global_baseline_cache,
    set_global_decode_table_cache,
    set_global_pass_cache,
)


@pytest.fixture(autouse=True)
def _restore_globals():
    """Put back the three process-wide caches that ``install_disk_caches``
    (called directly and through the CLI) replaces."""
    previous = (
        global_pass_cache(), global_baseline_cache(), global_decode_table_cache()
    )
    yield
    set_global_pass_cache(previous[0])
    set_global_baseline_cache(previous[1])
    set_global_decode_table_cache(previous[2])


@pytest.fixture
def disk(tmp_path) -> DiskCacheFile:
    return DiskCacheFile(tmp_path)


class TestDiskCacheFile:
    def test_missing_file_loads_empty(self, disk):
        assert disk.load_sections() == {}

    def test_roundtrip(self, disk):
        disk.write_sections({"ianus": {("k",): 1.5}})
        assert disk.load_sections() == {"ianus": {("k",): 1.5}}

    def test_version_mismatch_loads_empty(self, disk):
        payload = {"schema": CACHE_SCHEMA_VERSION + 1, "sections": {"ianus": {"k": 1}}}
        disk.path.parent.mkdir(parents=True, exist_ok=True)
        disk.path.write_bytes(pickle.dumps(payload))
        assert disk.load_sections() == {}

    @pytest.mark.parametrize(
        "corrupt_bytes",
        [
            b"",                                   # empty file
            b"not a pickle at all",                # unpicklable bytes
            pickle.dumps(["wrong", "type"]),       # picklable, wrong payload type
            pickle.dumps({"schema": CACHE_SCHEMA_VERSION, "sections": "nope"}),
        ],
    )
    def test_corruption_loads_empty(self, disk, corrupt_bytes):
        disk.path.parent.mkdir(parents=True, exist_ok=True)
        disk.path.write_bytes(corrupt_bytes)
        assert disk.load_sections() == {}

    def test_truncated_pickle_loads_empty(self, disk):
        disk.write_sections({"ianus": {("k",): 1.0}})
        blob = disk.path.read_bytes()
        disk.path.write_bytes(blob[: len(blob) // 2])
        assert disk.load_sections() == {}

    def test_update_sections_preserves_other_sections(self, disk):
        disk.write_sections({"baseline": {"b": 2}})
        disk.update_sections({"ianus": {"a": 1}})
        sections = disk.load_sections()
        assert sections == {"baseline": {"b": 2}, "ianus": {"a": 1}}

    def test_update_sections_merges_keys(self, disk):
        disk.update_sections({"ianus": {"a": 1}})
        disk.update_sections({"ianus": {"b": 2}})
        assert disk.load_sections()["ianus"] == {"a": 1, "b": 2}

    def test_no_stray_temp_files_after_write(self, disk, tmp_path):
        disk.write_sections({"ianus": {"a": 1}})
        names = {p.name for p in tmp_path.iterdir()}
        assert names <= {DiskCacheFile.FILENAME, DiskCacheFile.FILENAME + ".lock"}


class TestPersistentPassCostCache:
    def test_survives_process_boundary_simulation(self, disk):
        writer = PersistentPassCostCache(disk, "ianus")
        writer.put(("fp", "key"), (1.0, {"tag": 2.0}))
        assert writer.flush() == 1

        reader = PersistentPassCostCache(disk, "ianus")
        assert reader.get(("fp", "key")) == (1.0, {"tag": 2.0})
        stats = reader.stats()
        assert stats["disk_loads"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 0  # disk hit, not a miss

    def test_memory_wins_over_disk(self, disk):
        stale = PersistentPassCostCache(disk, "ianus")
        stale.put("k", "old")
        stale.flush()
        fresh = PersistentPassCostCache(disk, "ianus")
        fresh.put("k", "new")
        assert fresh.get("k") == "new"
        fresh.flush()
        assert DiskCacheFile(disk.directory).load_sections()["ianus"]["k"] == "new"

    def test_load_is_lazy_until_first_miss(self, disk):
        PersistentPassCostCache(disk, "ianus").put("k", 1)
        cache = PersistentPassCostCache(disk, "ianus")
        assert cache.disk_loads == 0
        cache.put("other", 2)           # writes don't trigger a load
        assert cache.disk_loads == 0
        assert cache.get("missing") is None  # first miss loads the section
        assert cache._disk_loaded

    def test_version_mismatch_falls_back_to_cold(self, disk):
        cache = PersistentPassCostCache(disk, "ianus")
        cache.put("k", 1)
        cache.flush()
        blob = pickle.loads(disk.path.read_bytes())
        blob["schema"] = CACHE_SCHEMA_VERSION + 99
        disk.path.write_bytes(pickle.dumps(blob))
        cold = PersistentPassCostCache(disk, "ianus")
        assert cold.get("k") is None
        assert cold.disk_loads == 0

    def test_flush_counters(self, disk):
        cache = PersistentPassCostCache(disk, "ianus")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.flush()
        cache.flush()
        stats = cache.stats()
        assert stats["disk_flushes"] == 2
        assert stats["disk_saves"] == 2  # re-writing unchanged entries doesn't count
        assert stats["disk_write_errors"] == 0
        assert stats["section"] == "ianus"
        assert stats["path"] == str(disk.path)


def _flush_worker(directory: str, section: str, offset: int) -> None:
    disk = DiskCacheFile(directory)
    cache = PersistentPassCostCache(disk, section)
    for index in range(50):
        cache.put(("k", offset + index), offset + index)
    cache.flush()


class TestConcurrentWriters:
    def test_two_processes_flushing_lose_nothing(self, tmp_path):
        first = multiprocessing.Process(
            target=_flush_worker, args=(str(tmp_path), "ianus", 0)
        )
        second = multiprocessing.Process(
            target=_flush_worker, args=(str(tmp_path), "ianus", 1000)
        )
        first.start()
        second.start()
        first.join(timeout=30)
        second.join(timeout=30)
        assert first.exitcode == 0 and second.exitcode == 0
        entries = DiskCacheFile(tmp_path).load_sections()["ianus"]
        assert len(entries) == 100  # both writers' entries survived
        assert entries[("k", 0)] == 0 and entries[("k", 1049)] == 1049

    def test_two_sections_flushing_lose_nothing(self, tmp_path):
        first = multiprocessing.Process(
            target=_flush_worker, args=(str(tmp_path), "ianus", 0)
        )
        second = multiprocessing.Process(
            target=_flush_worker, args=(str(tmp_path), "baseline", 0)
        )
        first.start()
        second.start()
        first.join(timeout=30)
        second.join(timeout=30)
        sections = DiskCacheFile(tmp_path).load_sections()
        assert len(sections["ianus"]) == 50
        assert len(sections["baseline"]) == 50


class TestCacheDirOverride:
    def test_repro_cache_dir_env_is_honoured(self, tmp_path, monkeypatch):
        override = tmp_path / "custom-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(override))
        assert default_cache_dir() == override
        assert DiskCacheFile().path == override / DiskCacheFile.FILENAME

    def test_default_is_under_home_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / ".cache" / "repro"

    def test_explicit_directory_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-dir"))
        explicit = tmp_path / "explicit"
        assert DiskCacheFile(explicit).path == explicit / DiskCacheFile.FILENAME


class TestGlobalInstallation:
    def test_install_replaces_both_globals(self, tmp_path):
        pass_cache, baseline_cache = install_disk_caches(tmp_path)
        assert global_pass_cache() is pass_cache
        assert global_baseline_cache() is baseline_cache
        assert pass_cache.section == "ianus"
        assert baseline_cache.section == "baseline"
        assert pass_cache.disk.path == baseline_cache.disk.path

    def test_install_is_idempotent_per_directory(self, tmp_path):
        first = install_disk_caches(tmp_path)
        second = install_disk_caches(tmp_path)
        assert first[0] is second[0] and first[1] is second[1]
        third = install_disk_caches(tmp_path / "elsewhere")
        assert third[0] is not first[0]

    def test_flush_disk_caches_writes_both_sections(self, tmp_path):
        pass_cache, baseline_cache = install_disk_caches(tmp_path)
        pass_cache.put("p", 1)
        baseline_cache.put("b", 2)
        assert flush_disk_caches() == 2
        sections = DiskCacheFile(tmp_path).load_sections()
        assert sections["ianus"] == {"p": 1}
        assert sections["baseline"] == {"b": 2}

    def test_flush_is_noop_for_plain_caches(self):
        set_global_pass_cache(PassCostCache())
        set_global_baseline_cache(PassCostCache())
        assert flush_disk_caches() == 0


class TestWarmEqualsCold:
    def test_fig15_rows_identical_cold_and_warm(self, tmp_path):
        from repro.perf import run_many

        cold = run_many(["fig15"], fast=True, jobs=1,
                        disk_cache=True, cache_dir=tmp_path)
        # Drop the in-memory caches so the second run must come off disk,
        # like a fresh CLI invocation would.
        set_global_pass_cache(PassCostCache())
        set_global_baseline_cache(PassCostCache())
        warm = run_many(["fig15"], fast=True, jobs=1,
                        disk_cache=True, cache_dir=tmp_path)
        assert cold.results["fig15"].rows == warm.results["fig15"].rows
        assert cold.results["fig15"].measured_claims == warm.results["fig15"].measured_claims
        warm_stats = warm.report.cache_stats["pass"]
        assert warm_stats["disk_loads"] > 0  # second run actually started warm


class TestDecodeTableSection:
    """The decode-table section pickles each table as it is."""

    def test_table_read_back_from_disk_prices_like_a_cold_build(
        self, disk, monkeypatch
    ):
        import json

        import numpy as np

        from repro.core.costmodel import make_cost_model
        from repro.models import GPT2_CONFIGS
        from repro.serving import ServingSimulator, decode_table, get_trace_generator

        cost_model = make_cost_model("ianus")
        trace = get_trace_generator("chatbot").generate(40, 30.0, seed=3)

        def served():
            simulator = ServingSimulator(cost_model, GPT2_CONFIGS["m"], engine="array")
            metrics = simulator.simulate(trace)
            return json.dumps(metrics.to_dict()), simulator.last_run._table

        written = PersistentPassCostCache(disk, "decode-tables", maxsize=64)
        set_global_decode_table_cache(written)
        cold, built = served()
        assert written.flush() == 1
        assert CACHE_SCHEMA_VERSION == 2
        assert pickle.loads(disk.path.read_bytes())["schema"] == CACHE_SCHEMA_VERSION

        # A fresh cache on the same file, as in the next process; the run
        # must price from the table it reads back, never rebuild it.
        fresh = PersistentPassCostCache(disk, "decode-tables", maxsize=64)
        set_global_decode_table_cache(fresh)

        def no_build(*args):
            raise AssertionError("a table on disk was rebuilt")

        monkeypatch.setattr(decode_table, "build_decode_table", no_build)
        warm, read = served()
        assert fresh.disk_loads == 1 and fresh.hits == 1
        assert read == built and read is not built
        assert np.array_equal(read.prefix_matrix, built.prefix_matrix)
        assert not read.prefix_matrix.flags.writeable
        assert warm == cold


class TestUnwritableCacheDir:
    def test_flush_degrades_instead_of_raising(self):
        disk = DiskCacheFile("/dev/null/not-a-directory")
        cache = PersistentPassCostCache(disk, "ianus")
        cache.put("k", 1)
        assert cache.flush() == 0  # write failed, but no exception escaped
        assert cache.stats()["disk_write_errors"] == 1
        assert cache.get("k") == 1  # in-memory entries unaffected

    def test_cli_run_survives_unwritable_cache_dir(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", "/dev/null/not-a-directory")
        assert main(["experiment", "fig18"]) == 0
        assert "Fig. 18" in capsys.readouterr().out

    def test_saved_counter_only_counts_new_entries(self, tmp_path):
        disk = DiskCacheFile(tmp_path)
        cache = PersistentPassCostCache(disk, "ianus")
        cache.put("a", 1)
        assert cache.flush() == 1
        assert cache.flush() == 0       # nothing new: re-write doesn't count
        cache.put("b", 2)
        assert cache.flush() == 1       # only the new entry counts
        assert cache.stats()["disk_saves"] == 2
