"""Pass-cost caches: in-memory memoization plus a persistent disk layer.

See the package docstring (:mod:`repro.perf`) for the cache-key and
invalidation design.  The in-memory cache is deliberately a plain dictionary
with FIFO eviction rather than an LRU: entries are small (a float, a small
dict, an :class:`~repro.scheduling.events.ActivityStats` and a float), sweeps
touch each key a handful of times in compilation order, and FIFO keeps
``get`` on the hit path allocation-free.

Two process-wide caches exist: :func:`global_pass_cache` memoizes IANUS /
NPU-MEM full-pass simulations, :func:`global_baseline_cache` memoizes the
A100 and DFX analytical baseline models.  They are separate instances so the
CLI can report simulator and baseline hit rates side by side.

The persistent layer (:class:`PersistentPassCostCache` backed by
:class:`DiskCacheFile`) amortizes warm-up across CLI invocations: all
sections share one pickle file under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``), written atomically and versioned by
:data:`CACHE_SCHEMA_VERSION`; a version mismatch or a corrupted file simply
falls back to an empty cache.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from threading import Lock

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "config_fingerprint",
    "PassCostCache",
    "DiskCacheFile",
    "PersistentPassCostCache",
    "default_cache_dir",
    "global_pass_cache",
    "set_global_pass_cache",
    "global_baseline_cache",
    "set_global_baseline_cache",
    "global_decode_table_cache",
    "set_global_decode_table_cache",
    "install_disk_caches",
    "flush_disk_caches",
    "resolve_pass_cache",
]

#: Version of the persisted cache schema.  Bump whenever a timing model, a
#: cached value layout, or a key ingredient changes: on-disk entries carrying
#: an older version are discarded wholesale (stale timings silently reused
#: across a model change would be far worse than a cold start).  Version 4:
#: the ``decode-tables`` section holds pickled
#: :class:`~repro.serving.decode_table.DecodeCostTable` objects of integer
#: picoseconds, picojoules and FLOPs, with their ``c(1)`` base in unrounded
#: ticks (version 3 tables held floats, and version 2 tables no
#: ``columns`` matrix; version 1 held plain-list payloads of their
#: columns).
CACHE_SCHEMA_VERSION = 4

#: Fingerprints are derived from the frozen config dataclass repr, which
#: includes the class name and every field (and nested frozen dataclass)
#: deterministically.  Keyed by the (hashable) configuration itself, so equal
#: configurations map to the same digest no matter which instance carries
#: them.  Bounded: design-space sweeps can touch thousands of configuration
#: variants.  Accepts any hashable frozen config (``SystemConfig``,
#: ``GpuConfig``, ``DfxConfig``, ...), so the baseline models share the key
#: design.
_FINGERPRINTS: dict[tuple[object, int], str] = {}
_FINGERPRINTS_MAXSIZE = 4096


def config_fingerprint(config: object, num_devices: int = 1) -> str:
    """Stable digest identifying one system configuration + device count.

    Two configurations share a fingerprint exactly when every configuration
    field compares equal; the device count is folded in because the compiler
    partitions work differently per device count.
    """
    cache_key = (config, num_devices)
    cached = _FINGERPRINTS.get(cache_key)
    if cached is not None:
        return cached
    digest = hashlib.sha1(
        f"{config!r}/devices={num_devices}".encode()
    ).hexdigest()[:16]
    if len(_FINGERPRINTS) >= _FINGERPRINTS_MAXSIZE:
        _FINGERPRINTS.pop(next(iter(_FINGERPRINTS)))
    _FINGERPRINTS[cache_key] = digest
    return digest


class PassCostCache:
    """Bounded memo table for pass costs with hit/miss accounting.

    Keys are tuples whose first element is the configuration fingerprint
    (see :func:`config_fingerprint`); the remaining elements identify the
    pass (model, stage, token count, KV length).  Values are whatever the
    caller stores — :class:`~repro.core.system.IanusSystem` stores the
    ``(latency, breakdown, stats, flops)`` tuple of ``_pass_cost``.
    """

    def __init__(self, maxsize: int = 16384) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(self, key):
        """Return the cached value or ``None``, updating the counters."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
            self._entries[key] = value

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/size counters (for ``repro bench`` and the tests)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hit_rate": self.hits / total if total else 0.0,
        }


# ----------------------------------------------------------------------
# Persistent (on-disk) layer
# ----------------------------------------------------------------------
def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.

    Read at call time (not import time) so tests and CLI invocations can
    redirect the cache without re-importing the package.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class DiskCacheFile:
    """One pickle file holding every persisted cache section.

    The file layout is ``{"schema": CACHE_SCHEMA_VERSION, "sections":
    {name: {key: value}}}`` — the simulator and baseline caches persist as
    separate sections of the *same* file, so one atomic write covers both.

    Robustness contract:

    * **corruption** (truncated file, unpicklable bytes, wrong payload type)
      loads as empty — never raises into the simulation path;
    * **version mismatch** loads as empty and is overwritten on the next
      flush;
    * **atomic writes** — the payload is written to a temporary file in the
      same directory and ``os.replace``d over the target, so readers never
      observe a half-written file;
    * **concurrent writers** — :meth:`update_sections` takes an advisory
      ``flock`` on a sidecar lock file around its read-merge-write cycle, so
      flushes from several processes (e.g. pool workers exiting together)
      are serialised and additive; where ``fcntl`` is unavailable the merge
      still happens, unlocked, and interleaved flushes lose at most the
      slower writer's view of the faster one, never the file itself.
    """

    FILENAME = "pass-costs.pkl"

    def __init__(self, directory: "str | os.PathLike | None" = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.path = self.directory / self.FILENAME
        self.lock_path = self.directory / (self.FILENAME + ".lock")

    # ------------------------------------------------------------------
    def load_sections(self) -> dict:
        """Every persisted section, or ``{}`` on any kind of failure."""
        try:
            payload = pickle.loads(self.path.read_bytes())
        except Exception:  # noqa: BLE001 - any corruption means "cold start"
            return {}
        if not isinstance(payload, dict):
            return {}
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return {}
        sections = payload.get("sections")
        if not isinstance(sections, dict):
            return {}
        return sections

    def write_sections(self, sections: dict) -> None:
        """Atomically replace the file with the given sections."""
        payload = {"schema": CACHE_SCHEMA_VERSION, "sections": sections}
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=self.FILENAME + ".", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @contextmanager
    def _locked(self):
        """Advisory exclusive lock on the sidecar lock file (best effort)."""
        if fcntl is None:
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR)
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing releases the flock

    def update_sections(self, updates: dict) -> int:
        """Merge entries into the named sections under the writer lock.

        New entries win over what the file currently holds; entries of other
        sections (and keys this caller never produced) are preserved.
        Returns the number of entries that were actually new or changed on
        disk (purely re-written entries don't count).
        """
        with self._locked():
            sections = self.load_sections()
            changed = 0
            for name, entries in updates.items():
                current = sections.get(name)
                merged = dict(current) if isinstance(current, dict) else {}
                for key, value in entries.items():
                    if key not in merged or merged[key] != value:
                        changed += 1
                merged.update(entries)
                sections[name] = merged
            self.write_sections(sections)
        return changed


class PersistentPassCostCache(PassCostCache):
    """A :class:`PassCostCache` with a lazily-loaded on-disk backing section.

    The disk section is loaded on the first miss (so purely-warm in-memory
    workloads never touch the filesystem) and written back by :meth:`flush`.
    In-memory entries always win over on-disk ones — they are fresher by
    construction.
    """

    def __init__(
        self,
        disk: DiskCacheFile,
        section: str,
        maxsize: int = 16384,
    ) -> None:
        super().__init__(maxsize=maxsize)
        self.disk = disk
        self.section = section
        self._disk_loaded = False
        self.disk_loads = 0   # entries adopted from disk
        self.disk_saves = 0   # entries newly written to disk (cumulative)
        self.disk_flushes = 0  # successful flush() calls
        self.disk_write_errors = 0  # flushes dropped because the write failed

    # ------------------------------------------------------------------
    def get(self, key):
        value = super().get(key)
        if value is not None or self._disk_loaded:
            return value
        self._load_from_disk()
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                # The miss counted above was served from disk after all.
                self.misses -= 1
                self.hits += 1
        return value

    def _load_from_disk(self) -> None:
        section = self.disk.load_sections().get(self.section)
        entries = section if isinstance(section, dict) else {}
        with self._lock:
            if self._disk_loaded:
                return
            for key, value in entries.items():
                if key not in self._entries and len(self._entries) < self.maxsize:
                    self._entries[key] = value
                    self.disk_loads += 1
            self._disk_loaded = True

    def load(self) -> int:
        """Eagerly load the disk section (e.g. before forking workers).

        Returns the number of entries adopted from disk.
        """
        before = self.disk_loads
        if not self._disk_loaded:
            self._load_from_disk()
        return self.disk_loads - before

    def flush(self) -> int:
        """Merge the in-memory entries into the file; returns entries saved.

        Only entries that are new or changed on disk count as saved.  Other
        sections of the file (and on-disk entries this process never
        produced) are preserved; concurrent flushes serialise on the disk
        file's writer lock.  A failing write (unwritable directory, full
        disk) degrades to a no-op — the cache must never turn a successful
        simulation run into a crash — and is recorded in
        ``disk_write_errors``.
        """
        with self._lock:
            snapshot = dict(self._entries)
        try:
            saved = self.disk.update_sections({self.section: snapshot})
        except OSError:
            with self._lock:
                self.disk_write_errors += 1
            return 0
        with self._lock:
            self.disk_saves += saved
            self.disk_flushes += 1
        return saved

    def stats(self) -> dict:
        data = super().stats()
        data.update(
            disk_loads=self.disk_loads,
            disk_saves=self.disk_saves,
            disk_flushes=self.disk_flushes,
            disk_write_errors=self.disk_write_errors,
            path=str(self.disk.path),
            section=self.section,
        )
        return data


# ----------------------------------------------------------------------
# Process-wide cache instances
# ----------------------------------------------------------------------
#: Process-wide cache shared by every ``IanusSystem`` unless a caller opts
#: out (``IanusSystem(config, pass_cache=None)``) or supplies its own.
_GLOBAL_CACHE = PassCostCache()

#: Process-wide cache shared by the analytical baseline models (A100, DFX)
#: the same way; kept separate so hit rates are reported per backend family.
_GLOBAL_BASELINE_CACHE = PassCostCache()

#: Process-wide cache for the array engine's dense decode-cost tables,
#: keyed (backend fingerprint, model fingerprint, anchor grid, kv range)
#: and holding each immutable
#: :class:`~repro.serving.decode_table.DecodeCostTable` as it is: every
#: run, replica and weight swap over one grid installs the same object
#: (see :meth:`repro.serving.simulator.PassCostProvider.decode_table`),
#: and the persistent layer pickles it.  Tables are a few hundred KB
#: each, so the bound is much tighter than the pass caches'.
_GLOBAL_DECODE_TABLE_CACHE = PassCostCache(maxsize=64)


def global_pass_cache() -> PassCostCache:
    """The process-wide pass-cost cache."""
    return _GLOBAL_CACHE


def set_global_pass_cache(cache: PassCostCache) -> PassCostCache:
    """Replace the process-wide cache (returns the previous one)."""
    global _GLOBAL_CACHE
    previous = _GLOBAL_CACHE
    _GLOBAL_CACHE = cache
    return previous


def resolve_pass_cache(pass_cache, default) -> "PassCostCache | None":
    """Resolve the shared ``pass_cache`` constructor-argument policy.

    ``True`` means "use the process-wide default" (``default`` is called to
    fetch it — pass :func:`global_pass_cache` or
    :func:`global_baseline_cache`), a :class:`PassCostCache` instance is used
    as-is, and anything else (``None``/``False``) disables caching.  Shared
    by ``IanusSystem``, ``A100Gpu`` and ``DfxAppliance`` so the policy can't
    silently diverge between backends.
    """
    if pass_cache is True:
        return default()
    if isinstance(pass_cache, PassCostCache):
        return pass_cache
    return None


def global_baseline_cache() -> PassCostCache:
    """The process-wide baseline-model (A100 / DFX) cost cache."""
    return _GLOBAL_BASELINE_CACHE


def set_global_baseline_cache(cache: PassCostCache) -> PassCostCache:
    """Replace the process-wide baseline cache (returns the previous one)."""
    global _GLOBAL_BASELINE_CACHE
    previous = _GLOBAL_BASELINE_CACHE
    _GLOBAL_BASELINE_CACHE = cache
    return previous


def global_decode_table_cache() -> PassCostCache:
    """The process-wide decode-table cache."""
    return _GLOBAL_DECODE_TABLE_CACHE


def set_global_decode_table_cache(cache: PassCostCache) -> PassCostCache:
    """Replace the process-wide decode-table cache (returns the previous)."""
    global _GLOBAL_DECODE_TABLE_CACHE
    previous = _GLOBAL_DECODE_TABLE_CACHE
    _GLOBAL_DECODE_TABLE_CACHE = cache
    return previous


def install_disk_caches(
    directory: "str | os.PathLike | None" = None,
) -> "tuple[PersistentPassCostCache, PersistentPassCostCache]":
    """Back the global caches with one persistent file; returns the two
    pass-cost caches (the decode-table cache rides along in its own section
    of the same file).

    Idempotent for a given directory: if the globals are already persistent
    caches over the same file they are returned as-is (preserving their warm
    entries and counters) instead of being replaced by cold ones.
    """
    disk = DiskCacheFile(directory)
    current_pass = global_pass_cache()
    current_baseline = global_baseline_cache()
    current_tables = global_decode_table_cache()
    if (
        isinstance(current_pass, PersistentPassCostCache)
        and isinstance(current_baseline, PersistentPassCostCache)
        and isinstance(current_tables, PersistentPassCostCache)
        and current_pass.disk.path == disk.path
        and current_baseline.disk.path == disk.path
        and current_tables.disk.path == disk.path
    ):
        return current_pass, current_baseline
    pass_cache = PersistentPassCostCache(disk, "ianus")
    baseline_cache = PersistentPassCostCache(disk, "baseline")
    table_cache = PersistentPassCostCache(disk, "decode-tables", maxsize=64)
    set_global_pass_cache(pass_cache)
    set_global_baseline_cache(baseline_cache)
    set_global_decode_table_cache(table_cache)
    return pass_cache, baseline_cache


def flush_disk_caches() -> int:
    """Flush the global caches if they are persistent; entries written."""
    written = 0
    for cache in (
        global_pass_cache(),
        global_baseline_cache(),
        global_decode_table_cache(),
    ):
        if isinstance(cache, PersistentPassCostCache):
            written += cache.flush()
    return written
