"""Tests for the sharded result-cache store, GC and batched warm paths.

Three layers of coverage:

* unit tests of :class:`~repro.harness.cache.ResultCache` (the model
  directory layout, GC passes, read-only mode, stats accounting);
* differential tests pinning that a warm cache serves sweeps
  bit-identically to the cold run;
* a multiprocess stress test: concurrent put/get/gc on one cache
  directory must lose no entries and tear no reads.
"""

import multiprocessing
import os

import pytest

from repro import MODEL_VERSION
from repro.common.config import CacheConfig, SystemConfig
from repro.harness.cache import ResultCache, content_key, resolve_result_cache
from repro.harness.sweep import SweepSpec, run_sweep

# The micro machine/sweep of test_sweep.py: full runs stay test-sized.
CONFIG = SystemConfig(
    num_cores=2,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(32 * 1024, 16, 15),
)

SPEC = SweepSpec(
    workloads=("heat",),
    config=CONFIG,
    scales=(0.15,),
    max_accesses_per_core=8_000,
)


def key_of(tag) -> str:
    return content_key("test-cache", tag)


def fill(cache, count, tag="fill"):
    """Store ``count`` distinct entries; returns their keys in order."""
    keys = []
    for i in range(count):
        key = key_of((tag, i))
        cache.put(key, {"tag": tag, "i": i, "blob": list(range(i))})
        keys.append(key)
    return keys


# ----------------------------------------------------------------------
# ResultCache: payloads, layout, batch probes
# ----------------------------------------------------------------------
class TestShardedFileBackend:
    """The sharded on-disk layout behind :class:`ResultCache`."""

    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_of("roundtrip")
        assert cache.get(key, "absent") == "absent"
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_read > 0

    def test_entries_live_in_the_model_directory(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_of("placed")
        cache.put(key, "payload")
        assert cache.root == tmp_path / f"m{MODEL_VERSION}"
        assert (cache.root / key[:2] / f"{key}.pkl").is_file()
        assert [p.name for p in tmp_path.iterdir()] == [cache.root.name]

    def test_get_many_skips_absent_without_opens(self, tmp_path):
        """Absent keys are left out of the result and read no bytes."""
        cache = ResultCache(tmp_path)
        keys = fill(cache, 3)
        absent = [key_of(("absent", i)) for i in range(40)]
        probe = ResultCache(tmp_path)
        found = probe.get_many(keys + absent)
        assert sorted(found) == sorted(keys)
        assert probe.stats.hits == len(keys)
        assert probe.stats.misses == len(absent)
        assert probe.stats.bytes_read == sum(
            cache._path(key).stat().st_size for key in keys
        )

    def test_long_lived_instance_sees_another_writers_entries(self, tmp_path):
        """A cache that probed a key finds it once another instance
        commits it (the daemon's cache beside one-shot runs)."""
        daemon, one_shot = ResultCache(tmp_path), ResultCache(tmp_path)
        key = key_of("shared")
        assert daemon.get_many([key]) == {}
        one_shot.put(key, "stored elsewhere")
        assert daemon.get_many([key]) == {key: "stored elsewhere"}

    def test_keys_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 4)
        assert cache.keys() == sorted(keys)
        assert len(cache) == 4

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        [key] = fill(cache, 1)
        cache._path(key).write_bytes(b"torn")
        fresh = ResultCache(tmp_path)
        assert fresh.get(key, "absent") == "absent"
        assert fresh.get_many([key]) == {}

    def test_read_only_refuses_writes(self, tmp_path):
        ResultCache(tmp_path).put(key_of("ro"), 1)
        ro = ResultCache(tmp_path, read_only=True)
        assert ro.get(key_of("ro")) == 1
        with pytest.raises(RuntimeError):
            ro.put(key_of("other"), 2)
        with pytest.raises(RuntimeError):
            ro.gc()

    def test_read_only_missing_dir_is_empty(self, tmp_path):
        ro = ResultCache(tmp_path / "nowhere", read_only=True)
        assert ro.get_many([key_of("x")]) == {}
        assert len(ro) == 0
        assert not (tmp_path / "nowhere").exists()

    def test_disk_usage(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 3)
        usage = ResultCache(tmp_path).disk_usage()
        assert usage.entries == 3
        assert usage.total_bytes > 0
        assert usage.shards == len({k[:2] for k in keys})
        assert usage.tmp_files == 0
        assert usage.stale == {}


# ----------------------------------------------------------------------
# GC: tmp sweep, stale directories, byte-budget eviction
# ----------------------------------------------------------------------
class TestGC:
    def test_len_and_verify_ignore_tmp_orphans(self, tmp_path):
        cache = ResultCache(tmp_path)
        [key] = fill(cache, 1)
        (cache.root / key[:2] / "orphan123.tmp").write_bytes(b"half a write")
        assert len(cache) == 1
        report = cache.verify()
        assert report.ok and report.entries == 1
        assert report.tmp_files == 1

    def test_gc_sweeps_old_tmp_keeps_young(self, tmp_path):
        cache = ResultCache(tmp_path)
        [key] = fill(cache, 1)
        old = cache.root / key[:2] / "old.tmp"
        young = cache.root / key[:2] / "young.tmp"
        old.write_bytes(b"x")
        young.write_bytes(b"x")
        stat = old.stat()
        os.utime(old, (stat.st_atime - 7200, stat.st_mtime - 7200))
        report = cache.gc(tmp_max_age_s=3600.0)
        assert report.tmp_removed == 1
        assert not old.exists() and young.exists()
        assert cache.get(key) is not None

    def test_gc_dry_run_touches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 3)
        report = cache.gc(max_bytes=0, dry_run=True)
        assert report.dry_run and report.evicted == 3
        assert ResultCache(tmp_path).keys() == sorted(keys)

    def test_gc_evicts_lru_by_mtime_to_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 3)
        sizes, ages = {}, [7200, 3600, 0]  # keys[0] oldest
        for key, age in zip(keys, ages):
            path = cache._path(key)
            sizes[key] = path.stat().st_size
            stat = path.stat()
            os.utime(path, (stat.st_atime - age, stat.st_mtime - age))
        budget = sizes[keys[1]] + sizes[keys[2]]
        report = cache.gc(max_bytes=budget)
        assert report.evicted == 1
        assert report.bytes_removed == sizes[keys[0]]
        fresh = ResultCache(tmp_path)
        assert fresh.keys() == sorted(keys[1:])
        assert fresh.get_many(keys[:1]) == {}

    def test_gc_purges_stale_versions_keeps_unknown(self, tmp_path):
        """``stale=True`` removes other model directories and the flat
        layout, and leaves the current model and unknown directories."""
        cache = ResultCache(tmp_path)
        [key] = fill(cache, 1)
        stale = {
            "m0.0.1": tmp_path / "m0.0.1" / "ab" / "x.pkl",
            "ab": tmp_path / "ab" / "x.pkl",
            "traces": tmp_path / "traces" / "cd" / "t.npy",
        }
        unknown = tmp_path / "notes" / "keep.txt"
        for path in (*stale.values(), unknown):
            path.parent.mkdir(parents=True)
            path.write_bytes(b"12345")
        assert cache.disk_usage().stale == {name: 5 for name in stale}

        preview = cache.gc(stale=True, dry_run=True)
        assert (preview.stale_removed, preview.bytes_removed) == (3, 15)
        assert all(path.exists() for path in stale.values())

        report = cache.gc(stale=True)
        assert (report.stale_removed, report.bytes_removed) == (3, 15)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [cache.root.name, "notes"]
        )
        assert unknown.exists() and cache.get(key) is not None
        assert cache.disk_usage().stale == {}


class TestResolveBackend:
    def test_instance_passes_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_result_cache(cache) is cache
        assert resolve_result_cache(None) is None
        assert isinstance(resolve_result_cache(tmp_path), ResultCache)


# ----------------------------------------------------------------------
# Differential: a warm cache serves runs bit-identically
# ----------------------------------------------------------------------
def assert_identical(ev_a, ev_b):
    """Every reported metric must match exactly (not approximately)."""
    assert ev_a.footprint_bytes == ev_b.footprint_bytes
    assert set(ev_a.runs) == set(ev_b.runs)
    for design in ev_a.runs:
        run_a, run_b = ev_a.runs[design], ev_b.runs[design]
        assert run_a.output_error == run_b.output_error, design
        assert run_a.compression_ratio == run_b.compression_ratio, design
        assert run_a.timing.cycles == run_b.timing.cycles, design
        assert run_a.timing.total_bytes == run_b.timing.total_bytes, design
        assert run_a.timing.amat_cycles == run_b.timing.amat_cycles, design
        assert run_a.timing.llc_mpki == run_b.timing.llc_mpki, design


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory):
    """One cold sweep into a shared cache dir; its result is the oracle."""
    cache_dir = tmp_path_factory.mktemp("cold-cache")
    result = run_sweep(SPEC, jobs=1, cache_dir=cache_dir)
    assert result.stats.executed > 0
    return cache_dir, result.by_workload()["heat"]


class TestWarmBackendsBitIdentical:
    def test_warm_sweep(self, cold_cache):
        cache_dir, oracle = cold_cache
        warm = run_sweep(SPEC, jobs=1, cache_dir=cache_dir)
        assert warm.stats.executed == 0
        assert_identical(oracle, warm.by_workload()["heat"])

    def test_shared_cache_instance_across_sweeps(self, cold_cache):
        """One instance threads through many sweeps (the daemon's use)."""
        cache_dir, oracle = cold_cache
        cache = ResultCache(cache_dir)
        first = run_sweep(SPEC, jobs=1, cache_dir=cache)
        second = run_sweep(SPEC, jobs=1, cache_dir=cache)
        assert first.stats.executed == second.stats.executed == 0
        assert cache.stats.hits == (
            first.stats.cache_hits + second.stats.cache_hits
        )
        assert_identical(oracle, first.by_workload()["heat"])
        assert_identical(oracle, second.by_workload()["heat"])

    def test_stores_are_folded_into_sweep_stats(self, tmp_path):
        cold = run_sweep(SPEC, jobs=2, cache_dir=tmp_path)
        assert cold.stats.cache_stores == cold.stats.executed > 0
        warm = run_sweep(SPEC, jobs=2, cache_dir=tmp_path)
        assert warm.stats.cache_stores == 0


# ----------------------------------------------------------------------
# Multiprocess stress: concurrent put/get/gc on one directory
# ----------------------------------------------------------------------
ENTRIES_PER_RANK = 24


def _stress_worker(root, rank, barrier):
    """Write, read back, and GC against a shared cache directory."""
    cache = ResultCache(root)
    barrier.wait()
    for i in range(ENTRIES_PER_RANK):
        key = key_of(("stress", rank, i))
        value = {"rank": rank, "i": i, "blob": list(range(32))}
        cache.put(key, value)
        got = cache.get(key)
        assert got == value, f"torn read of own entry {rank}/{i}"
        if i % 8 == 3:
            cache.gc(tmp_max_age_s=3600.0)
    # Read a slice of every rank's range; concurrently-written entries
    # may legitimately be absent, but present ones must not be torn.
    for other in range(4):
        for i in range(0, ENTRIES_PER_RANK, 6):
            value = cache.get(key_of(("stress", other, i)))
            if value is not None:
                assert value["rank"] == other and value["i"] == i


class TestMultiprocessStress:
    def test_concurrent_put_get_gc(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(4)
        procs = [
            ctx.Process(target=_stress_worker, args=(tmp_path, rank, barrier))
            for rank in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        # No lost entries: every payload is present and readable.
        cache = ResultCache(tmp_path)
        expected = {
            key_of(("stress", rank, i))
            for rank in range(4)
            for i in range(ENTRIES_PER_RANK)
        }
        assert len(cache) == len(expected)
        report = cache.verify()
        assert report.ok, report.corrupt
        assert report.entries == len(expected)
        assert set(cache.keys()) == expected
        assert set(cache.get_many(sorted(expected))) == expected
