"""Tests for the content-keyed, memory-mapped trace store.

Covers the durability contract (atomic payload-then-record commits,
torn entries read as misses), content-key invalidation on model-version
bumps, concurrent writers racing benignly on one key, and the sweep
engine's warm path: a cleared result cache with an intact trace store
memory-maps the composed trace and its timing front end instead of
regenerating and re-filtering them.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.approx import ApproxMemory
from repro.common.config import CacheConfig, DRAMConfig, SystemConfig
from repro.system.frontend import compute_front_end
from repro.trace import (
    FrontEndHandle,
    TraceHandle,
    TraceStore,
    front_end_key,
    generate_trace,
    trace_key,
    trace_store_usage,
)
from repro.workloads.base import Phase, TraceSpec

SPEC = TraceSpec(4, (Phase("data", gap=9),))
CONFIG = SystemConfig(
    num_cores=2,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(32 * 1024, 16, 15),
)


def make_mem() -> ApproxMemory:
    mem = ApproxMemory()
    mem.alloc("data", 16 * 1024 // 4)  # 16 KB
    return mem


def make_trace_and_key(num_cores=2, budget=5_000, seed=0):
    mem = make_mem()
    key = trace_key(SPEC, mem, num_cores, budget, seed)
    trace = generate_trace(
        SPEC, mem, num_cores=num_cores, max_accesses_per_core=budget, seed=seed
    )
    return key, trace


def assert_traces_identical(a, b):
    assert a.iterations_simulated == b.iterations_simulated
    assert a.iterations_total == b.iterations_total
    assert len(a.cores) == len(b.cores)
    for x, y in zip(a.cores, b.cores):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def assert_front_ends_identical(a, b):
    for name, column in a.columns().items():
        other = b.columns()[name]
        assert column.dtype == other.dtype, name
        assert np.array_equal(column, other), name


def _concurrent_writer(root: str, _worker: int) -> int:
    """Module-level so it pickles into pool workers: everyone races to
    commit the same content-keyed entry."""
    key, trace = make_trace_and_key()
    store = TraceStore(root)
    store.put(key, trace)
    return store.get(key).total_accesses


class TestRoundTrip:
    def test_memmap_round_trip_bit_identical(self, tmp_path):
        key, trace = make_trace_and_key()
        store = TraceStore(tmp_path)
        assert not store.contains(key)
        store.put(key, trace)
        assert store.contains(key)
        assert len(store) == 1
        mapped = store.get(key)
        assert_traces_identical(mapped, trace)
        # The warm path maps the payload read-only; nothing is copied.
        assert not mapped.cores[0].flags.writeable

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1
        assert store.stats.hits == 0

    def test_get_or_generate_cold_then_warm(self, tmp_path):
        key, trace = make_trace_and_key()
        store = TraceStore(tmp_path)
        calls = []

        def generator():
            calls.append(1)
            return trace

        first = store.get_or_generate(key, generator)
        second = store.get_or_generate(key, generator)
        assert len(calls) == 1
        assert store.stats.stores == 1
        assert store.stats.hits == 1
        assert_traces_identical(first, second)

    def test_handle_load(self, tmp_path):
        key, trace = make_trace_and_key()
        TraceStore(tmp_path).put(key, trace)
        handle = TraceHandle(root=str(tmp_path), key=key)
        assert_traces_identical(handle.load(), trace)

    def test_handle_load_missing_entry_raises(self, tmp_path):
        handle = TraceHandle(root=str(tmp_path), key="0" * 64)
        with pytest.raises(FileNotFoundError):
            handle.load()


class TestAtomicity:
    def test_truncated_payload_is_a_miss(self, tmp_path):
        """A writer that died mid-payload leaves a mis-shaped file; the
        reader must treat the entry as absent, not surface torn data."""
        key, trace = make_trace_and_key()
        store = TraceStore(tmp_path)
        store.put(key, trace)
        payload = store._data_path(key)
        blob = payload.read_bytes()
        payload.write_bytes(blob[: len(blob) // 2])
        assert store.get(key) is None
        assert store.stats.misses == 1

    def test_payload_without_record_is_absent(self, tmp_path):
        """The index record is the commit marker: payload alone (a crash
        between the two writes) reads as a clean miss."""
        key, trace = make_trace_and_key()
        store = TraceStore(tmp_path)
        store.put(key, trace)
        store._meta_path(key).unlink()
        assert not store.contains(key)
        assert store.get(key) is None

    def test_record_without_payload_is_a_miss(self, tmp_path):
        key, trace = make_trace_and_key()
        store = TraceStore(tmp_path)
        store.put(key, trace)
        store._data_path(key).unlink()
        assert store.get(key) is None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        key, trace = make_trace_and_key()
        store = TraceStore(tmp_path)
        store.put(key, trace)
        store._meta_path(key).write_text("{not json")
        assert store.get(key) is None

    def test_no_tmp_files_survive_a_put(self, tmp_path):
        key, trace = make_trace_and_key()
        TraceStore(tmp_path).put(key, trace)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_writers_one_key(self, tmp_path):
        """Content addressing makes same-key races benign: whoever wins
        the rename, the bytes are identical and the entry stays valid."""
        with ProcessPoolExecutor(max_workers=4) as pool:
            totals = list(
                pool.map(_concurrent_writer, [str(tmp_path)] * 4, range(4))
            )
        key, trace = make_trace_and_key()
        assert totals == [trace.total_accesses] * 4
        assert_traces_identical(TraceStore(tmp_path).get(key), trace)


class TestKeys:
    def test_key_is_deterministic(self):
        a = trace_key(SPEC, make_mem(), 2, 5_000, 0)
        b = trace_key(SPEC, make_mem(), 2, 5_000, 0)
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_cores": 4},
            {"max_accesses_per_core": 6_000},
            {"seed": 1},
        ],
    )
    def test_key_covers_every_generation_input(self, kwargs):
        base = dict(num_cores=2, max_accesses_per_core=5_000, seed=0)
        assert trace_key(SPEC, make_mem(), **base) != trace_key(
            SPEC, make_mem(), **{**base, **kwargs}
        )

    def test_version_bump_invalidates_keys(self, monkeypatch):
        """A model-version bump changes the key; a release does not."""
        before = trace_key(SPEC, make_mem(), 2, 5_000, 0)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert trace_key(SPEC, make_mem(), 2, 5_000, 0) == before
        monkeypatch.setattr(repro, "MODEL_VERSION", "0.0.0-test")
        assert trace_key(SPEC, make_mem(), 2, 5_000, 0) != before


class TestFrontEndEntries:
    @pytest.fixture()
    def entry(self, tmp_path):
        key, trace = make_trace_and_key()
        store = TraceStore(tmp_path)
        store.put(key, trace)
        front_end = compute_front_end(trace, CONFIG)
        fkey = front_end_key(key, CONFIG)
        store.put_front_end(fkey, front_end)
        return store, fkey, front_end

    def test_memmap_round_trip_bit_identical(self, entry):
        store, key, front_end = entry
        mapped = store.get_front_end(key)
        assert_front_ends_identical(mapped, front_end)
        assert not mapped.event_addr.flags.writeable
        assert store.stats.front_end_hits == 1
        assert store.stats.front_end_stores == 1

    def test_len_counts_traces_only(self, entry):
        store, _, _ = entry
        assert len(store) == 1
        usage = trace_store_usage(store.root)
        assert (usage.traces, usage.front_ends) == (1, 1)
        on_disk = sum(f.stat().st_size for f in store.root.rglob("*") if f.is_file())
        assert usage.total_bytes == on_disk

    def test_usage_of_a_missing_directory_is_empty(self, tmp_path):
        usage = trace_store_usage(tmp_path / "nope")
        assert (usage.traces, usage.front_ends, usage.total_bytes) == (0, 0, 0)
        assert not (tmp_path / "nope").exists()

    def test_handle_load(self, entry):
        store, key, front_end = entry
        handle = FrontEndHandle(root=str(store.root), key=key)
        assert_front_ends_identical(handle.load(), front_end)
        with pytest.raises(FileNotFoundError):
            FrontEndHandle(root=str(store.root), key="0" * 64).load()

    def test_front_end_and_trace_entries_do_not_collide(self, entry):
        store, key, _ = entry
        assert store.get(key) is None  # a front-end key names no trace

    def test_key_covers_private_caches_and_core_count(self):
        base = front_end_key("t" * 64, CONFIG)
        assert base == front_end_key("t" * 64, CONFIG)
        for changed in (
            replace(CONFIG, l1=CacheConfig(4 * 1024, 4, 1)),
            replace(CONFIG, l2=CacheConfig(8 * 1024, 4, 8)),
            replace(CONFIG, num_cores=4),
        ):
            assert front_end_key("t" * 64, changed) != base
        assert front_end_key("u" * 64, CONFIG) != base

    def test_key_ignores_the_shared_levels(self):
        base = front_end_key("t" * 64, CONFIG)
        for changed in (
            replace(CONFIG, llc=CacheConfig(64 * 1024, 16, 15)),
            replace(CONFIG, dram=DRAMConfig(channels=4)),
        ):
            assert front_end_key("t" * 64, changed) == base

    def test_version_bump_invalidates_keys(self, monkeypatch):
        """A model-version bump changes the key; a release does not."""
        before = front_end_key("t" * 64, CONFIG)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert front_end_key("t" * 64, CONFIG) == before
        monkeypatch.setattr(repro, "MODEL_VERSION", "0.0.0-test")
        assert front_end_key("t" * 64, CONFIG) != before


def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _reshape(path):
    np.save(path, np.zeros(16, dtype=np.uint8), allow_pickle=False)


#: ways a front-end entry can be torn: its payload gone, cut short, or
#: replaced by one its record does not describe
TEARS = {
    "record without payload": lambda path: path.unlink(),
    "truncated payload": _truncate,
    "mis-shaped payload": _reshape,
}


def default_store(cache_dir):
    """Where ``run_sweep`` keeps the trace store of ``cache_dir``."""
    return cache_dir / f"m{repro.MODEL_VERSION}" / "traces"


class TestSweepIntegration:
    @pytest.fixture(scope="class")
    def sweep_spec(self):
        from repro.designs import AVR, BASELINE
        from repro.harness.sweep import SweepSpec

        return SweepSpec(
            workloads=("heat",),
            designs=(BASELINE, AVR),
            config=SystemConfig.scaled(num_cores=2),
            scales=(0.15,),
            max_accesses_per_core=2_000,
        )

    def test_cleared_result_cache_maps_stored_trace(self, sweep_spec, tmp_path):
        from repro.designs import AVR
        from repro.harness.sweep import run_sweep

        cold = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert cold.stats.traces_generated == 1
        assert cold.stats.traces_mapped == 0
        assert cold.stats.frontends_computed == 1
        assert cold.stats.frontends_mapped == 0
        assert default_store(tmp_path).is_dir()

        # Clear the result cache; keep the trace store.
        for entry in tmp_path.glob("m*/*/*.pkl"):
            entry.unlink()

        warm = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert warm.stats.traces_generated == 0
        assert warm.stats.traces_mapped >= 1
        assert warm.stats.frontends_computed == 0
        assert warm.stats.frontends_mapped == 1
        assert warm.stats.executed > 0  # jobs re-ran, trace did not
        cold_run = cold.by_workload()["heat"].runs[AVR]
        warm_run = warm.by_workload()["heat"].runs[AVR]
        assert warm_run.timing.metrics_equal(cold_run.timing)

        # Fully warm: every job cache-served, the trace never touched.
        cached = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert cached.stats.executed == 0
        assert cached.stats.traces_generated == 0
        assert cached.stats.traces_mapped == 0
        assert cached.stats.frontends_computed == 0
        assert cached.stats.frontends_mapped == 0

    def test_no_cache_means_no_store(self, sweep_spec):
        from repro.harness.sweep import run_sweep

        stats = run_sweep(sweep_spec).stats
        assert (stats.traces_generated, stats.traces_mapped) == (0, 0)
        assert (stats.frontends_computed, stats.frontends_mapped) == (0, 0)

    def test_every_design_shares_one_front_end_entry(self, sweep_spec, tmp_path):
        from repro.designs import AVR_CONSERVATIVE, TRUNCATE
        from repro.harness.sweep import run_sweep

        spec = replace(
            sweep_spec, designs=(*sweep_spec.designs, TRUNCATE, AVR_CONSERVATIVE)
        )
        run_sweep(spec, cache_dir=tmp_path)
        usage = trace_store_usage(default_store(tmp_path))
        assert (usage.traces, usage.front_ends) == (1, 1)
        assert len(TraceStore(default_store(tmp_path))) == 1

    @pytest.mark.parametrize("tear", sorted(TEARS))
    def test_torn_front_end_is_recomputed_and_rewritten(
        self, sweep_spec, tmp_path, tear
    ):
        from repro.harness.sweep import run_sweep

        run_sweep(sweep_spec, cache_dir=tmp_path)
        store = TraceStore(default_store(tmp_path))
        (record,) = store.root.glob("*/*.frontend.json")
        key = record.name.split(".")[0]
        # Copied out: tearing rewrites the mapped file in place.
        intact = {
            name: np.array(column)
            for name, column in store.get_front_end(key).columns().items()
        }
        TEARS[tear](store._data_path(key, ".frontend"))
        assert store.get_front_end(key) is None
        assert store.stats.front_end_misses == 1

        for entry in tmp_path.glob("m*/*/*.pkl"):
            entry.unlink()
        rerun = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert rerun.stats.frontends_computed == 1
        assert rerun.stats.frontends_mapped == 0
        rewritten = store.get_front_end(key).columns()
        for name, column in intact.items():
            assert np.array_equal(rewritten[name], column), name
