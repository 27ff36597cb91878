"""Tests for the content-keyed, memory-mapped trace store.

The store holds one entry kind, a composed trace's timing front end.
Covers the durability contract (atomic payload-then-record commits,
torn entries read as misses), content-key invalidation on model-version
bumps, concurrent writers racing benignly on one key, records in an
older form reading as misses, and the sweep engine's warm path: a
cleared result cache with an intact trace store memory-maps the timing
front end instead of regenerating and re-filtering the trace.
"""

import json
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.approx import ApproxMemory
from repro.common.config import CacheConfig, DRAMConfig, SystemConfig
from repro.common.types import ErrorThresholds
from repro.harness.scenario import ScenarioPoint, scenario_trace_key
from repro.scenario import parse_mix
from repro.system.frontend import compute_front_end
from repro.trace import (
    FrontEndHandle,
    TraceStore,
    front_end_key,
    generate_trace,
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
#: stands in for a composed trace's content key
TRACE = "t" * 64
#: a two-instance mix whose points the key tests vary
MIX = "heat@1+lbm@1"


def make_mem() -> ApproxMemory:
    mem = ApproxMemory()
    mem.alloc("data", 16 * 1024 // 4)  # 16 KB
    return mem


def make_front_end_and_key(budget=2_000):
    trace = generate_trace(
        SPEC, make_mem(), num_cores=CONFIG.num_cores,
        max_accesses_per_core=budget, seed=0,
    )
    return front_end_key(TRACE, CONFIG), compute_front_end(trace, CONFIG)


def assert_front_ends_identical(a, b):
    assert a.iterations_simulated == b.iterations_simulated
    assert a.iterations_total == b.iterations_total
    for name, column in a.columns().items():
        other = b.columns()[name]
        assert column.dtype == other.dtype, name
        assert np.array_equal(column, other), name


def put_older_form(store, key, front_end):
    """Write ``front_end`` as a store before 1.16.0 did: no ``gap``
    column and no iteration counts in the record."""
    columns, parts, start = [], [], 0
    for name, array in front_end.columns().items():
        if name == "gap":
            continue
        raw = np.ascontiguousarray(array).view(np.uint8)
        pad = -raw.size % 8
        columns.append([name, array.dtype.str, int(array.size), start])
        parts += [raw, np.zeros(pad, dtype=np.uint8)]
        start += raw.size + pad
    store._data_path(key).parent.mkdir(parents=True, exist_ok=True)
    np.save(store._data_path(key), np.concatenate(parts), allow_pickle=False)
    store._meta_path(key).write_text(
        json.dumps({"columns": columns, "nbytes": start})
    )


def point_front_end_key(
    num_cores=2, max_accesses_per_core=5_000, seed=0, name=None, thresholds=None
):
    """The key a sweep stores the front end of a point of ``MIX`` under,
    on a ``num_cores``-core machine."""
    point = ScenarioPoint(
        parse_mix(MIX, name=name),
        seed=seed,
        thresholds=thresholds,
        max_accesses_per_core=max_accesses_per_core,
    )
    return front_end_key(
        scenario_trace_key(point, num_cores), replace(CONFIG, num_cores=num_cores)
    )


def _concurrent_writer(root: str, _worker: int) -> int:
    """Module-level so it pickles into pool workers: everyone races to
    commit the same content-keyed entry."""
    key, front_end = make_front_end_and_key()
    store = TraceStore(root)
    store.put(key, front_end)
    return store.get(key).l1_accesses


class TestRoundTrip:
    def test_memmap_round_trip_bit_identical(self, tmp_path):
        key, front_end = make_front_end_and_key()
        store = TraceStore(tmp_path)
        assert store.get(key) is None
        store.put(key, front_end)
        mapped = store.get(key)
        assert_front_ends_identical(mapped, front_end)
        assert mapped.scale_factor == front_end.scale_factor
        # The warm path maps the payload read-only; nothing is copied.
        assert not mapped.gap.flags.writeable
        assert not mapped.event_addr.flags.writeable
        assert store.stats.front_end_hits == 1
        assert store.stats.front_end_misses == 1
        assert store.stats.front_end_stores == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.stats.front_end_misses == 1
        assert store.stats.front_end_hits == 0

    def test_handle_load(self, tmp_path):
        key, front_end = make_front_end_and_key()
        TraceStore(tmp_path).put(key, front_end)
        handle = FrontEndHandle(root=str(tmp_path), key=key)
        assert_front_ends_identical(handle.load(), front_end)

    def test_handle_pickles_without_the_payload(self, tmp_path):
        """Jobs carry the handle, not the columns: it pickles to its two
        strings, however large the entry."""
        key, front_end = make_front_end_and_key()
        TraceStore(tmp_path).put(key, front_end)
        blob = pickle.dumps(FrontEndHandle(root=str(tmp_path), key=key))
        assert len(blob) < 512 < front_end.gap.nbytes
        assert_front_ends_identical(pickle.loads(blob).load(), front_end)

    def test_handle_load_missing_entry_raises(self, tmp_path):
        handle = FrontEndHandle(root=str(tmp_path), key="0" * 64)
        with pytest.raises(FileNotFoundError):
            handle.load()


class TestAtomicity:
    def test_truncated_payload_is_a_miss(self, tmp_path):
        """A writer that died mid-payload leaves a mis-shaped file; the
        reader must treat the entry as absent, not surface torn data."""
        key, front_end = make_front_end_and_key()
        store = TraceStore(tmp_path)
        store.put(key, front_end)
        payload = store._data_path(key)
        blob = payload.read_bytes()
        payload.write_bytes(blob[: len(blob) // 2])
        assert store.get(key) is None
        assert store.stats.front_end_misses == 1

    def test_payload_without_record_is_absent(self, tmp_path):
        """The record is the commit marker: payload alone (a crash
        between the two writes) reads as a clean miss."""
        key, front_end = make_front_end_and_key()
        store = TraceStore(tmp_path)
        store.put(key, front_end)
        store._meta_path(key).unlink()
        assert store.get(key) is None
        assert trace_store_usage(tmp_path).front_ends == 0

    def test_record_without_payload_is_a_miss(self, tmp_path):
        key, front_end = make_front_end_and_key()
        store = TraceStore(tmp_path)
        store.put(key, front_end)
        store._data_path(key).unlink()
        assert store.get(key) is None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        key, front_end = make_front_end_and_key()
        store = TraceStore(tmp_path)
        store.put(key, front_end)
        store._meta_path(key).write_text("{not json")
        assert store.get(key) is None

    def test_older_form_record_is_a_miss(self, tmp_path):
        """A front end stored before 1.16.0 lacks the gap column and the
        iteration counts, so its unchanged key reads as a miss."""
        key, front_end = make_front_end_and_key()
        store = TraceStore(tmp_path)
        put_older_form(store, key, front_end)
        assert store.get(key) is None
        store.put(key, front_end)
        assert_front_ends_identical(store.get(key), front_end)

    def test_no_tmp_files_survive_a_put(self, tmp_path):
        key, front_end = make_front_end_and_key()
        TraceStore(tmp_path).put(key, front_end)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_writers_one_key(self, tmp_path):
        """Content addressing makes same-key races benign: whoever wins
        the rename, the bytes are identical and the entry stays valid."""
        with ProcessPoolExecutor(max_workers=4) as pool:
            accesses = list(
                pool.map(_concurrent_writer, [str(tmp_path)] * 4, range(4))
            )
        key, front_end = make_front_end_and_key()
        assert accesses == [front_end.l1_accesses] * 4
        assert_front_ends_identical(TraceStore(tmp_path).get(key), front_end)


class TestUsage:
    def test_usage_counts_front_ends_and_every_byte(self, tmp_path):
        key, front_end = make_front_end_and_key()
        store = TraceStore(tmp_path)
        store.put(key, front_end)
        # A trace entry a store before 1.16.0 left: counted in bytes,
        # never read.
        shard = tmp_path / "ab"
        shard.mkdir()
        (shard / f"{'ab' * 32}.json").write_text("{}")
        (shard / f"{'ab' * 32}.npy").write_bytes(b"\0" * 64)
        usage = trace_store_usage(store.root)
        assert usage.front_ends == 1
        on_disk = sum(f.stat().st_size for f in store.root.rglob("*") if f.is_file())
        assert usage.total_bytes == on_disk
        assert store.get("ab" * 32) is None

    def test_usage_of_a_missing_directory_is_empty(self, tmp_path):
        usage = trace_store_usage(tmp_path / "nope")
        assert (usage.front_ends, usage.total_bytes) == (0, 0)
        assert not (tmp_path / "nope").exists()


class TestKeys:
    def test_key_is_deterministic(self):
        """Two separately parsed points of one mix share an entry."""
        assert point_front_end_key() == point_front_end_key()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_cores": 4},
            {"max_accesses_per_core": 6_000},
            {"seed": 1},
        ],
    )
    def test_key_covers_every_generation_input(self, kwargs):
        assert point_front_end_key(**kwargs) != point_front_end_key()

    def test_key_ignores_the_name_and_thresholds(self):
        """Traces are generated from exact memory, so every spelling and
        every threshold setting of one mix maps the same entry."""
        base = point_front_end_key()
        assert point_front_end_key(name="renamed") == base
        assert point_front_end_key(thresholds=ErrorThresholds.from_t2(0.04)) == base

    def test_key_covers_private_caches_and_core_count(self):
        base = front_end_key(TRACE, CONFIG)
        assert base == front_end_key(TRACE, CONFIG)
        for changed in (
            replace(CONFIG, l1=CacheConfig(4 * 1024, 4, 1)),
            replace(CONFIG, l2=CacheConfig(8 * 1024, 4, 8)),
            replace(CONFIG, num_cores=4),
        ):
            assert front_end_key(TRACE, changed) != base
        assert front_end_key("u" * 64, CONFIG) != base

    def test_key_ignores_the_shared_levels(self):
        base = front_end_key(TRACE, CONFIG)
        for changed in (
            replace(CONFIG, llc=CacheConfig(64 * 1024, 16, 15)),
            replace(CONFIG, dram=DRAMConfig(channels=4)),
        ):
            assert front_end_key(TRACE, changed) == base

    def test_version_bump_invalidates_keys(self, monkeypatch):
        """A model-version bump changes the key; a release does not."""
        before = front_end_key(TRACE, CONFIG)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert front_end_key(TRACE, CONFIG) == before
        monkeypatch.setattr(repro, "MODEL_VERSION", "0.0.0-test")
        assert front_end_key(TRACE, CONFIG) != before


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


def clear_result_cache(cache_dir):
    for entry in cache_dir.glob("m*/*/*.pkl"):
        entry.unlink()


def no_trace_generation(monkeypatch):
    """Make any trace generation by the sweep fail loudly."""

    def generate_trace(*args, **kwargs):
        raise AssertionError("a warm store must not need a trace")

    monkeypatch.setattr("repro.harness.scenario.generate_trace", generate_trace)


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

    def test_cleared_result_cache_maps_stored_front_end(
        self, sweep_spec, tmp_path, monkeypatch
    ):
        from repro.designs import AVR
        from repro.harness.sweep import run_sweep

        cold = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert cold.stats.frontends_computed == 1
        assert cold.stats.frontends_mapped == 0
        assert default_store(tmp_path).is_dir()

        # Clear the result cache; keep the trace store.  The rerun
        # replays from the stored front end and generates no trace.
        clear_result_cache(tmp_path)
        no_trace_generation(monkeypatch)
        warm = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert warm.stats.frontends_computed == 0
        assert warm.stats.frontends_mapped == 1
        assert warm.stats.executed > 0  # jobs re-ran, the filter did not
        cold_run = cold.by_workload()["heat"].runs[AVR]
        warm_run = warm.by_workload()["heat"].runs[AVR]
        assert warm_run.timing.metrics_equal(cold_run.timing)

        # Fully warm: every job cache-served, the store never touched.
        cached = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert cached.stats.executed == 0
        assert cached.stats.frontends_computed == 0
        assert cached.stats.frontends_mapped == 0

    def test_cleared_result_cache_replays_a_mix_from_the_stored_front_end(
        self, tmp_path, monkeypatch
    ):
        """Every instance subset of a mix replays the one stored front
        end, restricted to its cores, and the rerun generates no trace."""
        from repro.designs import AVR, BASELINE
        from repro.harness.scenario import scenario_subsets
        from repro.harness.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            scenarios=(parse_mix(MIX),),
            designs=(BASELINE, AVR),
            config=SystemConfig.scaled(num_cores=2),
            scales=(0.15,),
            max_accesses_per_core=1_500,
        )
        cold = run_sweep(spec, cache_dir=tmp_path)
        assert cold.stats.frontends_computed == 1

        clear_result_cache(tmp_path)
        no_trace_generation(monkeypatch)
        warm = run_sweep(spec, cache_dir=tmp_path)
        assert warm.stats.frontends_computed == 0
        assert warm.stats.frontends_mapped == 1
        assert warm.stats.timing_executed == 2 * len(scenario_subsets(2))
        for design in spec.designs:
            a = cold.by_scenario()[MIX].runs[design]
            b = warm.by_scenario()[MIX].runs[design]
            assert b.corun.metrics_equal(a.corun), design.name
            for ia, ib in zip(a.instances, b.instances):
                assert ib.per_core_slowdown == ia.per_core_slowdown
                assert ib.pressure_llc_misses == ia.pressure_llc_misses

    def test_no_cache_means_no_store(self, sweep_spec):
        from repro.harness.sweep import run_sweep

        stats = run_sweep(sweep_spec).stats
        assert (stats.frontends_computed, stats.frontends_mapped) == (0, 0)

    def test_every_design_shares_one_front_end_entry(self, sweep_spec, tmp_path):
        from repro.designs import AVR_CONSERVATIVE, TRUNCATE
        from repro.harness.sweep import run_sweep

        spec = replace(
            sweep_spec, designs=(*sweep_spec.designs, TRUNCATE, AVR_CONSERVATIVE)
        )
        run_sweep(spec, cache_dir=tmp_path)
        assert trace_store_usage(default_store(tmp_path)).front_ends == 1
        # Only front ends are stored: one payload and its record.
        assert len(list(default_store(tmp_path).glob("*/*"))) == 2

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
            for name, column in store.get(key).columns().items()
        }
        TEARS[tear](store._data_path(key))
        assert store.get(key) is None
        assert store.stats.front_end_misses == 1

        clear_result_cache(tmp_path)
        rerun = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert rerun.stats.frontends_computed == 1
        assert rerun.stats.frontends_mapped == 0
        rewritten = store.get(key).columns()
        for name, column in intact.items():
            assert np.array_equal(rewritten[name], column), name

    def test_older_form_entry_is_recomputed_and_rewritten(
        self, sweep_spec, tmp_path
    ):
        """A store written before the front end carried its gaps keeps
        its key; the rerun recomputes the entry, rewrites it in the
        current form, and its outputs do not move."""
        from repro.harness.sweep import run_sweep

        cold = run_sweep(sweep_spec, cache_dir=tmp_path)
        store = TraceStore(default_store(tmp_path))
        (record,) = store.root.glob("*/*.frontend.json")
        key = record.name.split(".")[0]
        mapped = store.get(key)
        # Copied out: the older form is written over the mapped file.
        intact = replace(
            mapped, **{name: np.array(c) for name, c in mapped.columns().items()}
        )
        del mapped
        put_older_form(store, key, intact)
        names = [column[0] for column in json.loads(record.read_text())["columns"]]
        assert "gap" not in names
        assert store.get(key) is None

        clear_result_cache(tmp_path)
        rerun = run_sweep(sweep_spec, cache_dir=tmp_path)
        assert rerun.stats.frontends_computed == 1
        assert rerun.stats.frontends_mapped == 0
        assert_front_ends_identical(store.get(key), intact)
        for point, evaluation in cold.evaluations.items():
            for design, run in evaluation.runs.items():
                again = rerun.evaluations[point].runs[design].timing
                assert again.metrics_equal(run.timing), design.name
