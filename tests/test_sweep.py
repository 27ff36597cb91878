"""Tests for the parallel sweep engine and its on-disk result cache."""

from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
import repro.harness.cache
import repro.harness.scenario
import repro.harness.sweep
from repro.cache.array_lru import BatchedPrivateFilter
from repro.common.config import CacheConfig, SystemConfig
from repro.common.types import ErrorThresholds
from repro.designs import AVR, BASELINE, TRUNCATE
from repro.harness.cache import ResultCache, _canonical, content_key
from repro.harness.report import sweep_stats_to_mapping
from repro.harness.scenario import (
    ScenarioPoint,
    scenario_timing_key,
    scenario_trace_key,
)
from repro.harness.sweep import (
    JobExecutor,
    SweepPoint,
    SweepSpec,
    functional_job_key,
    run_sweep,
    timing_job_key,
)
from repro.scenario import get_scenario
from repro.system.simulator import SimResult

# Small machine + small workload so full sweeps stay test-sized.
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
    workload_kwargs=(("iterations", 10),),
)


def assert_identical(ev_a, ev_b):
    """Every reported metric must match exactly (not approximately)."""
    assert ev_a.name == ev_b.name
    assert ev_a.footprint_bytes == ev_b.footprint_bytes
    assert ev_a.avr_compression_ratio == ev_b.avr_compression_ratio
    assert set(ev_a.runs) == set(ev_b.runs)
    for design in ev_a.runs:
        run_a, run_b = ev_a.runs[design], ev_b.runs[design]
        assert run_a.output_error == run_b.output_error, design
        assert run_a.iterations == run_b.iterations, design
        assert run_a.compression_ratio == run_b.compression_ratio, design
        assert run_a.dedup_factor == run_b.dedup_factor, design
        assert run_a.timing.cycles == run_b.timing.cycles, design
        assert run_a.timing.total_bytes == run_b.timing.total_bytes, design
        assert run_a.timing.amat_cycles == run_b.timing.amat_cycles, design
        assert run_a.timing.llc_mpki == run_b.timing.llc_mpki, design
        assert run_a.timing.iteration_factor == run_b.timing.iteration_factor, design


@pytest.fixture(scope="module")
def serial_result():
    return run_sweep(SPEC, jobs=1)


class TestSerialParallelEquality:
    def test_parallel_matches_serial(self, serial_result):
        parallel = run_sweep(SPEC, jobs=2)
        assert_identical(
            serial_result.by_workload()["heat"], parallel.by_workload()["heat"]
        )


class TestSpec:
    def test_points_enumerate_grid(self):
        spec = replace(
            SPEC,
            seeds=(0, 1),
            thresholds=(None, ErrorThresholds.from_t2(0.04)),
        )
        points = spec.points()
        assert len(points) == 4
        assert len(set(points)) == 4  # hashable and distinct

    def test_default_workloads_are_all_seven(self):
        assert len(SweepSpec().resolved_workloads()) == 7

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(SPEC, jobs=0)

    def test_point_rejects_shadowed_kwargs(self):
        # scale/seed are SweepPoint fields; smuggling them through
        # workload_kwargs would silently skew cache keys.
        with pytest.raises(ValueError):
            SweepPoint("heat", workload_kwargs=(("seed", 1),))

    def test_by_workload_rejects_ambiguous_grid(self):
        spec = replace(SPEC, seeds=(0, 1))
        result = run_sweep(
            replace(spec, max_accesses_per_core=2_000), jobs=1
        )
        with pytest.raises(ValueError):
            result.by_workload()


class TestCache:
    def test_cold_then_warm(self, tmp_path, serial_result):
        cold = run_sweep(SPEC, jobs=1, cache_dir=tmp_path)
        assert cold.stats.executed > 0
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == cold.stats.executed

        warm = run_sweep(SPEC, jobs=1, cache_dir=tmp_path)
        assert warm.stats.executed == 0  # zero workload re-executions
        assert warm.stats.cache_hits == cold.stats.executed
        assert warm.stats.cache_misses == 0
        assert_identical(
            serial_result.by_workload()["heat"], warm.by_workload()["heat"]
        )

    def test_parallel_warm_cache(self, tmp_path):
        run_sweep(SPEC, jobs=2, cache_dir=tmp_path)
        warm = run_sweep(SPEC, jobs=2, cache_dir=tmp_path)
        assert warm.stats.executed == 0

    def test_warm_cache_skips_trace_generation(self, tmp_path, monkeypatch):
        # Trace generation now lives behind the (lazy) scenario
        # composition seam; a fully warm cache must never reach it.
        import repro.harness.scenario as scenario_mod

        run_sweep(SPEC, jobs=1, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("trace regenerated on a fully warm cache")

        monkeypatch.setattr(scenario_mod, "generate_trace", boom)
        warm = run_sweep(SPEC, jobs=1, cache_dir=tmp_path)
        assert warm.stats.executed == 0

    def test_config_change_invalidates_timing_only(self, tmp_path):
        cold = run_sweep(SPEC, jobs=1, cache_dir=tmp_path)
        bigger_llc = replace(CONFIG, llc=CacheConfig(64 * 1024, 16, 15))
        changed = run_sweep(
            replace(SPEC, config=bigger_llc), jobs=1, cache_dir=tmp_path
        )
        # Functional results are config-independent and stay cached;
        # every timing point must be recomputed for the new machine.
        assert changed.stats.functional_executed == 0
        assert changed.stats.timing_executed == cold.stats.timing_executed
        ev_cold = cold.by_workload()["heat"]
        ev_changed = changed.by_workload()["heat"]
        assert (
            ev_changed.runs[BASELINE].timing.cycles
            != ev_cold.runs[BASELINE].timing.cycles
        )

    def test_threshold_sweep_shares_baseline(self, tmp_path):
        cold = run_sweep(SPEC, jobs=1, cache_dir=tmp_path)
        ablated = run_sweep(
            replace(SPEC, thresholds=(ErrorThresholds.from_t2(0.04),)),
            jobs=1,
            cache_dir=tmp_path,
        )
        # The baseline reference is threshold-independent: only the
        # approximating designs' functional runs re-execute.
        assert 0 < ablated.stats.functional_executed < cold.stats.functional_executed

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("x", 1)
        cache.put(key, {"v": 1})
        assert cache.get(key) == {"v": 1}
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_content_key_stability_and_sensitivity(self):
        point = SweepPoint("heat", scale=0.5)
        assert content_key(point) == content_key(SweepPoint("heat", scale=0.5))
        assert content_key(point) != content_key(SweepPoint("heat", scale=0.25))
        assert content_key(CONFIG) != content_key(
            replace(CONFIG, llc=CacheConfig(64 * 1024, 16, 15))
        )
        assert content_key(AVR) != content_key(BASELINE)

    def test_content_key_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            content_key(object())


def set_model_version(monkeypatch, version):
    """Patch ``MODEL_VERSION`` wherever the keys and the cache read it."""
    for module in (
        repro, repro.harness.cache, repro.harness.scenario, repro.harness.sweep,
    ):
        monkeypatch.setattr(module, "MODEL_VERSION", version)


PINNED_POINT = SweepPoint(
    workload="heat", scale=0.12, seed=0, max_accesses_per_core=1500
)
MIX_POINT = ScenarioPoint(get_scenario("heat+lbm"))

#: every sweep and scenario key builder, over fixed arguments
KEY_BUILDERS = {
    "functional": lambda: functional_job_key(PINNED_POINT, "baseline"),
    "timing": lambda: timing_job_key(PINNED_POINT, "AVR", CONFIG),
    "scenario-trace": lambda: scenario_trace_key(MIX_POINT, 8),
    "scenario-timing": lambda: scenario_timing_key(
        MIX_POINT, AVR, SystemConfig.scaled(num_cores=8), (0, 1)
    ),
}


class TestModelVersion:
    def test_keys_are_pinned(self):
        """The keys of an unchanged model stay byte-identical."""
        assert functional_job_key(PINNED_POINT, "baseline") == (
            "7159e7a428a0ed4e894001e5c5acd4d1808c8b223baf1ffd145237a4fefd484a"
        )
        assert timing_job_key(
            PINNED_POINT, "AVR", SystemConfig.scaled(num_cores=2)
        ) == "68916b557f86c08e13bfe1e58ac8c5288992a0082f68933847396a69b3f3556b"

    @pytest.mark.parametrize("kind", sorted(KEY_BUILDERS))
    def test_keys_follow_the_model_version_only(self, kind, monkeypatch):
        build = KEY_BUILDERS[kind]
        before = build()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert build() == before
        set_model_version(monkeypatch, "0.0.0")
        assert build() != before

    def test_a_bump_fills_a_new_model_directory(self, tmp_path, monkeypatch):
        cold = run_sweep(SPEC, jobs=1, cache_dir=tmp_path)
        old_dir = tmp_path / f"m{repro.MODEL_VERSION}"
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert run_sweep(SPEC, jobs=1, cache_dir=tmp_path).stats.executed == 0

        set_model_version(monkeypatch, "0.0.0")
        bumped = run_sweep(SPEC, jobs=1, cache_dir=tmp_path)
        assert bumped.stats.executed == cold.stats.executed
        assert bumped.stats.frontends_computed == cold.stats.frontends_computed
        cache = ResultCache(tmp_path)
        assert cache.root == tmp_path / "m0.0.0"
        assert len(cache) == cold.stats.executed

        assert cache.gc(stale=True).stale_removed == 1
        assert not old_dir.exists() and cache.root.is_dir()
        assert run_sweep(SPEC, jobs=1, cache_dir=tmp_path).stats.executed == 0


@pytest.fixture()
def filter_calls(monkeypatch):
    """Count BatchedPrivateFilter.filter calls (one per computed front end)."""
    calls = []
    original = BatchedPrivateFilter.filter

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BatchedPrivateFilter, "filter", counting)
    return calls


class TestSharedFrontEnd:
    """The private filter runs once per trace, not once per design."""

    def test_one_filter_pass_serves_every_design(self, tmp_path, filter_calls):
        result = run_sweep(
            replace(SPEC, designs=(BASELINE, AVR, TRUNCATE)), cache_dir=tmp_path
        )
        assert result.stats.timing_executed == 3
        assert len(filter_calls) == 1
        assert result.stats.frontends_computed == 1
        assert result.stats.frontends_mapped == 0
        mapping = sweep_stats_to_mapping(result.stats)
        assert (mapping["frontends_mapped"], mapping["frontends_computed"]) == (0, 1)

    def test_added_design_on_warm_store_filters_nothing(
        self, tmp_path, filter_calls
    ):
        run_sweep(replace(SPEC, designs=(BASELINE, AVR)), cache_dir=tmp_path)
        filter_calls.clear()
        grown = run_sweep(
            replace(SPEC, designs=(BASELINE, AVR, TRUNCATE)), cache_dir=tmp_path
        )
        assert grown.stats.timing_executed == 1
        assert filter_calls == []
        assert grown.stats.frontends_mapped == 1
        assert grown.stats.frontends_computed == 0

    def test_fully_warm_cache_computes_no_front_end(self, tmp_path, filter_calls):
        run_sweep(SPEC, cache_dir=tmp_path)
        filter_calls.clear()
        warm = run_sweep(SPEC, cache_dir=tmp_path)
        assert warm.stats.executed == 0
        assert filter_calls == []
        assert warm.stats.frontends_mapped == 0
        assert warm.stats.frontends_computed == 0

    def test_without_a_store_jobs_share_the_in_memory_front_end(
        self, filter_calls
    ):
        result = run_sweep(replace(SPEC, designs=(BASELINE, AVR, TRUNCATE)))
        assert len(filter_calls) == 1
        assert result.stats.frontends_computed == 0  # counts committed ones


class _Done:
    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class _SharingExecutor(JobExecutor):
    """Hands every submitter of a key the same result object, like the
    serve scheduler's shared future for a unit joined in flight."""

    def __init__(self):
        self.results = {}

    def submit_unit(self, key, fn, /, *args):
        launched = key not in self.results
        if launched:
            self.results[key] = fn(*args)
        return _Done(self.results[key]), launched


def test_reassembly_leaves_shared_timing_results_untouched():
    # kmeans converges after a design-dependent number of iterations, so
    # AVR's iteration factor is not 1.
    spec = SweepSpec(
        workloads=("kmeans",), designs=(BASELINE, AVR), config=CONFIG,
        scales=(0.1,), max_accesses_per_core=2_000,
    )
    executor = _SharingExecutor()
    first = run_sweep(spec, executor=executor)
    second = run_sweep(spec, executor=executor)
    assert second.stats.executed == 0  # every unit joined the first run's

    point = spec.points()[0]
    reference = executor.results[functional_job_key(point, BASELINE)]
    factors = {}
    for design in spec.designs:
        shared = executor.results[timing_job_key(point, design, CONFIG)]
        assert isinstance(shared, SimResult)
        assert shared.iteration_factor == 1.0
        func = executor.results.get(functional_job_key(point, design), reference)
        factors[design] = func.iterations / reference.iterations
        for result in (first, second):
            timing = result[point].runs[design].timing
            assert timing is not shared
            assert timing.iteration_factor == factors[design]
            assert timing.metrics_equal(shared)
    assert factors[AVR] != 1.0


class TestCanonicalProperties:
    """Property tests of the cache-key canonicalizer itself."""

    # spec-shaped values: scalars, tuples of them, str-keyed dicts
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-(2**63), 2**63)
        | st.floats(allow_nan=False)
        | st.text(max_size=8)
    )
    values = st.recursive(
        scalars,
        lambda inner: (
            st.tuples(inner, inner)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3)
        ),
        max_leaves=8,
    )

    @given(values)
    def test_equal_values_equal_keys(self, value):
        """A deep copy canonicalizes (and hashes) identically."""
        assert _canonical(deepcopy(value)) == _canonical(value)
        assert content_key(value) == content_key(deepcopy(value))

    @given(st.dictionaries(st.text(max_size=4), scalars, max_size=6))
    def test_dict_insertion_order_irrelevant(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert _canonical(reordered) == _canonical(mapping)

    @given(scalars, scalars)
    def test_distinct_scalars_distinct_keys(self, a, b):
        """On scalars the canonical form is injective up to equality.

        (``True == 1`` canonicalizes distinctly — by design: cache keys
        separate bool from int fields rather than aliasing them.)
        """
        if type(a) is type(b) and a != b:
            assert _canonical(a) != _canonical(b)

    @given(values)
    def test_round_trip_through_spec_dataclass(self, value):
        """A spec carrying the value keys identically across instances."""
        point = SweepPoint("heat", scale=0.5, workload_kwargs=(("v", value),))
        twin = SweepPoint("heat", scale=0.5, workload_kwargs=(("v", deepcopy(value)),))
        assert content_key(point) == content_key(twin)
