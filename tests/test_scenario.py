"""Tests for the scenario subsystem: specs, composition, contention.

Covers the composed-layout offset/overlap invariants, instance seed
spawning, instruction-count balancing, the trivial-scenario
bit-identity guarantee, timing-replay equivalence to the
access-at-a-time oracle on heterogeneous mixes (including every shipped named mix under AVR with
per-core approx regions, and every solo and leave-one-out subset
replayed from the full mix's shared timing front end), and the
sweep/cache integration of scenario-qualified identities.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import block_size_of, is_approx, replay, run_reference
from repro.common.config import CacheConfig, SystemConfig
from repro.designs import AVR, BASELINE
from repro.harness.runner import _build_layout
from repro.harness.scenario import (
    ScenarioPoint,
    build_scenario_context,
    scenario_subsets,
)
from repro.harness.sweep import (
    SweepPoint,
    SweepSpec,
    run_functional_job,
    run_sweep,
    run_timing_job,
)
from repro.scenario import (
    OFFSET_ALIGN,
    Scenario,
    ScenarioEntry,
    assign_offsets,
    compose_traces,
    get_scenario,
    instance_seeds,
    named_scenarios,
    parse_mix,
)
from repro.system.factory import build_system
from repro.system.frontend import compute_front_end
from repro.trace.events import TRACE_DTYPE, total_instructions
from repro.trace.generator import GeneratedTrace, generate_trace

CONFIG = SystemConfig(
    num_cores=4,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(64 * 1024, 16, 15),
)
ACCESSES = 3_000


def _functional_memo():
    cache = {}

    def functional_for(point, design):
        key = (point, design)
        if key not in cache:
            cache[key] = run_functional_job(point, design)
        return cache[key]

    return functional_for


FUNCTIONAL = _functional_memo()


def _context(mix: str, config=CONFIG, accesses=ACCESSES, seed=0,
             designs=(BASELINE, AVR)):
    point = ScenarioPoint(
        scenario=get_scenario(mix).scaled(0.15),
        seed=seed,
        max_accesses_per_core=accesses,
    )
    return point, build_scenario_context(point, config, FUNCTIONAL, designs)


def _evaluate(scenario: Scenario, designs):
    """One scenario point on ``CONFIG``, through the sweep engine."""
    spec = SweepSpec(
        scenarios=(scenario,), designs=designs, config=CONFIG,
        max_accesses_per_core=ACCESSES,
    )
    return run_sweep(spec).by_scenario()[scenario.name]


# ----------------------------------------------------------------------
# Spec: parsing, placement, registry
# ----------------------------------------------------------------------
class TestSpec:
    def test_parse_mix_forms(self):
        s = parse_mix("kmeans*4+bscholes*4")
        assert s.total_cores == 8 and s.num_instances == 8
        s = parse_mix("heat@4+lbm@4")
        assert s.total_cores == 8 and s.num_instances == 2
        s = parse_mix("kmeans*2@2+heat@4")
        assert s.total_cores == 8 and s.num_instances == 3
        # × is accepted in place of *
        assert parse_mix("kmeans×2").entries == parse_mix("kmeans*2").entries

    def test_parse_mix_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown workload"):
            parse_mix("nope+heat")
        with pytest.raises(ValueError, match="cannot parse"):
            parse_mix("heat@@2")
        with pytest.raises(ValueError, match="empty"):
            parse_mix("heat++lbm")

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            ScenarioEntry("heat", cores=0)
        with pytest.raises(ValueError):
            ScenarioEntry("heat", instances=0)
        with pytest.raises(ValueError):
            Scenario(name="x", entries=())
        with pytest.raises(ValueError):
            Scenario(name="x", entries=(ScenarioEntry("heat"),),
                     placement="diagonal")

    def test_block_placement_contiguous(self):
        s = parse_mix("kmeans*2@2+heat@4")
        assert s.core_assignment() == ((0, 1), (2, 3), (4, 5, 6, 7))

    def test_interleave_placement_alternates(self):
        s = Scenario(
            name="x",
            entries=(ScenarioEntry("heat", cores=2),
                     ScenarioEntry("lbm", cores=2)),
            placement="interleave",
        )
        assert s.core_assignment() == ((0, 2), (1, 3))

    def test_named_registry(self):
        named = named_scenarios()
        assert set(named) == {"heat+lbm", "kmeans4+bscholes4", "all7"}
        assert named["all7"].num_instances == 7
        assert get_scenario("heat+lbm").entries[0].cores == 4
        # unknown names fall through to the mix parser
        assert get_scenario("heat+lbm+heat").num_instances == 3

    def test_solo_and_scaled(self):
        s = Scenario.solo("heat", cores=8, scale=0.5)
        assert s.total_cores == 8 and s.num_instances == 1
        assert s.scaled(0.5).entries[0].scale == 0.25
        assert s.scaled(1.0) is s

    def test_hashable_and_picklable(self):
        import pickle

        s = get_scenario("heat+lbm")
        assert hash(s) == hash(pickle.loads(pickle.dumps(s)))


# ----------------------------------------------------------------------
# Seeds and balancing
# ----------------------------------------------------------------------
class TestSeedsAndBalance:
    def test_single_instance_keeps_raw_seed(self):
        assert instance_seeds(7, 1) == [7]

    def test_spawned_seeds_distinct_and_deterministic(self):
        seeds = instance_seeds(0, 4)
        assert len(set(seeds)) == 4
        assert seeds == instance_seeds(0, 4)
        assert seeds != instance_seeds(1, 4)

    def test_same_workload_instances_differ_in_jitter_only(self):
        point, context = _context("kmeans*2+heat@2")
        plans = context.plans
        traces = [
            generate_trace(
                w.trace_spec(), r.memory, num_cores=p.entry.cores,
                max_accesses_per_core=ACCESSES, seed=p.seed,
            )
            for p, w, r in zip(plans, context.workloads, context.references)
        ]
        a, b = traces[0].cores[0], traces[1].cores[0]
        # identical program: same addresses (in instance-local space)...
        assert np.array_equal(a["addr"], b["addr"])
        # ...but spawned seeds de-correlate the gap jitter
        assert not np.array_equal(a["gap"], b["gap"])
        # and the composed trace separates them by the base offset
        full = context.trace()
        assert not np.array_equal(full.cores[0]["addr"], full.cores[1]["addr"])

    def test_balancing_bounds_instruction_counts(self):
        point, context = _context("kmeans*2+heat@2")
        plans = context.plans
        traces = [
            generate_trace(
                w.trace_spec(), r.memory, num_cores=p.entry.cores,
                max_accesses_per_core=ACCESSES, seed=p.seed,
            )
            for p, w, r in zip(plans, context.workloads, context.references)
        ]
        target = min(
            max(total_instructions(c) for c in t.cores) for t in traces
        )
        full = context.trace()
        assert all(total_instructions(c) <= target for c in full.cores)
        # the shortest instance anchors the target and is untouched
        # (modulo its base-offset address shift)
        anchor = min(
            range(len(traces)),
            key=lambda i: max(total_instructions(c) for c in traces[i].cores),
        )
        offset = context.offsets[anchor]
        for stream, core in zip(traces[anchor].cores, plans[anchor].cores):
            composed = full.cores[core]
            assert np.array_equal(composed["addr"],
                                  stream["addr"] + np.uint64(offset))
            assert np.array_equal(composed["write"], stream["write"])
            assert np.array_equal(composed["gap"], stream["gap"])

    def test_unbalanced_compose_keeps_everything(self):
        point, context = _context("kmeans*2+heat@2")
        plans = context.plans
        traces = [
            generate_trace(
                w.trace_spec(), r.memory, num_cores=p.entry.cores,
                max_accesses_per_core=ACCESSES, seed=p.seed,
            )
            for p, w, r in zip(plans, context.workloads, context.references)
        ]
        raw = compose_traces(traces, plans, context.offsets,
                             CONFIG.num_cores, balance=False)
        assert raw.total_accesses == sum(t.total_accesses for t in traces)


# ----------------------------------------------------------------------
# Layout composition invariants
# ----------------------------------------------------------------------
class TestComposition:
    def test_offsets_disjoint_and_aligned(self):
        spans = [3 * OFFSET_ALIGN // 2, 10, OFFSET_ALIGN]
        offsets = assign_offsets(spans)
        assert offsets[0] == 0
        for (o1, s1), o2 in zip(zip(offsets, spans), offsets[1:]):
            assert o2 >= o1 + s1
            assert o2 % OFFSET_ALIGN == 0

    def test_composed_ranges_do_not_overlap(self):
        _, context = _context("kmeans*2+heat@2")
        ranges = sorted(context.layout.ranges, key=lambda r: r.start)
        for a, b in zip(ranges, ranges[1:]):
            assert a.end <= b.start

    def test_composed_layout_preserves_block_sizes(self):
        point, context = _context("heat+lbm", config=SystemConfig.scaled(8))
        plans = context.plans
        for plan, offset, workload in zip(
            plans, context.offsets, context.workloads
        ):
            ipoint = point.instance_point(plan)
            local = _build_layout(workload, FUNCTIONAL(ipoint, AVR))
            for r in local.ranges:
                for addr in (r.start, (r.start + r.end) // 2 & ~1023, r.end - 1024):
                    assert block_size_of(context.layout, addr + offset) == \
                        block_size_of(local, addr)
                    assert is_approx(context.layout, addr + offset) == \
                        is_approx(local, addr)

    def test_composed_footprint_and_approx_bytes_additive(self):
        point, context = _context("heat+lbm", config=SystemConfig.scaled(8))
        assert context.footprint_bytes == sum(context.instance_footprints)
        per_instance = sum(
            _build_layout(w, FUNCTIONAL(point.instance_point(p), AVR)).approx_bytes
            for p, w in zip(context.plans, context.workloads)
        )
        assert context.layout.approx_bytes == per_instance

    def test_rejects_machine_smaller_than_mix(self):
        with pytest.raises(ValueError, match="needs 8 cores"):
            _context("heat+lbm", config=CONFIG)

    def test_subsets_enumeration(self):
        assert scenario_subsets(1) == ((0,),)
        assert scenario_subsets(2) == ((0,), (1,), (0, 1))
        assert set(scenario_subsets(3)) == {
            (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
        }


# ----------------------------------------------------------------------
# Trivial scenario == classic single-workload path, bit for bit
# ----------------------------------------------------------------------
class TestTrivialScenario:
    def test_layout_and_trace_bit_identical(self):
        point = SweepPoint(workload="heat", scale=0.15,
                           max_accesses_per_core=ACCESSES)
        workload = point.make()
        reference = FUNCTIONAL(point, BASELINE)
        legacy_layout = _build_layout(workload, FUNCTIONAL(point, AVR))
        legacy_trace = generate_trace(
            workload.trace_spec(), reference.memory,
            num_cores=CONFIG.num_cores,
            max_accesses_per_core=ACCESSES, seed=0,
        )
        solo = ScenarioPoint(
            scenario=Scenario.solo("heat", cores=CONFIG.num_cores, scale=0.15),
            max_accesses_per_core=ACCESSES,
        )
        context = build_scenario_context(
            solo, CONFIG, FUNCTIONAL, designs=(BASELINE, AVR)
        )
        assert len(context.layout.ranges) == len(legacy_layout.ranges)
        for a, b in zip(context.layout.ranges, legacy_layout.ranges):
            assert (a.start, a.end) == (b.start, b.end)
            assert np.array_equal(a.sizes, b.sizes)
        trace = context.trace()
        assert trace.iterations_simulated == legacy_trace.iterations_simulated
        assert trace.iterations_total == legacy_trace.iterations_total
        for a, b in zip(trace.cores, legacy_trace.cores):
            assert np.array_equal(a, b)

    def test_single_instance_contention_is_trivial(self):
        ev = _evaluate(
            Scenario.solo("heat", cores=CONFIG.num_cores, scale=0.15),
            designs=(BASELINE,),
        )
        run = ev.runs[BASELINE]
        assert run.weighted_speedup == pytest.approx(1.0)
        inst = run.instances[0]
        assert inst.slowdown == pytest.approx(1.0)
        assert inst.per_core_slowdown == tuple([1.0] * CONFIG.num_cores)
        assert inst.induced_llc_misses == 0.0


# ----------------------------------------------------------------------
# Replay-vs-oracle equivalence on heterogeneous mixes (every shipped mix)
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    @pytest.mark.parametrize("mix", sorted(named_scenarios()))
    def test_shipped_mixes_bit_identical_under_avr(self, mix):
        """Per-core approx regions + heterogeneous streams, AVR LLC."""
        _, context = _context(
            mix, config=SystemConfig.scaled(get_scenario(mix).total_cores),
            accesses=1_500,
        )
        config = SystemConfig.scaled(context.num_cores)
        trace = context.trace()
        ref = run_reference(
            build_system(
                AVR, config, context.layout, context.footprint_bytes
            ),
            trace,
        )
        vec = replay(
            build_system(AVR, config, context.layout, context.footprint_bytes),
            trace,
        )
        assert ref.metrics_equal(vec), ref.metric_diffs(vec)
        assert ref.core_cycles == vec.core_cycles

    @pytest.mark.parametrize("design", ["baseline", "truncate"])
    def test_heterogeneous_mix_bit_identical(self, design):
        _, context = _context("kmeans*2+heat@2")
        trace = context.trace()
        ref = run_reference(
            build_system(
                design, CONFIG, context.layout, context.footprint_bytes
            ),
            trace,
        )
        vec = replay(
            build_system(design, CONFIG, context.layout, context.footprint_bytes),
            trace,
        )
        assert ref.metrics_equal(vec), ref.metric_diffs(vec)

    def test_core_cycles_consistent_with_cycles(self):
        _, context = _context("kmeans*2+heat@2")
        sim = replay(
            build_system(BASELINE, CONFIG, context.layout, context.footprint_bytes),
            context.trace(),
        )
        assert len(sim.core_cycles) == CONFIG.num_cores
        assert sim.cycles >= max(sim.core_cycles)


# ----------------------------------------------------------------------
# Subset replays from the full mix's shared front end
# ----------------------------------------------------------------------
SIX_CORES = replace(CONFIG, num_cores=6)


def _emptied(trace, cores):
    """``trace`` with every core outside ``cores`` given an empty stream."""
    return GeneratedTrace(
        cores=[
            stream if c in cores else np.empty(0, dtype=TRACE_DTYPE)
            for c, stream in enumerate(trace.cores)
        ],
        iterations_simulated=trace.iterations_simulated,
        iterations_total=trace.iterations_total,
    )


class TestSharedFrontEnd:
    @pytest.fixture(scope="class")
    def mix(self):
        _, context = _context(
            "heat@2+lbm@2+orbit@2", config=SIX_CORES, accesses=1_500
        )
        trace = context.trace()
        return context, trace, compute_front_end(trace, SIX_CORES)

    def test_restricted_front_end_is_the_subset_front_end(self, mix):
        context, trace, front_end = mix
        subsets = scenario_subsets(len(context.plans))
        assert len(subsets) == 7
        for active in subsets:
            cores = context.active_cores(active)
            if cores is None:
                continue
            direct = compute_front_end(_emptied(trace, set(cores)), SIX_CORES)
            restricted = front_end.restrict(cores)
            assert set(direct.columns()) >= {"gap", "event_addr"}
            for name, column in direct.columns().items():
                assert restricted.columns()[name].dtype == column.dtype
                assert np.array_equal(restricted.columns()[name], column), (
                    active, name,
                )
            assert restricted.scale_factor == direct.scale_factor

    @pytest.mark.parametrize("design", [BASELINE, AVR])
    def test_subset_replays_match_the_oracle(self, mix, design):
        context, trace, front_end = mix
        layout = context.layout_for(design)
        for active in scenario_subsets(len(context.plans)):
            cores = {c for i in active for c in context.plans[i].cores}
            ref = run_reference(
                build_system(design, SIX_CORES, layout, context.footprint_bytes),
                _emptied(trace, cores),
            )
            sim = run_timing_job(
                design, SIX_CORES, layout, front_end,
                context.active_cores(active), context.footprint_bytes,
            )
            assert not ref.metric_diffs(sim), (active, ref.metric_diffs(sim))
            assert ref.core_cycles == sim.core_cycles

    def test_mix_sweep_filters_once(self, monkeypatch):
        from repro.cache.array_lru import BatchedPrivateFilter

        calls = []
        original = BatchedPrivateFilter.filter

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchedPrivateFilter, "filter", counting)
        result = run_sweep(MIX_SPEC)
        # 2 designs x 7 subsets (full mix, 3 solo, 3 leave-one-out)
        assert result.stats.timing_executed == 14
        assert len(calls) == 1


# ----------------------------------------------------------------------
# End-to-end evaluation + sweep/cache integration
# ----------------------------------------------------------------------
MIX_SPEC = SweepSpec(
    scenarios=(parse_mix("kmeans*2+heat@2"),),
    designs=(BASELINE, AVR),
    config=CONFIG,
    scales=(0.15,),
    max_accesses_per_core=ACCESSES,
)


class TestEvaluation:
    def test_contention_metrics_shape(self):
        ev = _evaluate(
            parse_mix("kmeans*2+heat@2").scaled(0.15), designs=(BASELINE, AVR)
        )
        for run in ev.runs.values():
            assert len(run.instances) == 3
            assert 0.0 < run.weighted_speedup <= 3.0 + 1e-9
            for inst in run.instances:
                assert len(inst.per_core_slowdown) == len(inst.cores)
                assert inst.solo_cycles > 0 and inst.corun_cycles > 0
                # Leave-one-out pressure is roughly the instance's own
                # demand plus what it induces on co-runners; timing and
                # interleave effects can shave a few misses either way,
                # but it must stay in the right ballpark.
                assert inst.pressure_llc_misses >= 0.5 * inst.solo_llc_misses
                assert inst.induced_llc_misses >= -0.5 * inst.solo_llc_misses
        assert ev.normalized_mix_time(BASELINE) == 1.0
        # AVR relieves the shared LLC/DRAM: the mix must not get slower
        assert ev.normalized_mix_time(AVR) <= 1.0

    def test_pure_scenario_spec_runs_no_workload_points(self):
        result = run_sweep(MIX_SPEC, jobs=1)
        assert len(result.evaluations) == 0
        assert len(result.scenario_evaluations) == 1
        ev = result.by_scenario()["kmeans*2+heat@2"]
        assert ev.runs[AVR].corun.cycles > 0

    def test_scenario_sweep_serial_parallel_identical(self):
        serial = run_sweep(MIX_SPEC, jobs=1).by_scenario()["kmeans*2+heat@2"]
        parallel = run_sweep(MIX_SPEC, jobs=2).by_scenario()["kmeans*2+heat@2"]
        for design in MIX_SPEC.designs:
            a, b = serial.runs[design], parallel.runs[design]
            assert a.corun.metrics_equal(b.corun)
            assert a.weighted_speedup == b.weighted_speedup
            for ia, ib in zip(a.instances, b.instances):
                assert ia.per_core_slowdown == ib.per_core_slowdown
                assert ia.pressure_llc_misses == ib.pressure_llc_misses

    def test_scenario_cache_cold_then_warm(self, tmp_path):
        cold = run_sweep(MIX_SPEC, jobs=1, cache_dir=tmp_path)
        assert cold.stats.executed > 0
        warm = run_sweep(MIX_SPEC, jobs=1, cache_dir=tmp_path)
        assert warm.stats.executed == 0
        a = cold.by_scenario()["kmeans*2+heat@2"]
        b = warm.by_scenario()["kmeans*2+heat@2"]
        for design in MIX_SPEC.designs:
            assert a.runs[design].corun.metrics_equal(b.runs[design].corun)

    def test_mix_shares_functional_jobs_with_workload_points(self, tmp_path):
        from dataclasses import replace

        solo_spec = SweepSpec(
            workloads=("heat",),
            designs=(BASELINE, AVR),
            config=CONFIG,
            scales=(0.15,),
            max_accesses_per_core=ACCESSES,
        )
        run_sweep(solo_spec, jobs=1, cache_dir=tmp_path)
        mixed = run_sweep(
            replace(MIX_SPEC, scenarios=(parse_mix("heat@2+heat@2"),)),
            jobs=1, cache_dir=tmp_path,
        )
        # heat's functional runs are already cached from the solo sweep;
        # the mix re-executes only timing subsets.
        assert mixed.stats.functional_executed == 0

    def test_without_baseline_design(self):
        import math

        ev = _evaluate(parse_mix("heat@1+lbm@1").scaled(0.15), designs=(AVR,))
        assert [d.name for d in ev.runs] == ["AVR"]
        assert ev.runs[AVR].weighted_speedup > 0
        assert math.isnan(ev.normalized_mix_time(AVR))

    def test_timing_key_ignores_cosmetic_name(self):
        from dataclasses import replace

        from repro.harness.scenario import scenario_timing_key

        named = ScenarioPoint(get_scenario("heat+lbm"))
        spelled = ScenarioPoint(get_scenario("heat@4+lbm@4"))
        assert named.scenario.name != spelled.scenario.name
        key = scenario_timing_key(named, AVR, CONFIG, (0, 1))
        assert key == scenario_timing_key(spelled, AVR, CONFIG, (0, 1))
        # ...but real content differences still change the key
        reseeded = replace(named, seed=1)
        assert key != scenario_timing_key(reseeded, AVR, CONFIG, (0, 1))
        assert key != scenario_timing_key(named, AVR, CONFIG, (0,))
