"""Differential suite pinning columnar trace synthesis to the fragment loop.

Every workload's generated stream must be *bit-identical* between
:func:`repro.trace.generate_trace` (the columnar fast path) and
:func:`oracles.generate_trace_reference` (the historical
per-(iteration, phase) fragment loop) — across core counts, two access
budgets and multiple seeds.  A heterogeneous scenario mix is pushed
through full per-instance generation + composition the same way, so the
equivalence holds end to end, not just per workload.
"""

import numpy as np
import pytest

from oracles import generate_trace_reference
from repro.approx import ApproxMemory
from repro.scenario import (
    assign_offsets,
    compose_traces,
    get_scenario,
    plan_instances,
)
from repro.trace import generate_trace
from repro.workloads import WORKLOADS, make_workload

#: small-but-representative configuration: every workload still emits
#: every phase type under this budget (most emit a one-iteration prefix)
SCALE = 0.15
BUDGET = 2_500
#: budgets of the per-workload suite: ``BUDGET``, plus one under which
#: every workload emits at least two iterations at every core count and
#: several (orbit and wrf at every core count, among others) run to
#: completion, so the iteration tiling and the untruncated branch of
#: :func:`~repro.trace.generator.budget_iterations` are covered too
BUDGETS = (BUDGET, 40_000)


def allocate_only(workload) -> ApproxMemory:
    """Region layout without the functional computation (all the
    trace generator consumes)."""
    mem = ApproxMemory()
    workload.allocate(mem)
    return mem


def assert_traces_identical(a, b):
    assert a.iterations_simulated == b.iterations_simulated
    assert a.iterations_total == b.iterations_total
    assert len(a.cores) == len(b.cores)
    for core, (x, y) in enumerate(zip(a.cores, b.cores)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y), f"core {core} diverged"


def generate_both(spec, mem, **kwargs):
    return (
        generate_trace(spec, mem, **kwargs),
        generate_trace_reference(spec, mem, **kwargs),
    )


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("num_cores", [1, 4, 8])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bit_identical(self, name, num_cores, budget, seed):
        workload = make_workload(name, scale=SCALE)
        vec, ref = generate_both(
            workload.trace_spec(),
            allocate_only(workload),
            num_cores=num_cores,
            max_accesses_per_core=budget,
            seed=seed,
        )
        assert vec.total_accesses > 0
        if budget > BUDGET:
            assert vec.iterations_simulated >= 2
        assert_traces_identical(vec, ref)


class TestScenarioCompositionEquivalence:
    def test_heterogeneous_mix_bit_identical(self):
        """kmeans*2+heat@2 through per-instance generation + composition."""
        scenario = get_scenario("kmeans*2+heat@2").scaled(SCALE)
        plans = plan_instances(scenario, seed=0)
        workloads = [
            make_workload(
                plan.entry.workload,
                scale=plan.entry.scale,
                **dict(plan.entry.workload_kwargs),
            )
            for plan in plans
        ]
        mems = [allocate_only(w) for w in workloads]
        offsets = assign_offsets([mem.address_span for mem in mems])

        def compose(generate):
            per_instance = [
                generate(
                    workload.trace_spec(),
                    mem,
                    num_cores=plan.entry.cores,
                    max_accesses_per_core=BUDGET,
                    seed=plan.seed,
                )
                for plan, workload, mem in zip(plans, workloads, mems)
            ]
            return compose_traces(
                per_instance, plans, offsets, scenario.total_cores
            )

        vec = compose(generate_trace)
        ref = compose(generate_trace_reference)
        assert vec.total_accesses > 0
        assert len(vec.cores) == scenario.total_cores
        assert_traces_identical(vec, ref)

    def test_instances_of_one_workload_differ(self):
        """Instance-level seed spawning must survive the fast path: two
        kmeans instances in one mix draw different jitter streams."""
        scenario = get_scenario("kmeans*2+heat@2").scaled(SCALE)
        plans = plan_instances(scenario, seed=0)
        kmeans_plans = [p for p in plans if p.entry.workload == "kmeans"]
        assert len(kmeans_plans) == 2
        workload = make_workload("kmeans", scale=SCALE)
        mem = allocate_only(workload)
        first, second = (
            generate_trace(
                workload.trace_spec(),
                mem,
                num_cores=plan.entry.cores,
                max_accesses_per_core=BUDGET,
                seed=plan.seed,
            )
            for plan in kmeans_plans
        )
        assert not all(
            np.array_equal(x["gap"], y["gap"])
            for x, y in zip(first.cores, second.cores)
        )
