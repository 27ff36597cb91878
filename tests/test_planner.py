"""Tests for the design-space planner (repro.planner).

The anchors: an unbounded-budget plan *is* the exhaustive grid (same
Pareto front, independently recomputed), planning is deterministic
given (spec, seed), a budgeted plan meets the >=4x full-fidelity
savings the benchmark advertises, and a warm re-plan executes zero
sweep jobs because every probe shares the sweep engine's result cache.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.common.config import SystemConfig
from repro.designs import BASELINE, get_design
from repro.harness.sweep import SweepSpec, run_sweep
from repro.planner import (
    Candidate,
    Constraint,
    PlanSpec,
    Surrogate,
    candidate_features,
    enumerate_candidates,
    metric_matrix,
    nondominated_mask,
    nondominated_rank,
    rank_candidates,
    run_plan,
    rung_schedule,
)

#: micro search space every sweep-backed test shares (4 candidates)
MICRO = dict(
    workload="heat",
    designs=("AVR", "truncate"),
    thresholds_scales=(0.5, 1.0),
    t2_thresholds=(0.01,),
    objective="traffic",
    scale=0.12,
    max_accesses_per_core=2_000,
    num_cores=2,
)


# ----------------------------------------------------------------------
# rung schedule (pure arithmetic)
# ----------------------------------------------------------------------
class TestRungSchedule:
    def test_unbounded_budget_is_one_exhaustive_rung(self):
        (rung,) = rung_schedule(8, budget=0, eta=2, full_fidelity=50_000)
        assert rung.count == 8 and rung.fidelity == 50_000

    def test_budget_covering_population_is_exhaustive(self):
        (rung,) = rung_schedule(8, budget=8, eta=2, full_fidelity=50_000)
        assert rung.count == 8 and rung.fidelity == 50_000

    def test_counts_halve_to_budget_and_fidelity_climbs(self):
        rungs = rung_schedule(16, budget=2, eta=2, full_fidelity=48_000)
        assert [r.count for r in rungs] == [16, 8, 4, 2]
        assert [r.fidelity for r in rungs] == [6_000, 12_000, 24_000, 48_000]
        assert rungs[-1].fidelity == 48_000

    def test_min_fidelity_floors_the_ladder(self):
        rungs = rung_schedule(16, budget=2, eta=2, full_fidelity=48_000,
                              min_fidelity=20_000)
        assert [r.fidelity for r in rungs] == [20_000, 20_000, 24_000, 48_000]

    def test_floor_never_exceeds_full_fidelity(self):
        rungs = rung_schedule(4, budget=1, eta=2, full_fidelity=500)
        assert all(r.fidelity == 500 for r in rungs)

    def test_eta_three(self):
        rungs = rung_schedule(9, budget=1, eta=3, full_fidelity=27_000)
        assert [r.count for r in rungs] == [9, 3, 1]
        assert [r.fidelity for r in rungs] == [3_000, 9_000, 27_000]

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            rung_schedule(0, budget=0, eta=2, full_fidelity=1_000)


# ----------------------------------------------------------------------
# Pareto kernels (pure numpy)
# ----------------------------------------------------------------------
class TestPareto:
    def test_mask_keeps_only_nondominated_rows(self):
        values = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])
        assert nondominated_mask(values).tolist() == [True, True, True, False]

    def test_duplicates_all_stay_on_the_front(self):
        values = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert nondominated_mask(values).tolist() == [True, True, False]

    def test_rank_peels_fronts(self):
        values = np.array([[1.0, 4.0], [4.0, 1.0], [2.0, 5.0], [5.0, 2.0],
                           [6.0, 6.0]])
        assert nondominated_rank(values).tolist() == [0, 0, 1, 1, 2]

    def test_metric_matrix_negates_maximize_metrics(self):
        rows = [{"traffic": 0.5, "compression": 4.0},
                {"traffic": 0.6, "compression": 8.0}]
        matrix = metric_matrix(rows, ("traffic", "compression"))
        assert matrix[0].tolist() == [0.5, -4.0]
        assert matrix[1].tolist() == [0.6, -8.0]
        # higher compression must NOT be dominated by lower traffic alone
        assert nondominated_mask(matrix).all()

    def test_rank_candidates_feasible_first_then_rank_then_objective(self):
        rows = [
            {"traffic": 0.2, "error": 0.5, "compression": 1.0},   # infeasible
            {"traffic": 0.6, "error": 0.01, "compression": 1.0},  # front
            {"traffic": 0.7, "error": 0.02, "compression": 1.0},  # dominated
            {"traffic": 0.5, "error": 0.02, "compression": 1.0},  # front
        ]
        order = rank_candidates(
            ["a", "b", "c", "d"], rows, "traffic",
            (Constraint.parse("error<=0.1"),),
            ("traffic", "error", "compression"),
        )
        assert order == [3, 1, 2, 0]


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------
class TestConstraint:
    def test_parse_and_render_roundtrip(self):
        c = Constraint.parse("error<=0.05")
        assert (c.metric, c.op, c.value) == ("error", "<=", 0.05)
        assert Constraint.parse(c.render()) == c
        assert Constraint.parse("compression>=4").satisfied(4.0)

    def test_satisfied_directions(self):
        assert Constraint.parse("error<=0.05").satisfied(0.05)
        assert not Constraint.parse("error<=0.05").satisfied(0.051)
        assert not Constraint.parse("compression>=4").satisfied(3.9)

    @pytest.mark.parametrize("text", ["error<0.05", "bogus<=1", "error<=x",
                                      "error"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            Constraint.parse(text)


# ----------------------------------------------------------------------
# spec construction + serialization
# ----------------------------------------------------------------------
class TestPlanSpec:
    def test_validation_failures(self):
        with pytest.raises(ValueError, match="unknown workload"):
            PlanSpec(workload="nope")
        with pytest.raises(ValueError, match="unknown design"):
            PlanSpec(designs=("avrr",))
        with pytest.raises(ValueError, match="objective"):
            PlanSpec(objective="speed")
        with pytest.raises(ValueError, match="AVR toggle"):
            PlanSpec(avr_toggles=("enable_warp",))
        with pytest.raises(ValueError, match="eta"):
            PlanSpec(eta=1)
        with pytest.raises(ValueError, match="constraint"):
            PlanSpec(constraints=("error<0.05",))

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_roundtrip_preserves_identity(self, tmp_path, suffix):
        spec = PlanSpec(
            name="rt", workload="kmeans", designs=("AVR", "truncate"),
            thresholds_scales=(0.5, 1.0), t2_thresholds=(0.01, 0.04),
            approx_line_bytes=(16, 32), avr_toggles=("enable_dbuf",),
            objective="energy", constraints=("error<=0.05",),
            budget=4, eta=3, initial_candidates=6, seed=11,
            scale=0.5, max_accesses_per_core=3_000, num_cores=2,
        )
        path = spec.to_file(tmp_path / f"plan{suffix}")
        loaded = PlanSpec.from_file(path)
        assert loaded == spec
        assert loaded.content_hash() == spec.content_hash()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"workload": "heat", "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            PlanSpec.from_file(path)
        # the removed execution selectors fail the same way
        for key, value in (("engine", "vectorized"), ("cache_backend", "memory")):
            with pytest.raises(ValueError, match="unknown plan spec keys"):
                PlanSpec.from_mapping({"workload": "heat", key: value})

    def test_identity_excludes_execution_fields(self):
        spec = PlanSpec(**MICRO)
        relabeled = dataclasses.replace(
            spec, name="other", jobs=4, cache_dir="/tmp/c",
            trace_store="/tmp/t",
        )
        assert relabeled.content_hash() == spec.content_hash()
        assert dataclasses.replace(
            spec, budget=3
        ).content_hash() != spec.content_hash()

    def test_content_hash_memoized_and_survives_pickle(self):
        spec = PlanSpec(**MICRO)
        first = spec.content_hash()
        assert spec.__dict__["_content_hash"] == first
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.__dict__.get("_content_hash") == first
        assert clone.content_hash() == first


# ----------------------------------------------------------------------
# candidate enumeration
# ----------------------------------------------------------------------
class TestEnumerate:
    def test_micro_space_is_the_cross_product(self):
        cands = enumerate_candidates(PlanSpec(**MICRO))
        assert len(cands) == 4
        assert [c.label() for c in cands] == [
            "AVR~s0.5 t2=0.01", "AVR t2=0.01",
            "truncate~s0.5 t2=0.01", "truncate t2=0.01",
        ]

    def test_axes_apply_only_where_meaningful(self):
        spec = PlanSpec(
            workload="heat", designs=("AVR", "truncate"),
            approx_line_bytes=(16, 32), avr_toggles=("enable_dbuf",),
        )
        labels = [c.label() for c in enumerate_candidates(spec)]
        # widths widen truncate only; toggles widen AVR only; truncate's
        # default width is 32, so w32 collapses onto the base design
        assert labels == [
            "AVR", "AVR~no-enable_dbuf",
            "truncate~w16", "truncate",
        ]

    def test_duplicate_identities_collapse(self):
        spec = PlanSpec(workload="heat", designs=("AVR",),
                        thresholds_scales=(1.0, 1.0))
        assert len(enumerate_candidates(spec)) == 1

    def test_enumeration_and_keys_are_deterministic(self):
        a = enumerate_candidates(PlanSpec(**MICRO))
        b = enumerate_candidates(PlanSpec(**MICRO))
        assert [c.key() for c in a] == [c.key() for c in b]

    def test_default_thresholds_candidate(self):
        c = Candidate(design=get_design("AVR"))
        assert c.thresholds() is None and c.label() == "AVR"


# ----------------------------------------------------------------------
# surrogate
# ----------------------------------------------------------------------
class TestSurrogate:
    def test_underdetermined_fit_returns_none(self):
        c = Candidate(design=get_design("AVR"), t2=0.01)
        features = [candidate_features(c, 1_000, 2_000)]
        assert Surrogate.fit(features, [0.5]) is None
        assert Surrogate.fit([], []) is None

    def test_fit_recovers_a_linear_function(self):
        rng = np.random.default_rng(3)
        coef = rng.normal(size=9)
        features = [rng.normal(size=9) for _ in range(40)]
        values = [float(f @ coef) for f in features]
        model = Surrogate.fit(features, values)
        assert model is not None and model.n_points == 40
        probe = rng.normal(size=9)
        assert model.predict(probe) == pytest.approx(float(probe @ coef))


# ----------------------------------------------------------------------
# end-to-end planning (sweep-backed, shared warm cache)
# ----------------------------------------------------------------------
class TestRunPlan:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plan-cache")

    def test_unbounded_budget_recovers_the_exhaustive_front(self, cache_dir):
        spec = PlanSpec(**MICRO, budget=0, cache_dir=str(cache_dir))
        result = run_plan(spec)
        assert len(result.rungs) == 1
        assert result.rungs[0].fidelity == spec.max_accesses_per_core
        assert result.stats.full_fidelity_evals == result.stats.candidates

        # Recompute the front independently through a plain sweep.
        candidates = enumerate_candidates(spec)
        sweep = run_sweep(
            SweepSpec(
                workloads=(spec.workload,),
                designs=(BASELINE,) + tuple(c.design for c in candidates),
                config=SystemConfig.scaled(num_cores=spec.resolved_cores()),
                scales=(spec.scale,),
                seeds=(spec.trace_seed,),
                thresholds=(candidates[0].thresholds(),),
                max_accesses_per_core=spec.max_accesses_per_core,
            ),
            cache_dir=str(cache_dir),
        )
        ev = sweep.by_workload()[spec.workload]
        rows = [
            {
                "traffic": ev.normalized(c.design, "traffic"),
                "error": ev.runs[c.design].output_error,
                "compression": ev.runs[c.design].compression_ratio,
            }
            for c in candidates
        ]
        mask = nondominated_mask(metric_matrix(rows, spec.pareto_metrics))
        expected = {c.key() for c, keep in zip(candidates, mask) if keep}
        assert {o.candidate.key() for o in result.front} == expected

    def test_budgeted_plan_saves_4x_full_fidelity_evals(self, cache_dir):
        spec = PlanSpec(**MICRO, budget=1, cache_dir=str(cache_dir))
        result = run_plan(spec)
        assert [len(r.outcomes) for r in result.rungs] == [4, 2, 1]
        assert result.stats.full_fidelity_evals == 1
        assert result.stats.savings >= 4.0
        assert result.stats.low_fidelity_evals == 6
        # the survivor is the exhaustive traffic winner (front metrics
        # at low fidelity suffice to steer promotion on this space)
        assert result.recommended[0].metrics["traffic"] < 1.0

    def test_planning_is_deterministic(self, cache_dir):
        spec = PlanSpec(**MICRO, budget=1, seed=5, cache_dir=str(cache_dir))
        first = run_plan(spec).to_mapping()
        second = run_plan(spec).to_mapping()
        assert first == second

    def test_warm_replan_executes_nothing(self, cache_dir):
        spec = PlanSpec(**MICRO, budget=1, cache_dir=str(cache_dir))
        result = run_plan(spec)  # cache warmed by the budgeted test
        assert result.stats.jobs_executed == 0
        assert result.stats.full_fidelity_executed == 0
        assert result.stats.cache_misses == 0
        # ... and the surrogate now has cached points to harvest
        assert result.stats.surrogate_points > 0

    def test_constraints_gate_the_front(self, cache_dir):
        spec = PlanSpec(**MICRO, budget=0, cache_dir=str(cache_dir),
                        constraints=("error<=1e-9",))
        result = run_plan(spec)
        assert result.front == () and result.recommended == ()
        assert all(not o.feasible for o in result.rungs[-1].outcomes)

    def test_prune_experiment_narrows_the_grid(self, cache_dir):
        from repro.experiment import ExperimentSpec

        spec = PlanSpec(**MICRO, budget=0, cache_dir=str(cache_dir))
        result = run_plan(spec)
        exp = ExperimentSpec(
            workloads=("heat",),
            designs=("baseline", "AVR", "truncate"),
            t2_thresholds=(0.005, 0.01, 0.02),
            scales=(0.12,), max_accesses_per_core=2_000, num_cores=2,
        )
        pruned = result.prune_experiment(exp)
        front_names = {o.candidate.design.name for o in result.front}
        assert set(pruned.designs) == front_names
        assert pruned.t2_thresholds == (0.01,)
        assert pruned.content_hash() != exp.content_hash()
        # pruned designs all resolve through the registry
        from repro.designs import resolve_designs

        resolve_designs(pruned.designs)

    def test_initial_candidates_cap_with_seeded_fallback(self, tmp_path):
        # fresh cache: no surrogate data, so rung 0 uses the seeded
        # shuffle; the plan stays a pure function of (spec, seed)
        spec = PlanSpec(**MICRO, budget=1, initial_candidates=2, seed=3,
                        cache_dir=str(tmp_path / "c"))
        first = run_plan(spec)
        assert [len(r.outcomes) for r in first.rungs] == [2, 1]
        second = run_plan(spec)
        # cache-state stats differ between the cold and warm run; the
        # plan itself (rungs, promotions, front) must not
        a, b = first.to_mapping(), second.to_mapping()
        a.pop("stats"), b.pop("stats")
        assert a == b


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plan-cli-cache")

    def _argv(self, cache_dir, *extra):
        return [
            "plan", "--workload", "heat", "--designs", "AVR", "truncate",
            "--scales", "0.5", "1.0", "--t2", "0.01", "--budget", "1",
            "--scale", "0.12", "--accesses", "2000", "--cores", "2",
            "--cache-dir", str(cache_dir), *extra,
        ]

    def test_plan_command_prints_front_and_savings(self, cache_dir, capsys):
        from repro.__main__ import main

        assert main(self._argv(cache_dir)) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "4.0x fewer full evals" in out

    def test_expect_cached_contract(self, cache_dir, capsys):
        from repro.__main__ import main

        assert main(self._argv(cache_dir, "--expect-cached")) == 0
        json_path = None
        assert main(self._argv(cache_dir, "--json", "-")) == 0
        payload = capsys.readouterr().out
        start = payload.index("{")
        report = json.loads(payload[start:])
        assert report["stats"]["savings"] >= 4.0
        assert [r["fidelity"] for r in report["rungs"]][-1] == 2000
        assert json_path is None

    def test_spec_file_with_overrides(self, cache_dir, tmp_path, capsys):
        from repro.__main__ import main

        spec = PlanSpec(**MICRO, budget=0)
        path = spec.to_file(tmp_path / "plan.toml")
        code = main(["plan", str(path), "--budget", "1",
                     "--cache-dir", str(cache_dir)])
        assert code == 0
        assert "budget 1" in capsys.readouterr().out

    def test_bad_constraint_exits_2(self, capsys):
        from repro.__main__ import main

        code = main(["plan", "--constraint", "error<0.05"])
        assert code == 2
        assert "constraint" in capsys.readouterr().err
