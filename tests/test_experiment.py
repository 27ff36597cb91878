"""Tests for the declarative Experiment API (repro.experiment)."""

from __future__ import annotations

import pytest

from repro.experiment import ExperimentSpec, run_experiment

SMALL = dict(
    name="small",
    workloads=("heat",),
    designs=("baseline", "AVR"),
    scales=(0.12,),
    max_accesses_per_core=2_000,
    num_cores=2,
)


class TestSpecConstruction:
    def test_defaults_are_the_paper_grid(self):
        spec = ExperimentSpec()
        assert spec.designs == ("baseline", "dganger", "truncate", "ZeroAVR", "AVR")
        assert spec.workloads == () and spec.scenarios == ()
        assert spec.resolved_cores() == 8

    def test_rejects_unknown_design_with_suggestions(self):
        with pytest.raises(ValueError, match="did you mean"):
            ExperimentSpec(designs=("baseline", "avrr"))

    def test_rejects_unknown_workload_and_scenario(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentSpec(workloads=("nope",))
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentSpec(scenarios=("nope+heat",))

    def test_rejects_empty_designs_and_bad_jobs(self):
        with pytest.raises(ValueError, match="at least one design"):
            ExperimentSpec(designs=())
        with pytest.raises(ValueError, match="jobs"):
            ExperimentSpec(jobs=0)
        for accesses in (0, -5):
            with pytest.raises(ValueError, match="max_accesses_per_core"):
                ExperimentSpec(max_accesses_per_core=accesses)
        with pytest.raises(ValueError, match="num_cores"):
            ExperimentSpec(num_cores=0)
        # a machine narrower than a mix fails at construction, not mid-run
        with pytest.raises(ValueError, match="needs 4 cores"):
            ExperimentSpec(scenarios=("heat@2+lbm@2",), num_cores=2)
        # T2 must lie in (0, 1]: 0 approximates nothing, 2 is no bound
        for t2 in (0.0, 2.0):
            with pytest.raises(ValueError, match="T2 threshold"):
                ExperimentSpec(t2_thresholds=(t2,))

    def test_scenario_widens_machine(self):
        spec = ExperimentSpec(workloads=(), scenarios=("heat@4+lbm@4",))
        assert spec.resolved_cores() == 8
        wide = ExperimentSpec(workloads=(), scenarios=("heat@8+lbm@8",))
        assert wide.resolved_cores() == 16
        pinned = ExperimentSpec(scenarios=("heat@1+lbm@1",), num_cores=2,
                                workloads=())
        assert pinned.resolved_cores() == 2

    def test_hashable_and_picklable(self):
        import pickle

        spec = ExperimentSpec(**SMALL)
        assert hash(spec) == hash(ExperimentSpec(**SMALL))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSerialization:
    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_roundtrip_bit_identity(self, tmp_path, suffix):
        spec = ExperimentSpec(
            name="rt",
            workloads=("heat", "kmeans"),
            scenarios=("heat@1+lbm@1",),
            designs=("baseline", "AVR", "truncate-16"),
            scales=(0.15, 1.0),
            seeds=(0, 7),
            t2_thresholds=(0.01, 0.04),
            max_accesses_per_core=3_000,
            num_cores=2,
            jobs=2,
            cache_dir=".cache",
        )
        path = tmp_path / f"spec{suffix}"
        spec.to_file(path)
        loaded = ExperimentSpec.from_file(path)
        assert loaded == spec
        assert loaded.content_hash() == spec.content_hash()
        # Dumping the loaded spec again produces byte-identical files.
        path2 = tmp_path / f"spec2{suffix}"
        loaded.to_file(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_cross_format_identity(self, tmp_path):
        spec = ExperimentSpec(**SMALL)
        toml = ExperimentSpec.from_file(spec.to_file(tmp_path / "s.toml"))
        json_ = ExperimentSpec.from_file(spec.to_file(tmp_path / "s.json"))
        assert toml == json_ == spec
        assert toml.content_hash() == json_.content_hash()

    def test_unknown_key_rejected(self):
        # ``engine`` and ``cache_backend`` were execution selectors that
        # could not change a result; the unknown-key error is the
        # migration path for old spec files and daemon submissions.
        for key, value in (
            ("worloads", ["heat"]),
            ("engine", "vectorized"),
            ("cache_backend", "memory"),
        ):
            with pytest.raises(ValueError, match="unknown experiment spec keys"):
                ExperimentSpec.from_mapping({"workloads": ["heat"], key: value})

    def test_content_hash_is_pinned(self):
        """Identity digests are stable across releases, so spec hashes
        recorded by earlier runs (reports, daemon logs) stay valid."""
        assert ExperimentSpec(**SMALL).content_hash() == (
            "bf0cc276f518e9da685bd1dd0f52493b7f2c65ee2bb21490af1ce7faa3532cb6"
        )
        assert ExperimentSpec().content_hash() == (
            "8b37f880de22408abb73cfeb996bf78453d95f3b0eede41c71cff418234ea871"
        )

    def test_content_hash_covers_grid_identity_only(self):
        base = ExperimentSpec(**SMALL)
        relabeled = ExperimentSpec(**{**SMALL, "name": "other"})
        parallel = ExperimentSpec(**{**SMALL, "jobs": 4,
                                     "cache_dir": "/tmp/x",
                                     "trace_store": "off"})
        assert relabeled.content_hash() == base.content_hash()
        assert parallel.content_hash() == base.content_hash()
        different = ExperimentSpec(**{**SMALL, "seeds": (1,)})
        assert different.content_hash() != base.content_hash()

    def test_content_hash_memoized_and_survives_pickle(self):
        import pickle

        spec = ExperimentSpec(**SMALL)
        first = spec.content_hash()
        # the canonicalization pass runs once; later calls hit the memo
        assert spec.__dict__["_content_hash"] == first
        assert spec.content_hash() is first
        # the memo rides along through pickling instead of being
        # recomputed in every process that receives the spec
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.__dict__.get("_content_hash") == first
        assert clone.content_hash() == first

    def test_content_hash_ignores_field_order_in_file(self, tmp_path):
        a = tmp_path / "a.toml"
        b = tmp_path / "b.toml"
        a.write_text('name = "x"\nworkloads = ["heat"]\nnum_cores = 2\n')
        b.write_text('num_cores = 2\nname = "x"\nworkloads = ["heat"]\n')
        sa, sb = ExperimentSpec.from_file(a), ExperimentSpec.from_file(b)
        assert sa == sb and sa.content_hash() == sb.content_hash()

    def test_example_spec_loads(self):
        from pathlib import Path

        example = Path(__file__).resolve().parent.parent / "examples" / "experiment_spec.toml"
        spec = ExperimentSpec.from_file(example)
        assert spec.name == "quickstart"
        assert "avr-conservative" in spec.designs
        assert spec.scenarios


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("exp-cache")

    def test_matches_programmatic_path_and_shares_cache(self, cache_dir):
        from repro.harness.sweep import run_sweep

        spec = ExperimentSpec(**SMALL)
        result = run_experiment(spec, cache_dir=cache_dir)
        assert result.stats.executed > 0
        ev = result.by_workload()["heat"]

        # The same grid, programmatically: bit-identical results AND a
        # fully warm cache — specs and code address identical job units.
        sweep = run_sweep(spec.to_sweep_spec(), cache_dir=cache_dir)
        assert sweep.stats.executed == 0
        ev2 = sweep.by_workload()["heat"]
        assert ev2.runs["AVR"].timing.metrics_equal(ev.runs["AVR"].timing)
        assert ev2.runs["AVR"].output_error == ev.runs["AVR"].output_error

    def test_warm_rerun_executes_nothing(self, cache_dir):
        spec = ExperimentSpec(**SMALL)
        again = run_experiment(spec, cache_dir=cache_dir)
        assert again.stats.executed == 0
        assert again.stats.cache_hits > 0

    def test_accepts_spec_path(self, tmp_path, cache_dir):
        path = ExperimentSpec(**SMALL).to_file(tmp_path / "spec.toml")
        result = run_experiment(path, cache_dir=cache_dir)
        assert result.stats.executed == 0  # same grid, still warm
        assert result.spec.name == "small"

    def test_scenario_experiment(self):
        spec = ExperimentSpec(
            name="mix",
            workloads=(),
            scenarios=("heat@1+lbm@1",),
            designs=("baseline", "AVR"),
            scales=(0.15,),
            max_accesses_per_core=2_000,
        )
        result = run_experiment(spec)
        sev = result.by_scenario()["heat@1+lbm@1"]
        assert sev.runs["AVR"].weighted_speedup > 0
        assert not result.evaluations  # mixes bring their own workloads


class TestExperimentCLI:
    def test_cold_then_warm_with_expect_cached(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = ExperimentSpec(**SMALL).to_file(tmp_path / "spec.toml")
        cache = str(tmp_path / "cache")

        assert main(["experiment", str(spec_path), "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "sweep:" in out

        # Warm: fully cache-served, --expect-cached passes.
        assert main(["experiment", str(spec_path), "--cache-dir", cache,
                     "--expect-cached"]) == 0
        out = capsys.readouterr().out
        assert "0 job(s) executed" in out

        # Cold cache with --expect-cached fails loudly.
        assert main(["experiment", str(spec_path), "--cache-dir",
                     str(tmp_path / "cold"), "--expect-cached"]) == 1
        assert "expected a fully cache-served run" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        from repro.__main__ import main

        assert main(["experiment", "no-such-spec.toml"]) == 2
        assert "error:" in capsys.readouterr().err
