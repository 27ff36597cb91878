"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro import MODEL_VERSION
from repro.__main__ import main
from repro.harness.cache import ResultCache


def test_overheads_command(capsys):
    assert main(["overheads"]) == 0
    out = capsys.readouterr().out
    assert "93" in out
    assert "18" in out


def test_workload_command_small(capsys):
    code = main([
        "experiment", "--workloads", "heat",
        "--scale", "0.15", "--cores", "2", "--accesses", "5000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 4: AVR compression" in out
    for design in ("dganger", "truncate", "ZeroAVR", "AVR"):
        assert design in out


def test_evaluate_subset(capsys):
    code = main([
        "experiment", "--workloads", "heat", "lbm", "--designs", "baseline",
        "AVR", "--scale", "0.1", "--cores", "2", "--accesses", "2000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Figure 13" in out
    assert "2 workload(s)" in out


def test_evaluate_without_baseline_design(capsys):
    """Tables 3-4 print; the normalized figures need a baseline."""
    code = main([
        "experiment", "--workloads", "bscholes", "--designs", "AVR",
        "--scale", "0.05", "--cores", "2", "--accesses", "500",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Table 4" in out
    assert "Figure 9" not in out
    assert "no 'baseline' design" in out


def test_flags_match_spec_file(tmp_path, capsys):
    """Flags build the same experiment a spec file describes."""
    import json

    from repro.experiment import ExperimentSpec, run_experiment
    from repro.harness import experiment_result_to_mapping

    spec = ExperimentSpec(
        workloads=("heat",), scenarios=("heat@1+lbm@1",),
        designs=("baseline", "AVR"), scales=(0.1,), seeds=(3,),
        max_accesses_per_core=1500, num_cores=2,
    )
    code = main([
        "experiment", "--workloads", "heat", "--scenarios", "heat@1+lbm@1",
        "--designs", "baseline", "AVR", "--scale", "0.1", "--seed", "3",
        "--accesses", "1500", "--cores", "2", "--json", "-",
    ])
    assert code == 0
    out = capsys.readouterr().out
    flags = json.loads(out[out.index("{\n"):])
    expected = experiment_result_to_mapping(
        run_experiment(spec.to_file(tmp_path / "spec.toml"))
    )
    assert flags["spec_hash"] == expected["spec_hash"]
    for key in ("evaluations", "scenario_evaluations"):
        assert flags[key] == expected[key]


def test_flags_keep_the_sweep_cache_keys(tmp_path, capsys):
    """A cache filled by run_sweep on the same grid serves the flags."""
    from repro.common.config import SystemConfig
    from repro.harness.sweep import SweepSpec, run_sweep
    from repro.scenario import get_scenario

    cache = str(tmp_path / "cache")
    run_sweep(SweepSpec(
        workloads=("heat",), scenarios=(get_scenario("heat@1+lbm@1"),),
        designs=("baseline", "AVR"), config=SystemConfig.scaled(num_cores=2),
        scales=(0.1,), max_accesses_per_core=1500,
    ), cache_dir=cache)
    code = main([
        "experiment", "--workloads", "heat", "--scenarios", "heat@1+lbm@1",
        "--designs", "baseline", "AVR", "--scale", "0.1", "--cores", "2",
        "--accesses", "1500", "--cache-dir", cache, "--expect-cached",
    ])
    assert code == 0
    assert "0 job(s) executed" in capsys.readouterr().out


def test_scenario_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("heat+lbm", "kmeans4+bscholes4", "all7"):
        assert name in out
    for name in ("baseline", "avr-conservative", "heat", "bscholes"):
        assert name in out


def test_scenario_command_small(capsys):
    code = main([
        "experiment", "--scenarios", "heat@1+lbm@1",
        "--scale", "0.15", "--accesses", "3000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "weighted speedup" in out
    assert "per-instance contention" in out
    assert "per-core slowdown" in out
    assert "heat#0" in out and "lbm#1" in out


def test_scenario_without_baseline_design(capsys):
    code = main([
        "experiment", "--scenarios", "heat@1+lbm@1",
        "--scale", "0.15", "--accesses", "3000", "--designs", "AVR",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "weighted speedup" in out
    assert "mix time" not in out  # nothing to normalize against


def test_scenario_rejects_unknown_mix(capsys):
    assert main(["experiment", "--scenarios", "definitely_not_a_workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_scenario_rejects_too_few_cores(capsys):
    assert main(["experiment", "--scenarios", "heat@2+lbm@2", "--cores", "2"]) == 2
    assert "needs 4 cores" in capsys.readouterr().err


def test_rejects_nonpositive_cores_and_accesses():
    for argv in (
        ["experiment", "--workloads", "heat", "--cores", "0"],
        ["experiment", "--workloads", "heat", "--accesses", "0"],
        ["experiment", "--cores", "-3"],
        ["experiment", "--scenarios", "heat+lbm", "--accesses", "-1"],
        ["ablate", "heat", "--cores", "0"],
    ):
        with pytest.raises(SystemExit):
            main(argv)


@pytest.fixture()
def warm_cache(tmp_path):
    """A cache dir seeded by one micro workload run."""
    code = main([
        "experiment", "--workloads", "heat", "--scale", "0.1", "--cores", "2",
        "--accesses", "2000", "--designs", "AVR",
        "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    return tmp_path


def test_cache_stats_and_ls(warm_cache, capsys):
    assert main(["cache", "stats", str(warm_cache)]) == 0
    out = capsys.readouterr().out
    assert "entries:" in out and "stale:     0 dir(s)" in out

    assert main(["cache", "ls", str(warm_cache)]) == 0
    keys = capsys.readouterr().out.split()
    assert keys and all(len(k) == 64 for k in keys)

    prefix = keys[0][:2]
    assert main(["cache", "ls", str(warm_cache), "--prefix", prefix]) == 0
    filtered = capsys.readouterr().out.split()
    assert filtered == [k for k in keys if k.startswith(prefix)]


def test_cache_stats_reports_the_trace_store(warm_cache, capsys):
    assert main(["cache", "stats", str(warm_cache)]) == 0
    line = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.strip().startswith("traces:")
    )
    assert "1 front end(s)" in line
    on_disk = sum(
        f.stat().st_size
        for f in (warm_cache / f"m{MODEL_VERSION}" / "traces").rglob("*")
        if f.is_file()
    )
    assert f"{on_disk:,} bytes" in line


def test_cache_stats_without_a_trace_store(tmp_path, capsys):
    assert main(["cache", "stats", str(tmp_path)]) == 0
    assert "0 front end(s), 0 bytes" in capsys.readouterr().out
    assert not (tmp_path / "traces").exists()


def test_added_design_maps_the_stored_front_end(warm_cache, capsys):
    code = main([
        "experiment", "--workloads", "heat", "--scale", "0.1", "--cores", "2",
        "--accesses", "2000", "--designs", "AVR", "truncate",
        "--cache-dir", str(warm_cache),
    ])
    assert code == 0
    assert "1 front end(s) mapped, 0 computed" in capsys.readouterr().out


def test_cache_verify_ok_and_corrupt(warm_cache, capsys):
    assert main(["cache", "verify", str(warm_cache)]) == 0
    assert "ok" in capsys.readouterr().out

    victim = next(warm_cache.glob("m*/*/*.pkl"))
    victim.write_bytes(b"torn write")
    assert main(["cache", "verify", str(warm_cache)]) == 1
    captured = capsys.readouterr()
    assert "corrupt" in captured.out


def test_cache_gc_dry_run_then_evict(warm_cache, capsys):
    assert main([
        "cache", "gc", str(warm_cache), "--max-bytes", "0", "--dry-run",
    ]) == 0
    assert "would remove" in capsys.readouterr().out
    assert any(warm_cache.glob("m*/*/*.pkl"))

    assert main(["cache", "gc", str(warm_cache), "--max-bytes", "0"]) == 0
    assert "removed" in capsys.readouterr().out
    assert not any(warm_cache.glob("m*/*/*.pkl"))


def test_cache_gc_sweeps_orphaned_tmp(warm_cache, capsys):
    # A shard dir specifically — the model directory also holds traces/.
    shard = next(
        d for d in (warm_cache / f"m{MODEL_VERSION}").iterdir()
        if d.is_dir() and len(d.name) == 2
    )
    orphan = shard / "leftover.tmp"
    orphan.write_bytes(b"half a write")
    assert main(["cache", "gc", str(warm_cache), "--tmp-age", "0"]) == 0
    assert "1 tmp file(s)" in capsys.readouterr().out
    assert not orphan.exists()


def test_cache_gc_sweeps_the_trace_stores_orphaned_tmp(warm_cache, capsys):
    """What a crashed trace-store write leaves is counted and swept."""
    store = ResultCache(warm_cache, read_only=True).root / "traces"
    orphan = next(d for d in store.iterdir() if d.is_dir()) / "crashed.tmp"
    orphan.write_bytes(b"half a trace")
    stat = orphan.stat()
    os.utime(orphan, (stat.st_atime - 7200, stat.st_mtime - 7200))
    assert main(["cache", "stats", str(warm_cache)]) == 0
    assert "tmp files: 1" in capsys.readouterr().out
    assert main(["cache", "gc", str(warm_cache)]) == 0
    assert "removed 1 tmp file(s)" in capsys.readouterr().out
    assert not orphan.exists()


def test_legacy_flat_layout_is_stale(warm_cache, capsys):
    """A cache laid out before model directories (shards and traces/ at
    the top) is listed by ``stats`` and removed by ``gc --stale``."""
    model = warm_cache / f"m{MODEL_VERSION}"
    flat = sorted(child.name for child in model.iterdir())
    for name in flat:
        (model / name).rename(warm_cache / name)
    model.rmdir()
    assert "traces" in flat and len(flat) > 1

    assert main(["cache", "stats", str(warm_cache)]) == 0
    out = capsys.readouterr().out
    assert "entries:   0" in out
    assert f"stale:     {len(flat)} dir(s)" in out
    assert "    traces/ " in out

    gc = ["cache", "gc", str(warm_cache), "--stale"]
    assert main([*gc, "--dry-run"]) == 0
    assert f"would remove 0 tmp file(s), {len(flat)} stale dir(s)" in (
        capsys.readouterr().out
    )
    assert all((warm_cache / name).exists() for name in flat)

    assert main(gc) == 0
    assert f"removed 0 tmp file(s), {len(flat)} stale dir(s)" in (
        capsys.readouterr().out
    )
    assert [p.name for p in warm_cache.iterdir()] == [model.name]


def test_cache_rejects_missing_dir(tmp_path, capsys):
    assert main(["cache", "stats", str(tmp_path / "nope")]) == 2
    assert "not a cache directory" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--engine", "reference"),
    ("--cache-backend", "memory"),
])
def test_removed_selector_flags_rejected(tmp_path, flag, value):
    with pytest.raises(SystemExit):
        main([
            "experiment", "--workloads", "heat", "--scale", "0.1",
            "--cores", "2", "--accesses", "2000", "--designs", "AVR",
            "--cache-dir", str(tmp_path), flag, value,
        ])


def test_ablate_seed_changes_results(capsys):
    outputs = []
    for seed in ("0", "7"):
        assert main([
            "ablate", "bscholes", "--scale", "0.05", "--cores", "2",
            "--accesses", "500", "--seed", seed,
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("line, bad_key", [
    ('workloadz = ["heat"]', "workloadz"),
    ('workload = "heat"', "workload"),  # the field is `workloads`
])
def test_submit_rejects_mistyped_spec_before_connecting(
    tmp_path, monkeypatch, capsys, line, bad_key
):
    """A misspelt experiment field fails locally and names the key."""
    from repro.serve.client import ServeClient

    def connect(self):
        raise AssertionError("submit connected for an invalid spec")

    monkeypatch.setattr(ServeClient, "connect", connect)
    spec = tmp_path / "typo.toml"
    spec.write_text(f'name = "typo"\n{line}\n')
    code = main([
        "submit", str(spec), "--socket", str(tmp_path / "missing.sock"),
    ])
    assert code == 2
    assert f"unknown experiment spec keys ['{bad_key}']" in (
        capsys.readouterr().err
    )


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["experiment", "--workloads", "nope"])
