"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_overheads_command(capsys):
    assert main(["overheads"]) == 0
    out = capsys.readouterr().out
    assert "93" in out
    assert "18" in out


def test_workload_command_small(capsys):
    code = main([
        "workload", "heat",
        "--scale", "0.15", "--cores", "2", "--accesses", "5000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "AVR ratio" in out
    for design in ("dganger", "truncate", "ZeroAVR", "AVR"):
        assert design in out


def test_evaluate_subset(capsys):
    code = main([
        "evaluate", "--workloads", "heat",
        "--scale", "0.15", "--cores", "2", "--accesses", "5000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Figure 13" in out


def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("heat+lbm", "kmeans4+bscholes4", "all7"):
        assert name in out


def test_scenario_command_small(capsys):
    code = main([
        "scenario", "heat@1+lbm@1",
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
        "scenario", "heat@1+lbm@1",
        "--scale", "0.15", "--accesses", "3000", "--designs", "AVR",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "weighted speedup" in out
    assert "mix time" not in out  # nothing to normalize against


def test_scenario_rejects_unknown_mix(capsys):
    assert main(["scenario", "definitely_not_a_workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_scenario_rejects_too_few_cores(capsys):
    assert main(["scenario", "heat@2+lbm@2", "--cores", "2"]) == 2
    assert "needs 4 cores" in capsys.readouterr().err


def test_rejects_nonpositive_cores_and_accesses():
    for argv in (
        ["workload", "heat", "--cores", "0"],
        ["workload", "heat", "--accesses", "0"],
        ["evaluate", "--cores", "-3"],
        ["scenario", "heat+lbm", "--accesses", "-1"],
    ):
        with pytest.raises(SystemExit):
            main(argv)


@pytest.fixture()
def warm_cache(tmp_path):
    """A cache dir seeded by one micro workload run."""
    code = main([
        "workload", "heat", "--scale", "0.1", "--cores", "2",
        "--accesses", "2000", "--designs", "AVR",
        "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    return tmp_path


def test_cache_stats_and_ls(warm_cache, capsys):
    assert main(["cache", "stats", str(warm_cache)]) == 0
    out = capsys.readouterr().out
    assert "entries:" in out and "indexed" in out

    assert main(["cache", "ls", str(warm_cache)]) == 0
    keys = capsys.readouterr().out.split()
    assert keys and all(len(k) == 64 for k in keys)

    prefix = keys[0][:2]
    assert main(["cache", "ls", str(warm_cache), "--prefix", prefix]) == 0
    filtered = capsys.readouterr().out.split()
    assert filtered == [k for k in keys if k.startswith(prefix)]


def test_cache_verify_ok_and_corrupt(warm_cache, capsys):
    assert main(["cache", "verify", str(warm_cache)]) == 0
    assert "ok" in capsys.readouterr().out

    victim = next(warm_cache.glob("*/*.pkl"))
    victim.write_bytes(b"torn write")
    assert main(["cache", "verify", str(warm_cache)]) == 1
    captured = capsys.readouterr()
    assert "corrupt" in captured.out


def test_cache_gc_dry_run_then_evict(warm_cache, capsys):
    assert main([
        "cache", "gc", str(warm_cache), "--max-bytes", "0", "--dry-run",
    ]) == 0
    assert "would remove" in capsys.readouterr().out
    assert any(warm_cache.glob("*/*.pkl"))

    assert main(["cache", "gc", str(warm_cache), "--max-bytes", "0"]) == 0
    assert "removed" in capsys.readouterr().out
    assert not any(warm_cache.glob("*/*.pkl"))


def test_cache_gc_sweeps_orphaned_tmp(warm_cache, capsys):
    # A shard dir specifically — the cache root also holds traces/.
    shard = next(
        d for d in warm_cache.iterdir() if d.is_dir() and len(d.name) == 2
    )
    orphan = shard / "leftover.tmp"
    orphan.write_bytes(b"half a write")
    assert main(["cache", "gc", str(warm_cache), "--tmp-age", "0"]) == 0
    assert "1 tmp file(s)" in capsys.readouterr().out
    assert not orphan.exists()


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
            "workload", "heat", "--scale", "0.1", "--cores", "2",
            "--accesses", "2000", "--designs", "AVR",
            "--cache-dir", str(tmp_path), flag, value,
        ])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["workload", "nope"])
