"""Tests for the ``repro check`` static analysis pass.

Each rule gets a pair of fixtures: a snippet that must trigger it and
a neighbouring snippet that must pass.  On top of the per-rule pairs,
the suite pins the suppression syntax, the CLI exit-code contract, and
— the point of the whole subsystem — that the repository's own source
tree is clean under every rule.
"""

from pathlib import Path

import pytest

from repro.analysis import all_rules, get_rule, resolve_rules, run_check
from repro.analysis.cli import add_check_arguments, cmd_check
from repro.analysis.registry import Rule, register_rule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
TESTS = REPO_ROOT / "tests"


def check_snippet(tmp_path, source, *, name="snippet.py", select=None,
                  tests=None, subdir=None):
    """Run the checker over one synthetic module; return its findings."""
    target = tmp_path if subdir is None else tmp_path / subdir
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    path.write_text(source)
    result = run_check([str(tmp_path)], select=select, tests=tests)
    return result


def rule_ids(result):
    return [f.rule for f in result.findings]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_catalogue_covers_the_shipped_rules(self):
        ids = {cls.id for cls in all_rules()}
        assert {"RNG001", "DTY001", "KEY001", "KEY002", "PKL001",
                "PAR001", "DOC001", "CCH001", "SRV001"} <= ids

    def test_get_rule_by_id_and_name(self):
        assert get_rule("RNG001").id == "RNG001"
        assert get_rule("rng-discipline").id == "RNG001"

    def test_unknown_rule_suggests_close_matches(self):
        with pytest.raises(ValueError, match="RNG001"):
            get_rule("RNG01")

    def test_resolve_rules_default_is_all(self):
        assert resolve_rules(None) == all_rules()

    def test_register_rule_rejects_duplicate_ids(self):
        class Clash(Rule):
            id = "RNG001"
            name = "clash"
            summary = "duplicate id"

            def check(self, module, project):
                return iter(())

        with pytest.raises(ValueError, match="RNG001"):
            register_rule(Clash)


# ----------------------------------------------------------------------
# RNG001 — RNG discipline
# ----------------------------------------------------------------------
class TestRngDiscipline:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng()\n",
            select=["RNG001"],
        )
        assert rule_ids(result) == ["RNG001"]

    def test_seeded_default_rng_passes(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\n"
            "def make(seed: int):\n"
            "    return np.random.default_rng(seed)\n",
            select=["RNG001"],
        )
        assert result.ok

    def test_import_alias_resolved(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "from numpy.random import default_rng\nr = default_rng()\n",
            select=["RNG001"],
        )
        assert rule_ids(result) == ["RNG001"]

    def test_legacy_global_namespace_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\nx = np.random.rand(4)\n",
            select=["RNG001"],
        )
        assert rule_ids(result) == ["RNG001"]

    def test_stdlib_random_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import random\nx = random.random()\n",
            select=["RNG001"],
        )
        assert rule_ids(result) == ["RNG001"]

    def test_wall_clock_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import time\nstamp = time.time()\n",
            select=["RNG001"],
        )
        assert rule_ids(result) == ["RNG001"]


# ----------------------------------------------------------------------
# DTY001 — dtype discipline (kernel sub-packages only)
# ----------------------------------------------------------------------
class TestDtypeDiscipline:
    def test_bare_arange_in_kernel_package_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\nidx = np.arange(10)\n",
            subdir="repro/trace",
            select=["DTY001"],
        )
        assert rule_ids(result) == ["DTY001"]

    def test_explicit_dtype_passes(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\nidx = np.arange(10, dtype=np.int64)\n",
            subdir="repro/trace",
            select=["DTY001"],
        )
        assert result.ok

    def test_positional_dtype_passes(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\nz = np.zeros(4, np.int64)\n",
            subdir="repro/cache",
            select=["DTY001"],
        )
        assert result.ok

    def test_full_without_dtype_flagged(self, tmp_path):
        # np.full's dtype is the *third* positional: two args are not
        # enough to exempt it (regression for the fill-value case).
        result = check_snippet(
            tmp_path,
            "import numpy as np\nw = np.full(8, True)\n",
            subdir="repro/cache",
            select=["DTY001"],
        )
        assert rule_ids(result) == ["DTY001"]

    def test_non_kernel_module_exempt(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\nidx = np.arange(10)\n",
            subdir="repro/harness",
            select=["DTY001"],
        )
        assert result.ok


# ----------------------------------------------------------------------
# KEY001/KEY002 — cache-key completeness
# ----------------------------------------------------------------------
SPEC_PREAMBLE = """\
from dataclasses import dataclass, field

@dataclass(frozen=True)
class SweepPoint:
"""


class TestCacheKeyCompleteness:
    def test_uncanonicalizable_field_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            SPEC_PREAMBLE + "    callback: object = None\n",
            select=["KEY001"],
        )
        assert rule_ids(result) == ["KEY001"]

    def test_scalar_and_container_fields_pass(self, tmp_path):
        result = check_snippet(
            tmp_path,
            SPEC_PREAMBLE
            + "    workload: str = 'heat'\n"
            "    scale: float = 1.0\n"
            "    knobs: tuple[int, ...] = ()\n"
            "    extra: dict[str, float] | None = None\n",
            select=["KEY001"],
        )
        assert result.ok

    def test_compare_false_fields_are_outside_identity(self, tmp_path):
        result = check_snippet(
            tmp_path,
            SPEC_PREAMBLE
            + "    hook: object = field(default=None, compare=False)\n",
            select=["KEY001"],
        )
        assert result.ok

    def test_reachable_dataclass_fields_checked(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Inner:\n"
            "    bad: set = None\n"
            "@dataclass(frozen=True)\n"
            "class SweepPoint:\n"
            "    inner: Inner = None\n",
            select=["KEY001"],
        )
        assert rule_ids(result) == ["KEY001"]
        assert "Inner.bad" in result.findings[0].message

    def test_mutable_default_on_frozen_spec_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            SPEC_PREAMBLE
            + "    runs: list = field(default_factory=list)\n",
            select=["KEY002"],
        )
        assert rule_ids(result) == ["KEY002"]

    def test_tuple_default_passes(self, tmp_path):
        result = check_snippet(
            tmp_path,
            SPEC_PREAMBLE + "    runs: tuple = ()\n",
            select=["KEY002"],
        )
        assert result.ok


# ----------------------------------------------------------------------
# PKL001 — picklable hooks
# ----------------------------------------------------------------------
class TestPicklableHooks:
    def test_lambda_builder_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "def register(spec): ...\n"
            "register(builder=lambda spec, ctx: None)\n",
            select=["PKL001"],
        )
        assert rule_ids(result) == ["PKL001"]

    def test_local_function_builder_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "def setup(register):\n"
            "    def build(spec, ctx):\n"
            "        return None\n"
            "    register(builder=build)\n",
            select=["PKL001"],
        )
        assert rule_ids(result) == ["PKL001"]

    def test_module_level_builder_passes(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "def build(spec, ctx):\n"
            "    return None\n"
            "def setup(register):\n"
            "    register(builder=build)\n",
            select=["PKL001"],
        )
        assert result.ok

    def test_lambda_submitted_to_pool_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "def run(pool):\n"
            "    return pool.submit(lambda: 1)\n",
            select=["PKL001"],
        )
        assert rule_ids(result) == ["PKL001"]


# ----------------------------------------------------------------------
# PAR001 — engine parity
# ----------------------------------------------------------------------
class TestEngineParity:
    @staticmethod
    def _tests_dir(tmp_path, oracle, equivalence):
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "oracles.py").write_text(oracle)
        (tests_dir / "test_engine_equivalence.py").write_text(equivalence)
        return tests_dir

    def test_batch_without_reference_path_flagged(self, tmp_path):
        """Named in a differential test but absent from the oracle: a
        per-event method on the class itself does not count."""
        tests_dir = self._tests_dir(
            tmp_path,
            "class OtherReference: ...\n",
            "def test_fast(): assert 'FastOnly'\n",
        )
        result = check_snippet(
            tmp_path,
            "class FastOnly:\n"
            "    def read(self, addr):\n"
            "        return 1\n"
            "    def replay_batch(self, addrs):\n"
            "        return addrs\n",
            select=["PAR001"],
            tests=tests_dir,
        )
        assert rule_ids(result) == ["PAR001"]
        assert "oracle" in result.findings[0].message

    def test_batch_with_reference_and_test_mention_passes(self, tmp_path):
        tests_dir = self._tests_dir(
            tmp_path,
            "class PairedReference: ...\n",
            "def test_paired():\n    assert 'Paired'\n",
        )
        result = check_snippet(
            tmp_path,
            "class Paired:\n"
            "    def replay_batch(self, addrs):\n"
            "        return addrs\n",
            select=["PAR001"],
            tests=tests_dir,
        )
        assert result.ok

    def test_missing_test_mention_flagged(self, tmp_path):
        tests_dir = self._tests_dir(
            tmp_path,
            "class OrphanReference: ...\n",
            "def test_other(): ...\n",
        )
        result = check_snippet(
            tmp_path,
            "class Orphan:\n"
            "    def replay_batch(self, addrs):\n"
            "        return addrs\n",
            select=["PAR001"],
            tests=tests_dir,
        )
        assert rule_ids(result) == ["PAR001"]
        assert "differential test" in result.findings[0].message


    def test_compressor_without_reference_flagged(self, tmp_path):
        """A compress_blocks class counts as a fast path too."""
        tests_dir = self._tests_dir(
            tmp_path,
            "def compress_blocks_reference(comp, blocks): ...\n",
            "def test_codec(): assert 'StackedCodec'\n",
        )
        result = check_snippet(
            tmp_path,
            "class StackedCodec:\n"
            "    def compress_blocks(self, blocks):\n"
            "        return blocks\n",
            select=["PAR001"],
            tests=tests_dir,
        )
        assert rule_ids(result) == ["PAR001"]
        assert "compress_blocks" in result.findings[0].message
        assert "oracle" in result.findings[0].message

    def test_compressor_with_reference_and_test_mention_passes(self, tmp_path):
        tests_dir = self._tests_dir(
            tmp_path,
            "def compress_blocks_reference(comp: 'StackedCodec', blocks): ...\n",
            "def test_codec(): assert 'StackedCodec'\n",
        )
        result = check_snippet(
            tmp_path,
            "class StackedCodec:\n"
            "    def compress_blocks(self, blocks):\n"
            "        return blocks\n",
            select=["PAR001"],
            tests=tests_dir,
        )
        assert result.ok


# ----------------------------------------------------------------------
# DOC001 — public docstrings
# ----------------------------------------------------------------------
class TestPublicDocstrings:
    def test_undocumented_public_function_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Module doc."""\n\ndef api():\n    return 1\n',
            select=["DOC001"],
        )
        assert rule_ids(result) == ["DOC001"]

    def test_documented_module_passes(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Module doc."""\n\ndef api():\n    """Doc."""\n    return 1\n',
            select=["DOC001"],
        )
        assert result.ok

    def test_private_helpers_exempt(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Module doc."""\n\ndef _helper():\n    return 1\n',
            select=["DOC001"],
        )
        assert result.ok

    def test_all_narrows_the_public_surface(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Module doc."""\n\n__all__ = ["api"]\n\n'
            'def api():\n    """Doc."""\n\ndef helper():\n    return 1\n',
            select=["DOC001"],
        )
        assert result.ok


# ----------------------------------------------------------------------
# SRV001 — serve async discipline
# ----------------------------------------------------------------------
class TestServeAsyncDiscipline:
    def test_blocking_sleep_in_coroutine_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport time\n\n'
            "async def poll():\n"
            '    """Doc."""\n'
            "    time.sleep(0.1)\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert rule_ids(result) == ["SRV001"]
        assert "asyncio.sleep" in result.findings[0].message

    def test_wall_clock_in_coroutine_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport time\n\n'
            "async def uptime():\n"
            '    """Doc."""\n'
            "    return time.time()\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert rule_ids(result) == ["SRV001"]
        assert "loop.time" in result.findings[0].message

    def test_sync_socket_in_coroutine_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport socket\n\n'
            "async def dial(addr):\n"
            '    """Doc."""\n'
            "    return socket.create_connection(addr)\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert rule_ids(result) == ["SRV001"]
        assert "asyncio streams" in result.findings[0].message

    def test_loop_clock_and_async_sleep_pass(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport asyncio\n\n'
            "async def tick():\n"
            '    """Doc."""\n'
            "    loop = asyncio.get_running_loop()\n"
            "    await asyncio.sleep(0.1)\n"
            "    return loop.time()\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert result.ok

    def test_sync_client_code_is_outside_jurisdiction(self, tmp_path):
        # the blocking ServeClient half lives in plain functions —
        # blocking sockets are its whole job
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport socket\n\n'
            "def dial(addr):\n"
            '    """Doc."""\n'
            "    return socket.create_connection(addr)\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert result.ok

    def test_module_level_rng_state_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport numpy as np\n'
            "RNG = np.random.default_rng(seed=None)\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert rule_ids(result) == ["SRV001"]
        assert "module-level" in result.findings[0].message

    def test_literal_seed_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport numpy as np\n\n'
            "def jitter():\n"
            '    """Doc."""\n'
            "    return np.random.default_rng(0)\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert rule_ids(result) == ["SRV001"]
        assert "spec" in result.findings[0].message

    def test_literal_seed_sequence_flagged(self, tmp_path):
        # the seed arrives as a keyword, not a positional argument
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport numpy as np\n\n'
            "def jitter():\n"
            '    """Doc."""\n'
            "    return np.random.SeedSequence(entropy=7)\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert rule_ids(result) == ["SRV001"]
        assert "SeedSequence(7)" in result.findings[0].message

    def test_threaded_seed_passes(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport numpy as np\n\n'
            "def jitter(spec):\n"
            '    """Doc."""\n'
            "    return np.random.default_rng(spec.seed)\n",
            select=["SRV001"],
            subdir="repro/serve",
        )
        assert result.ok

    def test_rule_scoped_to_serve_modules(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '"""Doc."""\nimport time\n\n'
            "async def poll():\n"
            '    """Doc."""\n'
            "    time.sleep(0.1)\n",
            select=["SRV001"],
            subdir="repro/harness",
        )
        assert result.ok

    def test_serve_package_is_clean(self):
        result = run_check([str(SRC / "serve")], select=["SRV001"])
        assert result.ok


# ----------------------------------------------------------------------
# CCH001 — cache file discipline
# ----------------------------------------------------------------------
class TestCacheFileDiscipline:
    def test_direct_pickle_load_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '\"\"\"Doc.\"\"\"\nimport pickle\n\n'
            "def read(path):\n"
            '    \"\"\"Doc.\"\"\"\n'
            "    with open(path, 'rb') as fh:\n"
            "        return pickle.load(fh)\n",
            select=["CCH001"],
            subdir="repro/harness",
        )
        assert rule_ids(result) == ["CCH001"]
        assert "pickle.load" in result.findings[0].message

    def test_pkl_path_literal_flagged(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '\"\"\"Doc.\"\"\"\n\n'
            "def path_of(root, key):\n"
            '    \"\"\"Doc.\"\"\"\n'
            "    return root / key[:2] / f\"{key}\" / \"entry.pkl\"\n",
            select=["CCH001"],
            subdir="repro/serve",
        )
        assert rule_ids(result) == ["CCH001"]
        assert "gc/verify" in result.findings[0].message

    def test_cache_module_is_the_sanctioned_site(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '\"\"\"Doc.\"\"\"\nimport pickle\n\n'
            "def load(data):\n"
            '    \"\"\"Doc.\"\"\"\n'
            "    return pickle.loads(data)\n",
            name="cache.py",
            select=["CCH001"],
            subdir="repro/harness",
        )
        assert result.ok

    def test_backend_consumers_pass(self, tmp_path):
        result = check_snippet(
            tmp_path,
            '\"\"\"Doc.\"\"\"\nfrom repro.harness.cache import ResultCache\n\n'
            "def warm(cache_dir, keys):\n"
            '    \"\"\"Doc.\"\"\"\n'
            "    return ResultCache(cache_dir).get_many(keys)\n",
            select=["CCH001"],
            subdir="repro/harness",
        )
        assert result.ok

    def test_package_source_is_clean(self):
        result = run_check([str(SRC)], select=["CCH001"])
        assert result.ok


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_marker_suppresses_and_is_counted(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore[RNG001]\n",
            select=["RNG001"],
        )
        assert result.ok
        assert result.suppressed == 1

    def test_marker_is_rule_specific(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore[DTY001]\n",
            select=["RNG001"],
        )
        assert rule_ids(result) == ["RNG001"]

    def test_bare_marker_suppresses_every_rule(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore\n",
            select=["RNG001"],
        )
        assert result.ok
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_unparsable_file_becomes_a_finding(self, tmp_path):
        result = check_snippet(tmp_path, "def broken(:\n")
        assert rule_ids(result) == ["PARSE"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_check(["no/such/tree"])

    def test_findings_sorted_by_position(self, tmp_path):
        result = check_snippet(
            tmp_path,
            "import numpy as np\n"
            "import random\n"
            "a = random.random()\n"
            "b = np.random.default_rng()\n",
            select=["RNG001"],
        )
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def _args(self, argv):
        import argparse

        parser = argparse.ArgumentParser()
        add_check_arguments(parser)
        return parser.parse_args(argv)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text('"""Doc."""\n\nX = 1\n')
        code = cmd_check(self._args([str(tmp_path)]))
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\nx = random.random()\n"
        )
        code = cmd_check(self._args([str(tmp_path)]))
        captured = capsys.readouterr()
        assert code == 1
        assert "RNG001" in captured.out

    def test_usage_error_exits_two(self, tmp_path):
        code = cmd_check(self._args([str(tmp_path / "missing")]))
        assert code == 2

    def test_list_rules(self, capsys):
        code = cmd_check(self._args(["--list-rules"]))
        out = capsys.readouterr().out
        assert code == 0
        for cls in all_rules():
            assert cls.id in out


# ----------------------------------------------------------------------
# the actual gate: the repo's own tree is clean
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_repo_source_tree_is_clean(self):
        result = run_check([SRC], tests=TESTS)
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.files_checked > 80
