"""Tests for the open design registry (repro.designs).

Covers the registry contract (register / lookup / duplicate rejection /
suggestions), DesignSpec identity (hashability, spec-only equality,
pickling, cache canonicalization), option validation, and the
acceptance-critical differential: the five shipped registry designs
must produce SimResults bit-identical to the pre-registry if/elif
factory wiring, and new registered variants must run end-to-end with
zero edits to ``system/factory.py`` or ``common/types.py``.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.common.config import SystemConfig
from repro.designs import (
    AVR,
    BASELINE,
    COMPARED,
    DGANGER,
    PAPER_DESIGNS,
    TRUNCATE,
    ZERO_AVR,
    DesignMap,
    DesignSpec,
    get_design,
    layout_source_design,
    list_designs,
    register_design,
    resolve_designs,
    unregister_design,
)
from repro.harness.cache import content_key
from repro.harness.runner import _build_layout
from repro.harness.sweep import (
    SweepPoint,
    functional_designs,
    run_functional_job,
)
from repro.system.factory import build_system
from repro.system.frontend import compute_front_end
from repro.trace.generator import generate_trace

SCALE = 0.12
ACCESSES = 2_500


# ----------------------------------------------------------------------
# registry contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_paper_designs_are_registered(self):
        names = list_designs()
        for spec in PAPER_DESIGNS:
            assert spec.name in names
            assert get_design(spec.name) is spec

    def test_lookup_is_case_insensitive(self):
        assert get_design("avr") is AVR
        assert get_design("AVR") is AVR
        assert get_design("zeroavr") is ZERO_AVR

    def test_spec_passthrough_without_registration(self):
        anon = DesignSpec(name="anon-variant")
        assert get_design(anon) is anon

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ValueError, match="did you mean"):
            get_design("avrr")
        with pytest.raises(ValueError, match="truncate"):
            get_design("truncat")
        # The error lists the registered designs (CLI surfaces this).
        with pytest.raises(ValueError, match="registered designs"):
            get_design("definitely-not-a-design")

    def test_unknown_type_raises_typeerror(self):
        with pytest.raises(TypeError):
            get_design(42)

    def test_duplicate_name_rejected(self):
        try:
            register_design(DesignSpec(name="dup-test"))
            with pytest.raises(ValueError, match="already registered"):
                register_design(DesignSpec(name="dup-test", approximator="avr", llc="avr"))
            with pytest.raises(ValueError, match="already registered"):
                register_design(DesignSpec(name="DUP-TEST"))  # case-insensitive
        finally:
            unregister_design("dup-test")

    def test_identical_reregistration_is_idempotent(self):
        try:
            a = register_design(DesignSpec(name="idem-test"))
            b = register_design(DesignSpec(name="idem-test"))
            assert b is a
        finally:
            unregister_design("idem-test")

    def test_replace_overrides(self):
        try:
            register_design(DesignSpec(name="repl-test"))
            new = register_design(
                DesignSpec(name="repl-test", llc="avr", approximator="avr"),
                replace=True,
            )
            assert get_design("repl-test") is new
        finally:
            unregister_design("repl-test")

    def test_resolve_designs_mixed_forms(self):
        specs = resolve_designs(("baseline", "avr", TRUNCATE))
        assert specs == (BASELINE, AVR, TRUNCATE)


# ----------------------------------------------------------------------
# DesignSpec identity
# ----------------------------------------------------------------------
class TestDesignSpecIdentity:
    def test_hashable_and_usable_as_dict_key(self):
        d = {AVR: 1, BASELINE: 2}
        assert d[get_design("avr")] == 1
        assert len({AVR, get_design("AVR"), BASELINE}) == 2

    def test_equality_is_spec_only(self):
        # A spec never equals its name: equality and hashing agree, so
        # tuple and set membership agree too.
        assert AVR != "AVR" and AVR != "avr"
        assert "AVR" not in (AVR,) and "AVR" not in {AVR}
        assert AVR == get_design("AVR")
        assert AVR != TRUNCATE

    def test_equal_specs_hash_equal(self):
        clone = DesignSpec(
            name="AVR", llc="avr", approximator="avr",
            doc=AVR.doc,
        )
        assert clone == AVR
        assert hash(clone) == hash(AVR)

    def test_pickle_roundtrip(self):
        for spec in PAPER_DESIGNS:
            assert pickle.loads(pickle.dumps(spec)) == spec

    #: content keys of the registered designs, as the hand-written
    #: identity methods computed them; the dataclass-generated ones
    #: must not move a key
    PINNED_KEYS = {
        "baseline": "958667616752745b1d2d6d715931e859439a163280f404840a94e8af57fa8ee3",
        "truncate": "4a93a7ad3f3dedf38fe64bbb1d696b0815037b75f216ae6129269d9e95b5e9b1",
        "dganger": "ef0c4f8e1ca7c6ee1b9aba0374e75f8281eedc25a70bb938bf25bf85b32d3766",
        "ZeroAVR": "d24eab222e6a4a5c20436cb3f39ba42af1b1a0465c430f1f5589df99c209093f",
        "AVR": "009daade5cc260a246bd6b0fe8cc208ee935453cc53b701998cd68575e0b426a",
        "avr-conservative": "6a660c3245f7cf8aaaa595a6e8114b0267db06c03f30eb0ac775afa849e9ba60",
        "truncate-16": "1f1fde1d72162d0027d4af0653fdc214d1bacb82735ef47621e58a169c709209",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_content_key_is_pinned(self, name):
        assert content_key(get_design(name)) == self.PINNED_KEYS[name]

    def test_option_variants_agree_on_identity(self):
        """``==``, ``hash`` and ``content_key`` agree on ablation-style
        variants, and the variants survive a pickle round trip."""
        nodbuf = replace(AVR, avr_options={"enable_dbuf": False})
        variants = [
            replace(AVR, avr_options=()),
            nodbuf,
            replace(AVR, avr_options=(("enable_dbuf", False),)),
            replace(AVR, avr_options={"pfe_threshold": None, "enable_dbuf": False}),
            replace(AVR, avr_options={"enable_dbuf": False, "pfe_threshold": None}),
            replace(AVR, avr_options={"pfe_threshold": 0}),
        ]
        assert variants[0] == AVR
        for a in variants:
            clone = pickle.loads(pickle.dumps(a))
            assert clone == a and hash(clone) == hash(a)
            assert content_key(clone) == content_key(a)
            for b in variants:
                same = a == b
                assert same == (hash(a) == hash(b))
                assert same == (content_key(a) == content_key(b))
        assert len(set(variants)) == 4
        runs = DesignMap({nodbuf: "no DBUF"})
        assert runs[replace(AVR, avr_options={"enable_dbuf": False})] == "no DBUF"
        assert AVR not in runs

    def test_avr_options_sorted_into_identity(self):
        a = DesignSpec(name="x", llc="avr",
                       avr_options=(("pfe_threshold", 1), ("enable_dbuf", False)))
        b = DesignSpec(name="x", llc="avr",
                       avr_options=(("enable_dbuf", False), ("pfe_threshold", 1)))
        assert a == b and hash(a) == hash(b)

    def test_avr_options_accepts_mapping(self):
        spec = DesignSpec(name="x", llc="avr",
                          avr_options={"enable_dbuf": False})
        assert spec.avr_options == (("enable_dbuf", False),)

    def test_avr_options_rejects_malformed_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            DesignSpec(name="x", llc="avr", avr_options=("enable_dbuf",))

    def test_validation(self):
        with pytest.raises(ValueError, match="LLC family"):
            DesignSpec(name="bad", llc="l4")
        with pytest.raises(ValueError, match="approximator"):
            DesignSpec(name="bad", approximator="magic")
        with pytest.raises(ValueError, match="capacity model"):
            DesignSpec(name="bad", capacity_model="infinite")
        with pytest.raises(ValueError, match="thresholds_scale"):
            DesignSpec(name="bad", thresholds_scale=0.0)
        with pytest.raises(ValueError, match="approx_line_bytes"):
            DesignSpec(name="bad", approx_line_bytes=128)
        with pytest.raises(ValueError, match="cannot consume"):
            DesignSpec(name="bad", avr_options=(("enable_dbuf", False),))
        # Truncate-family designs must pin their stored line width, so
        # the functional and timing models stay consistent.
        with pytest.raises(ValueError, match="approx_line_bytes"):
            DesignSpec(name="bad", approximator="truncate",
                       capacity_model="truncate")
        with pytest.raises(ValueError, match="approx_line_bytes"):
            DesignSpec(name="bad", approximator="truncate")

    def test_designmap_accepts_names(self):
        m = DesignMap()
        m[AVR] = "a"
        m["baseline"] = "b"
        assert m["AVR"] == "a" and m[AVR] == "a"
        assert m[BASELINE] == "b" and m["baseline"] == "b"
        assert "avr" in m and "truncate" not in m
        assert m.get("nope") is None
        assert len(m) == 2


# ----------------------------------------------------------------------
# roles and derived behaviour
# ----------------------------------------------------------------------
class TestRoles:
    def test_reference_designs(self):
        assert BASELINE.is_reference and ZERO_AVR.is_reference
        assert not AVR.is_reference and not TRUNCATE.is_reference
        assert DGANGER.measures_dedup and not AVR.measures_dedup

    def test_functional_designs_matches_legacy_selection(self):
        needed = functional_designs(PAPER_DESIGNS)
        assert needed == (BASELINE, DGANGER, TRUNCATE, AVR)

    def test_functional_designs_pulls_layout_source(self):
        conservative = get_design("avr-conservative")
        needed = functional_designs((BASELINE, conservative))
        assert conservative in needed
        assert layout_source_design(conservative) is conservative
        assert layout_source_design(AVR) is AVR
        assert layout_source_design(TRUNCATE) is AVR

    def test_thresholds_scale_resolution(self):
        from repro.common.types import ErrorThresholds

        conservative = get_design("avr-conservative")
        base = ErrorThresholds(t1=0.02, t2=0.01)
        scaled = conservative.resolve_thresholds(None, base)
        assert scaled.t1 == pytest.approx(0.01)
        assert scaled.t2 == pytest.approx(0.005)
        # Explicit overrides are scaled too: the design stays tightened
        # inside threshold-ablation sweeps.
        explicit = conservative.resolve_thresholds(ErrorThresholds.from_t2(0.04), base)
        assert explicit.t2 == pytest.approx(0.02)
        # Identity designs pass thresholds through untouched.
        assert AVR.resolve_thresholds(base, None) is base

    @pytest.mark.parametrize(
        "options",
        [{"enabel_dbuf": False}, {"pfe_threshold": "8"}, {"enable_dbuf": "no"}],
        ids=["misspelled", "string-threshold", "string-flag"],
    )
    def test_bad_avr_option_rejected_at_construction(self, options):
        """A bad AVR LLC option fails when the design is built, not
        mid-run (or, for a truthy string flag, never)."""
        with pytest.raises(ValueError, match="valid options: enable_dbuf"):
            DesignSpec(name="bad", llc="avr", approximator="avr",
                       avr_options=options)


# ----------------------------------------------------------------------
# differential: registry wiring vs the pre-registry enum factory
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def seed_context():
    """One small functional pass: the layout + trace all designs share."""
    point = SweepPoint(workload="heat", scale=SCALE,
                       max_accesses_per_core=ACCESSES)
    workload = point.make()
    reference = run_functional_job(point, BASELINE)
    avr_run = run_functional_job(point, AVR)
    dganger_run = run_functional_job(point, DGANGER)
    config = SystemConfig.scaled(num_cores=2)
    layout = _build_layout(workload, avr_run)
    trace = generate_trace(
        workload.trace_spec(), reference.memory,
        num_cores=config.num_cores, max_accesses_per_core=ACCESSES,
        seed=point.seed,
    )
    return {
        "config": config,
        "layout": layout,
        "front_end": compute_front_end(trace, config),
        "footprint": reference.memory.footprint_bytes,
        "dedup": dganger_run.memory.dedup_factor(),
    }


def _legacy_build_system(design, config, layout, footprint_bytes, dedup_factor):
    """The pre-registry factory wiring, reproduced verbatim.

    This is the if/elif chain ``system/factory.py`` shipped before the
    registry, inlined here as the differential anchor for the five
    paper designs (dispatching on the design's name), on today's LLC
    constructors.
    """
    from repro.cache.llc_avr import AVRLLC
    from repro.cache.llc_baseline import BaselineLLC
    from repro.memory.dram import DRAM
    from repro.system.layout import AddressLayout
    from repro.system.simulator import TimingSystem

    dram = DRAM(config.dram, line_bytes=config.llc.line_bytes)
    approx_frac = (
        min(1.0, layout.approx_bytes / footprint_bytes) if footprint_bytes else 0.0
    )
    if design.name == "baseline":
        llc = BaselineLLC(config.llc, dram, AddressLayout())
    elif design.name == "truncate":
        capacity = 1.0 / (1.0 - approx_frac / 2.0)
        llc = BaselineLLC(
            config.llc, dram, layout,
            capacity_multiplier=capacity,
            approx_line_bytes=32,
        )
    elif design.name == "dganger":
        effective = min(max(dedup_factor, 1.0), float(config.dganger_tag_factor))
        capacity = 1.0 / (1.0 - approx_frac * (1.0 - 1.0 / effective))
        llc = BaselineLLC(
            config.llc, dram, layout,
            capacity_multiplier=capacity,
        )
    elif design.name == "ZeroAVR":
        llc = AVRLLC(config.llc, dram, AddressLayout())
    else:
        llc = AVRLLC(config.llc, dram, layout)
    return TimingSystem(design, config, llc, dram)


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=lambda d: d.name)
def test_registry_bit_identical_to_legacy_factory(design, seed_context):
    """Acceptance: the five paper designs, registry vs legacy wiring."""
    ctx = seed_context
    dedup = ctx["dedup"] if design is DGANGER else 1.0
    legacy = _legacy_build_system(
        design, ctx["config"], ctx["layout"], ctx["footprint"], dedup
    ).run(ctx["front_end"])
    registry = build_system(
        design, ctx["config"], ctx["layout"], ctx["footprint"], dedup
    ).run(ctx["front_end"])
    assert registry.metrics_equal(legacy), registry.metric_diffs(legacy)


# ----------------------------------------------------------------------
# new variants run end-to-end (sweep / scenario / ablation / CLI)
# ----------------------------------------------------------------------
class TestNewVariantsEndToEnd:
    def test_variants_through_sweep(self):
        from repro.experiment import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            workloads=("heat",), scales=(SCALE,),
            max_accesses_per_core=ACCESSES, num_cores=2,
            designs=("baseline", "AVR", "avr-conservative", "truncate-16"),
        )
        ev = run_experiment(spec).by_workload()["heat"]
        assert {d.name for d in ev.runs} == {
            "baseline", "AVR", "avr-conservative", "truncate-16",
        }
        avr = ev.runs["AVR"]
        conservative = ev.runs["avr-conservative"]
        t16 = ev.runs["truncate-16"]
        # Halved error budget => strictly tighter output error than AVR.
        assert 0 < conservative.output_error < avr.output_error
        # Self-measured layout (bigger blocks) => its timing genuinely
        # differs from AVR's on the same trace.
        assert not conservative.timing.metrics_equal(avr.timing)
        # Quarter-width lines cut approximate traffic below baseline.
        assert t16.timing.total_bytes > 0
        assert ev.normalized("truncate-16", "traffic") < 1.0

    def test_variants_through_scenario(self):
        from repro.experiment import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            scenarios=("heat@1+lbm@1",), scales=(SCALE,),
            designs=("baseline", "avr-conservative"),
            max_accesses_per_core=2_000,
        )
        ev = run_experiment(spec).by_scenario()["heat@1+lbm@1"]
        run = ev.runs["avr-conservative"]
        assert run.weighted_speedup > 0
        assert len(run.instances) == 2

    def test_variants_through_ablation(self):
        from repro.harness import run_llc_ablations

        points = run_llc_ablations(
            "heat", scale=SCALE, max_accesses_per_core=1_500,
            config=SystemConfig.scaled(num_cores=2),
            variants={"full AVR": {}, "no DBUF": {"enable_dbuf": False}},
            design="avr-conservative",
        )
        assert set(points) == {"full AVR", "no DBUF"}
        assert all(p.cycles > 0 for p in points.values())

    def test_non_avr_design_rejected_by_ablation(self):
        from repro.harness import run_llc_ablations

        with pytest.raises(ValueError, match="AVR-family"):
            run_llc_ablations("heat", design="truncate-16")

    def test_variants_through_cli(self, capsys):
        from repro.__main__ import main

        code = main([
            "experiment", "--workloads", "heat", "--scale", str(SCALE),
            "--cores", "2", "--accesses", str(ACCESSES),
            "--designs", "baseline", "AVR", "avr-conservative", "truncate-16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "avr-conservative" in out and "truncate-16" in out

    def test_cli_unknown_design_did_you_mean(self, capsys):
        from repro.__main__ import main

        code = main(["experiment", "--workloads", "heat", "--designs", "avrr"])
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        for name in list_designs():
            assert name in err

    def test_core_files_closed_for_modification(self):
        """New variants exist purely in the registry: neither the
        factory nor the shared types module knows their names."""
        import inspect

        import repro.common.types as types_mod
        import repro.system.factory as factory_mod

        factory_src = inspect.getsource(factory_mod)
        types_src = inspect.getsource(types_mod)
        for name in ("avr-conservative", "truncate-16"):
            assert name not in factory_src
            assert name not in types_src

    def test_compared_tuple_matches_enum_order(self):
        """The compared designs keep the paper's figure order."""
        assert tuple(d.name for d in COMPARED) == (
            "dganger", "truncate", "ZeroAVR", "AVR",
        )
