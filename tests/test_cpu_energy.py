"""Tests for the interval core model and the energy model."""

import pytest

from oracles import IntervalCoreReference
from repro.common.config import CoreConfig
from repro.energy import COMPONENTS, EnergyCoefficients, EnergyModel


class TestIntervalCore:
    """The per-access core model (the oracle twin of
    ``IntervalCore.replay_batch``, pinned in test_engine_equivalence)."""

    def test_advance_accounts_instructions(self):
        core = IntervalCoreReference(CoreConfig(base_ipc=2.0))
        core.advance(9)
        assert core.instructions == 10  # gap + the memory op
        assert core.cycles == pytest.approx(5.0)

    def test_l1_hits_hidden(self):
        core = IntervalCoreReference(CoreConfig())
        core.advance(10)
        before = core.cycles
        core.memory_event(1.0, l1_hit=True)
        assert core.cycles == before

    def test_miss_exposed_by_mlp(self):
        core = IntervalCoreReference(CoreConfig(mlp=4.0))
        core.memory_event(100.0, l1_hit=False)
        assert core.cycles == pytest.approx(25.0)

    def test_amat_average(self):
        core = IntervalCoreReference(CoreConfig())
        core.memory_event(1.0, True)
        core.memory_event(99.0, False)
        assert core.amat == pytest.approx(50.0)

    def test_ipc(self):
        core = IntervalCoreReference(CoreConfig(base_ipc=2.0))
        core.advance(19)
        assert core.ipc == pytest.approx(2.0)

    def test_empty_core(self):
        core = IntervalCoreReference(CoreConfig())
        assert core.amat == 0.0
        assert core.ipc == 0.0


class TestEnergyModel:
    COUNTS = {
        "instructions": 1_000_000,
        "l1_accesses": 300_000,
        "l2_accesses": 50_000,
        "llc_accesses": 20_000,
        "dram_lines": 10_000,
        "compressor_ops": 500,
    }

    def test_all_components_present(self):
        bd = EnergyModel().compute(self.COUNTS, 0.01, 8, has_compressor=True)
        assert set(bd.joules) == set(COMPONENTS)
        assert all(v >= 0 for v in bd.joules.values())

    def test_total_sums_components(self):
        bd = EnergyModel().compute(self.COUNTS, 0.01, 8)
        assert bd.total == pytest.approx(sum(bd.joules.values()))

    def test_no_compressor_means_no_static(self):
        without = EnergyModel().compute(
            dict(self.COUNTS, compressor_ops=0), 0.01, 8, has_compressor=False
        )
        assert without.joules["Compressor/Decompressor"] == 0.0

    def test_static_scales_with_time(self):
        fast = EnergyModel().compute(self.COUNTS, 0.01, 8)
        slow = EnergyModel().compute(self.COUNTS, 0.02, 8)
        assert slow.total > fast.total

    def test_dram_energy_scales_with_traffic(self):
        a = EnergyModel().compute(self.COUNTS, 0.01, 8)
        more = dict(self.COUNTS, dram_lines=100_000)
        b = EnergyModel().compute(more, 0.01, 8)
        assert b.joules["DRAM"] > a.joules["DRAM"]

    def test_normalized_to(self):
        base = EnergyModel().compute(self.COUNTS, 0.01, 8)
        norm = base.normalized_to(base)
        assert sum(norm.values()) == pytest.approx(1.0)

    def test_custom_coefficients(self):
        c = EnergyCoefficients(core_nj_per_instruction=1.0)
        bd = EnergyModel(c).compute(self.COUNTS, 0.0, 1)
        assert bd.joules["Core"] == pytest.approx(1e-9 * 1_000_000)
