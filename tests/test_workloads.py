"""Tests for the seven evaluation workloads (small scales)."""

import numpy as np
import pytest

from repro.approx import ApproxMemory
from repro.designs import AVR, BASELINE
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.data import (
    car_silhouette,
    chained_strikes,
    clustered_option_values,
    fractal_terrain,
    smooth_field_2d,
    sphere_mask,
)

SMALL = {
    "heat": dict(scale=0.1, iterations=10),
    "lattice": dict(scale=0.25, steps=10),
    "lbm": dict(scale=0.3, steps=5),
    "orbit": dict(scale=0.13),
    "kmeans": dict(scale=0.05, max_iterations=10),
    "bscholes": dict(scale=0.05, passes=2),
    "wrf": dict(scale=0.5, steps=5),
}


def small(name):
    return make_workload(name, **SMALL[name])


def _dirty_freed_memory():
    """Allocate, fill with NaN and free buffers of many sizes, so that
    memory handed out next holds bytes no earlier run left there."""
    held = [np.full(1 << e, np.nan, dtype=np.float32) for e in range(4, 21)]
    del held


def _bits(array):
    return None if array is None else array.tobytes()


class TestRegistry:
    def test_all_seven_present(self):
        assert set(WORKLOADS) == {
            "heat", "lattice", "lbm", "orbit", "kmeans", "bscholes", "wrf"
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_workload("nope")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            make_workload("heat", scale=0)


@pytest.mark.parametrize("name", list(WORKLOADS))
class TestEveryWorkload:
    def test_baseline_runs_and_output_finite(self, name):
        w = small(name)
        res = w.run(BASELINE)
        assert res.output.size > 0
        assert np.isfinite(res.output).all()
        assert res.iterations >= 1

    def test_self_error_zero(self, name):
        w = small(name)
        res = w.run(BASELINE)
        assert w.output_error(res, res) == 0.0

    def test_trace_spec_references_allocated_regions(self, name):
        w = small(name)
        mem = ApproxMemory()
        w.allocate(mem)
        spec = w.trace_spec()
        assert spec.iterations >= 1
        assert len(spec.phases) >= 1
        for phase in spec.phases:
            assert phase.region in mem.regions
            assert phase.reads or phase.writes

    def test_has_approximable_region(self, name):
        w = small(name)
        mem = ApproxMemory()
        w.allocate(mem)
        assert any(r.approx for r in mem.regions.values())

    def test_timing_regions_exist(self, name):
        w = small(name)
        mem = ApproxMemory()
        w.allocate(mem)
        for rname in w.timing_approx_regions or ():
            assert rname in mem.regions

    def test_deterministic_given_seed(self, name):
        """The output, every region's final bits and every report repeat
        under baseline and AVR, also when the freed memory a scratch
        buffer may reuse holds different bytes in each run."""
        for design in (BASELINE, AVR):
            a = small(name).run(design)
            _dirty_freed_memory()
            b = small(name).run(design)
            assert a.output.tobytes() == b.output.tobytes()
            assert a.iterations == b.iterations
            for rname, region in a.memory.regions.items():
                other = b.memory.regions[rname]
                assert region.array.tobytes() == other.array.tobytes(), rname
                assert repr(a.memory.reports[rname]) == repr(b.memory.reports[rname])
                assert _bits(region.block_sizes) == _bits(other.block_sizes), rname


@pytest.mark.parametrize("name", ["heat", "kmeans", "bscholes", "wrf"])
def test_avr_error_small_but_nonzero(name):
    w = small(name)
    ref = w.run(BASELINE)
    avr = w.run(AVR)
    err = w.output_error(avr, ref)
    assert 0.0 <= err < 0.25


def test_heat_cools_toward_boundaries():
    w = small("heat")
    res = w.run(BASELINE)
    grid = res.output
    # interior stays between ambient and hot boundary
    assert grid.min() >= w.T_AMBIENT - 1e-3
    assert grid.max() <= w.T_HOT + 1e-3


def test_orbit_conserves_energy_roughly():
    w = make_workload("orbit", scale=0.13)
    res = w.run(BASELINE)
    energy = res.memory.region("energy_log").array
    total = energy.sum(axis=0)
    drift = abs(total[-1] - total[0]) / abs(total[0])
    assert drift < 0.05  # leapfrog is symplectic

    # bound orbit: total energy negative
    assert total[0] < 0


def test_kmeans_centroids_sorted_and_in_range():
    w = small("kmeans")
    res = w.run(BASELINE)
    c = res.output
    assert (np.diff(c) >= 0).all()
    points = res.memory.region("points").array
    assert c.min() >= points.min() - 1 and c.max() <= points.max() + 1


def test_bscholes_prices_positive_and_bounded():
    w = small("bscholes")
    res = w.run(BASELINE)
    n = res.output.size // 2
    call, put = res.output[:n], res.output[n:]
    spot = res.memory.region("spot").array
    assert (call >= -1e-3).all() and (put >= -1e-3).all()
    assert (call <= spot + 1e-3).all()  # call price bounded by spot


def test_lattice_obstacle_blocks_flow():
    w = small("lattice")
    res = w.run(BASELINE)
    speed = res.output[0]
    assert speed[w.mask].mean() < speed[~w.mask].mean()


def test_lbm_inflow_dominates_speed():
    w = small("lbm")
    res = w.run(BASELINE)
    assert res.output.mean() > 0.0
    assert res.output.max() < 0.5  # lattice units stay subsonic


class TestDataGenerators:
    def test_car_silhouette_plausible(self):
        mask = car_silhouette(64, 192)
        frac = mask.mean()
        assert 0.005 < frac < 0.2
        with pytest.raises(ValueError):
            car_silhouette(4, 4)

    def test_sphere_mask_volume(self):
        mask = sphere_mask(20, 20, 40, radius_frac=0.2)
        r = 0.2 * 20
        expected = 4 / 3 * np.pi * r**3
        assert mask.sum() == pytest.approx(expected, rel=0.3)

    def test_fractal_terrain_range_and_length(self):
        t = fractal_terrain(1000, base=300.0, relief=400.0)
        assert t.shape == (1000,)
        assert t.min() >= 300.0 - 1e-3
        assert t.max() <= 700.0 + 1e-3

    def test_terrain_roughness_monotone(self):
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        smooth = fractal_terrain(4096, roughness=0.3, rng=rng1)
        rough = fractal_terrain(4096, roughness=0.9, rng=rng2)
        assert np.abs(np.diff(rough)).mean() > np.abs(np.diff(smooth)).mean()

    def test_smooth_field_2d_in_unit_range(self, rng):
        f = smooth_field_2d(32, 48, rng)
        assert f.shape == (32, 48)
        assert f.min() >= 0.0 and f.max() <= 1.0

    def test_clustered_values_few_distinct(self, rng):
        v = clustered_option_values(10000, 16, 0.0, 1.0, rng)
        assert len(np.unique(v)) <= 16

    def test_chained_strikes_run_structure(self, rng):
        v = chained_strikes(10000, 80.0, 120.0, rng, mean_run=50)
        changes = int((np.diff(v) != 0).sum())
        assert 50 <= changes <= 400  # ~10000/50 = 200 runs expected
