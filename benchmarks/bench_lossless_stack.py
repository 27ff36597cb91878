"""Lossless stacking study (paper §4.1's orthogonality remark).

"The downsampled values and outliers of an AVR compressed block could
be further compressed in a lossless way" — this measures how much a
BDI lossless layer adds on top of AVR for each workload's real data.
Not a paper artifact; quantifies the orthogonality claim.
"""

import numpy as np

from repro.common.constants import VALUES_PER_BLOCK
from repro.compression import AVRCompressor, stacked_ratio
from repro.harness import SweepPoint, format_table, run_functional_job

WORKLOADS = ("heat", "orbit", "kmeans")
SAMPLE_BLOCKS = 192


def sampled_blocks(name: str) -> np.ndarray:
    # The baseline run is the sweep engine's functional job unit, so
    # this samples exactly the data an evaluation sweep would cache.
    point = SweepPoint(name, scale=0.5)
    workload = point.make()
    reference = run_functional_job(point, "baseline")
    arrays = [
        r.array.ravel() for r in reference.memory.regions.values() if r.approx
    ]
    flat = np.concatenate(arrays).astype(np.float32)
    nblocks = min(SAMPLE_BLOCKS, flat.size // VALUES_PER_BLOCK)
    rng = np.random.default_rng(0)
    idx = rng.choice(flat.size // VALUES_PER_BLOCK, nblocks, replace=False)
    return np.stack(
        [flat[i * VALUES_PER_BLOCK : (i + 1) * VALUES_PER_BLOCK] for i in idx]
    ), workload


def test_lossless_stacking(benchmark):
    rows = {}
    comps = {}
    for name in WORKLOADS:
        blocks, workload = sampled_blocks(name)
        comps[name] = (blocks, AVRCompressor(workload.default_thresholds))

    def run():
        return {
            name: stacked_ratio(blocks, comp)
            for name, (blocks, comp) in comps.items()
        }

    results = benchmark(run)
    rows = {name: r for name, r in results.items()}
    print()
    print(format_table(
        "Lossless (BDI) stacked on AVR — compression ratios",
        rows, "{:.1f}", col_order=["avr_ratio", "bdi_ratio", "stacked_ratio"],
    ))

    for name, r in results.items():
        # stacking never loses (BDI falls back to raw lines)
        assert r["stacked_ratio"] >= r["avr_ratio"] * 0.99, name
        # and AVR alone beats lossless alone on approximable float data
        assert r["avr_ratio"] >= r["bdi_ratio"] * 0.9, name
