"""Differential tests: the stacked compressor pass against its oracle.

:meth:`repro.compression.AVRCompressor.compress_blocks` runs every
placement variant through shared integer-exact GEMMs and one stacked
check; :func:`oracles.compress_blocks_reference` is the per-variant
pipeline it replaced.  Every :class:`BatchCompressionResult` field must
match exactly: dtype, shape and value, floats compared as bit patterns
(so NaN payloads and signed zeros count).

Three sources of blocks: a hypothesis property over batch size, check
mode, dtype, variant subset, biasing and thresholds; crafted blocks
(specials, zeros, denormals, extreme magnitudes, random bit patterns);
and every call the seven workloads make under AVR at a small scale.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CompressedBlock,
    compress_blocks_reference,
    downsample_1d_reference,
    downsample_2d_reference,
    reconstruct_1d_reference,
    reconstruct_2d_reference,
)
from repro.common.constants import (
    CACHELINE_BYTES,
    MAX_COMPRESSED_CACHELINES,
    MAX_OUTLIERS,
    VALUES_PER_BLOCK,
)
from repro.common.types import CompressionMethod, DataType, ErrorThresholds
from repro.compression import (
    AVRCompressor,
    BatchCompressionResult,
    downsample_1d,
    downsample_2d,
    reconstruct_1d,
    reconstruct_2d,
)
from repro.workloads import WORKLOADS, make_workload

D1, D2 = CompressionMethod.DOWNSAMPLE_1D, CompressionMethod.DOWNSAMPLE_2D
#: every non-empty variant subset, in both orders (order breaks ties)
METHOD_SETS = [(D1,), (D2,), (D1, D2), (D2, D1)]
MODES = ("hybrid", "hardware", "relative")
FIELDS = (
    "success", "method", "bias", "size_cachelines", "outlier_count",
    "avg_error", "reconstructed", "summaries", "outlier_mask",
)


def _bits(array: np.ndarray) -> np.ndarray:
    if array.dtype.kind == "f":
        return array.view(np.dtype(f"u{array.itemsize}"))
    return array


def assert_same_result(got: BatchCompressionResult, want: BatchCompressionResult) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, f"{name}: dtype {a.dtype} != {b.dtype}"
        assert a.shape == b.shape, f"{name}: shape {a.shape} != {b.shape}"
        assert np.array_equal(_bits(a), _bits(b)), f"{name}: values differ"


def check(blocks, dtype=DataType.FLOAT32, **kwargs) -> None:
    comp = AVRCompressor(**kwargs)
    with np.errstate(all="ignore"):
        want = compress_blocks_reference(comp, blocks, dtype)
    assert_same_result(comp.compress_blocks(blocks, dtype), want)


# ----------------------------------------------------------------------
# hypothesis property
# ----------------------------------------------------------------------
def _float_blocks(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    x = np.linspace(0.0, 1.0, VALUES_PER_BLOCK)
    if kind == "smooth":
        scale = 10.0 ** rng.uniform(-20, 20, (n, 1))
        blocks = (np.sin(rng.uniform(1, 12, (n, 1)) * x) + 1.5) * scale
        blocks *= 1 + rng.normal(0, 1e-3, blocks.shape)
    elif kind == "noisy":
        blocks = rng.normal(0, 1, (n, VALUES_PER_BLOCK))
    elif kind == "bits":
        raw = rng.integers(0, 2**32, (n, VALUES_PER_BLOCK), dtype=np.uint64)
        return raw.astype(np.uint32).view(np.float32)
    else:  # "mixed": smooth rows with sprinkled zeros, denormals, specials
        blocks = (x * rng.uniform(-3, 3, (n, 1)) + rng.uniform(-2, 2, (n, 1)))
        picks = rng.random(blocks.shape)
        blocks[picks < 0.03] = 0.0
        blocks[(picks >= 0.03) & (picks < 0.05)] = 1e-41
        blocks[(picks >= 0.05) & (picks < 0.055)] = np.nan
        blocks[(picks >= 0.055) & (picks < 0.06)] = -np.inf
    with np.errstate(over="ignore"):
        return blocks.astype(np.float32)


@given(
    nblocks=st.integers(0, 64),
    kind=st.sampled_from(["smooth", "noisy", "bits", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(MODES),
    methods=st.sampled_from(METHOD_SETS),
    enable_bias=st.booleans(),
    t1=st.floats(1e-9, 1.0),
    t2=st.floats(1e-9, 1.0),
)
def test_float_batches_match_oracle(nblocks, kind, seed, mode, methods, enable_bias, t1, t2):
    blocks = _float_blocks(np.random.default_rng(seed), nblocks, kind)
    check(
        blocks, thresholds=ErrorThresholds(t1, t2), check_mode=mode,
        methods=methods, enable_bias=enable_bias,
    )


@given(
    nblocks=st.integers(0, 64),
    span=st.sampled_from([100, 10**6, 2**31]),
    smooth=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(MODES),
    methods=st.sampled_from(METHOD_SETS),
    enable_bias=st.booleans(),
    t1=st.floats(1e-9, 1.0),
    t2=st.floats(1e-9, 1.0),
)
def test_fixed_batches_match_oracle(
    nblocks, span, smooth, seed, mode, methods, enable_bias, t1, t2
):
    rng = np.random.default_rng(seed)
    if smooth:
        slope = rng.integers(-span // 512 - 1, span // 512 + 1, (nblocks, 1))
        offset = rng.integers(-span // 2, span // 2, (nblocks, 1))
        blocks = (np.arange(VALUES_PER_BLOCK) * slope + offset).astype(np.int32)
    else:
        blocks = rng.integers(-span, span, (nblocks, VALUES_PER_BLOCK)).astype(np.int32)
    check(
        blocks, DataType.FIXED32, thresholds=ErrorThresholds(t1, t2),
        check_mode=mode, methods=methods, enable_bias=enable_bias,
    )


# ----------------------------------------------------------------------
# crafted blocks
# ----------------------------------------------------------------------
def _crafted() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    ramp = np.linspace(1.0, 2.0, VALUES_PER_BLOCK)
    rows = {
        "nan": np.where(np.arange(VALUES_PER_BLOCK) == 3, np.nan, ramp),
        "+inf": np.where(np.arange(VALUES_PER_BLOCK) == 9, np.inf, ramp),
        "-inf": np.where(np.arange(VALUES_PER_BLOCK) == 200, -np.inf, ramp),
        "all-nan": np.full(VALUES_PER_BLOCK, np.nan),
        "zeros": np.zeros(VALUES_PER_BLOCK),
        "negative-zeros": np.full(VALUES_PER_BLOCK, -0.0),
        "half-zeros": np.where(np.arange(VALUES_PER_BLOCK) % 2 == 0, 0.0, ramp),
        "denormals": np.linspace(1e-45, 1e-39, VALUES_PER_BLOCK),
        "denormal-normal-mix": np.where(
            np.arange(VALUES_PER_BLOCK) < 128, 1e-40, ramp * 1e-37
        ),
        "max-float": np.where(np.arange(VALUES_PER_BLOCK) % 3 == 0, -3e38, 3e38),
        "max-ramp": np.linspace(-3e38, 3e38, VALUES_PER_BLOCK),
        "min-normal": np.full(VALUES_PER_BLOCK, 1e-38),
        "60-decades": np.logspace(-30, 30, VALUES_PER_BLOCK),
        "signed-60-decades": (
            np.logspace(-30, 30, VALUES_PER_BLOCK) * (-1) ** np.arange(VALUES_PER_BLOCK)
        ),
        "all-outliers": (
            rng.normal(0, 1, VALUES_PER_BLOCK) * 10.0 ** rng.integers(-5, 5, VALUES_PER_BLOCK)
        ),
        "constant": np.full(VALUES_PER_BLOCK, 3.25),
        "spikes": np.where(np.isin(np.arange(VALUES_PER_BLOCK), [37, 200]), 50.0, ramp),
    }
    with np.errstate(over="ignore"):
        blocks = {name: row.astype(np.float32)[None, :] for name, row in rows.items()}
    raw = rng.integers(0, 2**32, (8, VALUES_PER_BLOCK), dtype=np.uint64)
    blocks["random-bits"] = raw.astype(np.uint32).view(np.float32)
    blocks["empty"] = np.empty((0, VALUES_PER_BLOCK), dtype=np.float32)
    blocks["batch-of-all"] = np.concatenate([b for b in blocks.values()])
    return blocks


CRAFTED = _crafted()
#: paper default, loose, the widest, thresholds at and around powers of two
THRESHOLDS = [
    ErrorThresholds(),
    ErrorThresholds(0.2, 0.1),
    ErrorThresholds(1.0, 1.0),
    ErrorThresholds(2.0**-7, 2.0**-8),
    ErrorThresholds(2.0**-7 * (1 - 2.0**-52), 2.0**-8),
    ErrorThresholds(2.0**-23, 1e-9),
    ErrorThresholds(1e-9, 1e-9),
]


@pytest.mark.parametrize("name", sorted(CRAFTED))
@pytest.mark.parametrize("mode", MODES)
def test_crafted_blocks_match_oracle(name, mode):
    for methods, enable_bias, th in itertools.product(METHOD_SETS, (True, False), THRESHOLDS):
        check(CRAFTED[name], thresholds=th, check_mode=mode, methods=methods,
              enable_bias=enable_bias)


@pytest.mark.parametrize("name", ["nan", "+inf", "-inf", "all-nan", "random-bits",
                                  "batch-of-all"])
@pytest.mark.parametrize("mode", MODES)
def test_special_values_compress_without_warnings(name, mode):
    """NaN, ±Inf and random bit patterns (signalling NaNs among them)
    raise no numpy RuntimeWarning, as a workload's sync would print it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for methods, enable_bias, th in itertools.product(
            METHOD_SETS, (True, False), THRESHOLDS
        ):
            comp = AVRCompressor(th, check_mode=mode, methods=methods,
                                 enable_bias=enable_bias)
            comp.compress_blocks(CRAFTED[name])


@pytest.mark.parametrize("name", ["zeros", "random-bits", "batch-of-all", "empty"])
def test_crafted_bit_patterns_as_fixed_point(name):
    """The same patterns read as int32 values (extremes included)."""
    blocks = CRAFTED[name].view(np.int32)
    for methods, th in itertools.product(METHOD_SETS, THRESHOLDS):
        check(blocks, DataType.FIXED32, thresholds=th, methods=methods)


def test_float64_and_strided_input():
    """Non-float32, non-contiguous input converts exactly as before."""
    wide = np.linspace(1, 2, 4 * VALUES_PER_BLOCK).reshape(VALUES_PER_BLOCK, 4).T
    check(wide)
    check(CRAFTED["batch-of-all"][::2])


# ----------------------------------------------------------------------
# the workloads' own calls
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_calls_match_oracle(name, monkeypatch):
    """Every compress_blocks call of an AVR run, checked as it is made."""
    calls = []
    fast = AVRCompressor.compress_blocks

    def both(self, blocks, dtype=DataType.FLOAT32):
        got = fast(self, blocks, dtype)
        assert_same_result(got, compress_blocks_reference(self, blocks, dtype))
        calls.append(blocks.shape[0])
        return got

    monkeypatch.setattr(AVRCompressor, "compress_blocks", both)
    make_workload(name, scale=0.1).run("AVR")
    assert calls and sum(calls) > 0


# ----------------------------------------------------------------------
# the public kernels
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 2**32 - 1),
    nblocks=st.integers(0, 16),
    span=st.sampled_from([10, 2**20, 2**31]),
)
def test_kernels_match_gather_kernels(seed, nblocks, span):
    rng = np.random.default_rng(seed)
    values = rng.integers(-span, span, (nblocks, VALUES_PER_BLOCK)).astype(np.int32)
    summaries = rng.integers(-span, span, (nblocks, 16)).astype(np.int32)
    pairs = [
        (downsample_1d(values), downsample_1d_reference(values)),
        (downsample_2d(values), downsample_2d_reference(values)),
        (reconstruct_1d(summaries), reconstruct_1d_reference(summaries)),
        (reconstruct_2d(summaries), reconstruct_2d_reference(summaries)),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)


def _paired_outliers(
    rng: np.random.Generator, base: np.ndarray, pairs: int, low: float, high: float
) -> np.ndarray:
    """``base`` with ``pairs`` adjacent value pairs moved by ``+d`` and ``-d``.

    A pair ``(2j, 2j + 1)`` shares its 1D sub-block and its 2D tile, so
    every summary stays put and the ``2 * pairs`` moved values, and only
    they, become outliers.
    """
    row = base.copy()
    first = rng.choice(VALUES_PER_BLOCK // 2, pairs, replace=False) * 2
    d = rng.uniform(low, high, pairs)
    row[first] += d
    row[first + 1] -= d
    return row


def _sized_batches() -> dict[DataType, np.ndarray]:
    """Per dtype, blocks whose compressed sizes reach 1 to 8 cachelines.

    0 to 52 outlier pairs on a smooth ramp span 0 to 104 outliers, every
    size the timing model charges; the float batch adds NaN, Inf, zero,
    tiny, huge and noise blocks and the crafted extremes.
    """
    rng = np.random.default_rng(23)
    max_pairs = MAX_OUTLIERS // 2
    ramp = np.linspace(1.0, 2.0, VALUES_PER_BLOCK)
    rows = [_paired_outliers(rng, ramp, k, 20.0, 60.0) for k in range(max_pairs + 1)]
    for special in (np.nan, np.inf):
        rows.append(np.where(np.arange(VALUES_PER_BLOCK) == 9, special, ramp))
    rows += [np.zeros(VALUES_PER_BLOCK), ramp * 1e-30, ramp * 1e30,
             rng.normal(0, 1, VALUES_PER_BLOCK)]
    floats = np.concatenate([np.array(rows, dtype=np.float32), CRAFTED["batch-of-all"],
                             CRAFTED["max-ramp"], CRAFTED["60-decades"]])
    int_ramp = 2.0**20 + np.arange(VALUES_PER_BLOCK) * 2.0**12
    int_rows = [_paired_outliers(rng, int_ramp, k, 2.0**26, 2.0**27)
                for k in range(max_pairs + 1)]
    int_rows += [np.zeros(VALUES_PER_BLOCK), rng.integers(-(2**31), 2**31, VALUES_PER_BLOCK)]
    return {DataType.FLOAT32: floats, DataType.FIXED32: np.rint(int_rows).astype(np.int32)}


SIZED = _sized_batches()


def test_decompress_blocks_matches_compressed_reconstruction():
    """Every charged size is a real byte image that decompresses to the
    reconstruction.

    Each compressed block is packed into :class:`oracles.CompressedBlock`'s
    Fig. 2a image, which must be exactly ``size_cachelines`` long.  The
    image, unpacked with the CMT fields (method, bias, size), runs through
    :meth:`AVRCompressor.decompress_blocks`; with the outliers overlaid,
    that rebuilds ``reconstructed`` bit for bit.
    """
    sizes = range(1, MAX_COMPRESSED_CACHELINES + 1)
    for (dtype, blocks), mode, t2 in itertools.product(
        SIZED.items(), MODES, (0.001, 0.01, 0.05)
    ):
        comp = AVRCompressor(ErrorThresholds.from_t2(t2), check_mode=mode)
        res = comp.compress_blocks(blocks, dtype)
        ok = np.flatnonzero(res.success)
        assert set(res.size_cachelines[ok].tolist()) == set(sizes), (dtype, mode, t2)
        raw = blocks.view(np.uint32)
        unpacked = []
        for i in ok:
            mask = res.outlier_mask[i]
            image = CompressedBlock(
                method=CompressionMethod(int(res.method[i])), bias=int(res.bias[i]),
                summary=res.summaries[i], outlier_mask=mask, outlier_bits=raw[i][mask],
            ).pack()
            assert len(image) == CACHELINE_BYTES * res.size_cachelines[i]
            unpacked.append(CompressedBlock.unpack(
                image, CompressionMethod(int(res.method[i])), int(res.bias[i]),
                int(res.size_cachelines[i]),
            ))
        out = comp.decompress_blocks(
            np.array([b.summary for b in unpacked]),
            np.array([b.method for b in unpacked]),
            np.array([b.bias for b in unpacked]),
            dtype,
        )
        for row, block in zip(out, unpacked):
            row[block.outlier_mask] = block.outlier_bits.view(row.dtype)
        assert np.array_equal(_bits(out), _bits(res.reconstructed[ok])), (dtype, mode, t2)
