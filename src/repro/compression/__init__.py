"""AVR compression: downsampling, outliers, block format, pipelines."""

from .block import CompressedBlock
from .compressor import AVRCompressor, BatchCompressionResult
from .downsample import (
    downsample_1d,
    downsample_2d,
    reconstruct_1d,
    reconstruct_2d,
)
from .errors import mean_relative_error, relative_error
from .lossless import (
    EncodedLine,
    compression_ratio as bdi_compression_ratio,
    decode_line,
    encode_line,
    stacked_ratio,
)
from .outliers import (
    compressed_size_cachelines,
    max_outliers_for_size,
    pack_bitmap,
    unpack_bitmap,
)
from .truncate import TRUNCATE_RATIO, truncate_roundtrip, truncate_values

__all__ = [
    "AVRCompressor",
    "BatchCompressionResult",
    "CompressedBlock",
    "EncodedLine",
    "bdi_compression_ratio",
    "decode_line",
    "encode_line",
    "stacked_ratio",
    "TRUNCATE_RATIO",
    "compressed_size_cachelines",
    "downsample_1d",
    "downsample_2d",
    "max_outliers_for_size",
    "mean_relative_error",
    "pack_bitmap",
    "reconstruct_1d",
    "reconstruct_2d",
    "relative_error",
    "truncate_roundtrip",
    "truncate_values",
    "unpack_bitmap",
]
