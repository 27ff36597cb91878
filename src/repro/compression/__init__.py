"""AVR compression: downsampling, outlier sizing, the compressor pipeline."""

from .compressor import AVRCompressor, BatchCompressionResult
from .downsample import (
    downsample_1d,
    downsample_2d,
    reconstruct_1d,
    reconstruct_2d,
)
from .errors import mean_relative_error, relative_error
from .outliers import compressed_size_cachelines
from .truncate import TRUNCATE_RATIO

__all__ = [
    "AVRCompressor",
    "BatchCompressionResult",
    "TRUNCATE_RATIO",
    "compressed_size_cachelines",
    "downsample_1d",
    "downsample_2d",
    "mean_relative_error",
    "reconstruct_1d",
    "reconstruct_2d",
    "relative_error",
]
