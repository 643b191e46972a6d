"""Storage substrate: DWRF-like columnar files, Tectonic FS, Hive tables."""

from .compression import Codec, compress, decompress
from .dwrf import DwrfReader, DwrfWriter, FileStats, RowBlock, StripeStats
from .encoding import (
    IntEncoding,
    best_encoding,
    decode_int64,
    encode_int64,
    unzigzag,
    zigzag,
)
from .hive import HiveTable, PartitionInfo
from .tectonic import FSStats, TectonicFS

__all__ = [
    "Codec",
    "compress",
    "decompress",
    "IntEncoding",
    "best_encoding",
    "encode_int64",
    "decode_int64",
    "zigzag",
    "unzigzag",
    "DwrfWriter",
    "DwrfReader",
    "RowBlock",
    "FileStats",
    "StripeStats",
    "TectonicFS",
    "FSStats",
    "HiveTable",
    "PartitionInfo",
]
