"""The compressor: shortest derivations, containers, decompression."""

from .tiling import Tiler
from .compressor import Compressor, compress_module
from .container import CompressedModule, CompressedProcedure
from .decompress import decompress_module, decompress_procedure

__all__ = [
    "Tiler", "Compressor", "compress_module",
    "CompressedModule", "CompressedProcedure",
    "decompress_module", "decompress_procedure",
]
