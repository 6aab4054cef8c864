"""Fixed-point JPEG substrate for the Table II application study."""

from .codec import CompressedImage, compress, decompress, roundtrip_psnr
from .dct import dct_matrix_q7, forward_dct, inverse_dct
from .huffman import decode_blocks, encode_blocks
from .images import IMAGE_NAMES, test_image
from .psnr import mse, psnr
from .quant import BASE_LUMINANCE, dequantize, quant_table, quantize
from .ssim import ssim
from .zigzag import from_zigzag, to_zigzag, zigzag_order

__all__ = [
    "BASE_LUMINANCE",
    "CompressedImage",
    "IMAGE_NAMES",
    "compress",
    "dct_matrix_q7",
    "decode_blocks",
    "decompress",
    "dequantize",
    "encode_blocks",
    "forward_dct",
    "from_zigzag",
    "inverse_dct",
    "mse",
    "psnr",
    "quant_table",
    "quantize",
    "roundtrip_psnr",
    "ssim",
    "test_image",
    "to_zigzag",
    "zigzag_order",
]
