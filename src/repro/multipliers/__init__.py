"""Functional models of every multiplier evaluated in the paper."""

from .accurate import AccurateMultiplier
from .alm import AlmLoa, AlmMaa, AlmSoa, ApproxAdderLogMultiplier
from .am import Am1Multiplier, Am2Multiplier
from .base import Multiplier, ProductFormMultiplier, datapath_family
from .drum import DrumMultiplier
from .floating import (
    BFLOAT16_LIKE,
    FLOAT32,
    ApproxFloatMultiplier,
    FloatFormat,
)
from .implm import ImpLmMultiplier
from .intalp import IntAlpMultiplier
from .mbm import MbmMultiplier
from .mitchell import MitchellMultiplier
from .registry import REGISTRY, TABLE1_IDS, build, iter_multipliers, names
from .signed import (
    SignedMultiplier,
    convolve2d,
    dot_product,
    signed_matmul,
    signed_product,
)
from .ssm import EssmMultiplier, SsmMultiplier

__all__ = [
    "AccurateMultiplier",
    "AlmLoa",
    "AlmMaa",
    "AlmSoa",
    "Am1Multiplier",
    "Am2Multiplier",
    "ApproxAdderLogMultiplier",
    "ApproxFloatMultiplier",
    "BFLOAT16_LIKE",
    "DrumMultiplier",
    "FLOAT32",
    "FloatFormat",
    "EssmMultiplier",
    "ImpLmMultiplier",
    "IntAlpMultiplier",
    "MbmMultiplier",
    "MitchellMultiplier",
    "Multiplier",
    "ProductFormMultiplier",
    "REGISTRY",
    "SignedMultiplier",
    "SsmMultiplier",
    "TABLE1_IDS",
    "build",
    "convolve2d",
    "datapath_family",
    "dot_product",
    "iter_multipliers",
    "names",
    "signed_matmul",
    "signed_product",
]
