"""REALM: Reduced-Error Approximate Log-based Integer Multiplier.

Full reproduction of Saadat, Javaid, Ignjatovic, Parameswaran (DATE 2020):
the REALM multiplier, every baseline of its evaluation, bit-accurate
functional models, gate-level structural models with a calibrated
area/power cost model, the error-characterization framework, and the JPEG
application study.

Quickstart::

    from repro import RealmMultiplier, characterize

    realm = RealmMultiplier(bitwidth=16, m=16, t=0)
    print(realm.multiply(40000, 50000))
    print(characterize(realm, samples=1 << 20))

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results of every table and figure.
"""

from . import _malloc
from .core.config import RealmConfig
from .core.factors import (
    compute_factors,
    compute_factors_mse,
    mitchell_relative_error,
    quantize_factors,
)
from .core.realm import RealmMultiplier
from .analysis.metrics import ErrorMetrics, compute_metrics
from .analysis.montecarlo import characterize
from .multipliers.base import Multiplier
from .multipliers.registry import REGISTRY, TABLE1_IDS, build
from .explore import Candidate, Constraints, explore
from .multipliers.signed import (
    SignedMultiplier,
    convolve2d,
    dot_product,
    signed_matmul,
    signed_product,
)

# every entry point (library, CLI, serve shards, pool workers) imports
# this package, so each process runs with the same allocator thresholds
_malloc.pin()

__version__ = "1.0.0"

__all__ = [
    "Candidate",
    "Constraints",
    "ErrorMetrics",
    "Multiplier",
    "REGISTRY",
    "RealmConfig",
    "RealmMultiplier",
    "SignedMultiplier",
    "TABLE1_IDS",
    "build",
    "characterize",
    "compute_factors",
    "compute_factors_mse",
    "compute_metrics",
    "convolve2d",
    "dot_product",
    "explore",
    "mitchell_relative_error",
    "quantize_factors",
    "signed_matmul",
    "signed_product",
    "__version__",
]
