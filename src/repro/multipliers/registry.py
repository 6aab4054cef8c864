"""Named multiplier configurations — the full design set of Table I.

Every configuration evaluated in the paper's Table I (and used by Fig. 4's
design space and Table II's JPEG study) has a stable identifier here, e.g.
``"realm16-t3"``, ``"drum-k6"``, ``"alm-soa-m11"``.  The registry maps the
identifier to a factory taking the bitwidth, so benchmarks, examples, the
CLI and the tests all construct identical instances.

>>> from repro.multipliers.registry import build
>>> build("realm16-t0").name
'REALM16 (t=0)'
"""

from __future__ import annotations

import dataclasses
import hashlib

from collections.abc import Callable, Iterator

import numpy as np

from .accurate import AccurateMultiplier
from .alm import AlmMaa, AlmSoa
from .am import Am1Multiplier, Am2Multiplier
from .base import Multiplier
from .dnnco import DnnCoMultiplier
from .drum import DrumMultiplier
from .implm import ImpLmMultiplier
from .intalp import IntAlpMultiplier
from .mbm import MbmMultiplier
from .mitchell import MitchellMultiplier
from .scaletrim import ScaleTrimMultiplier
from .ssm import EssmMultiplier, SsmMultiplier

__all__ = [
    "REGISTRY",
    "TABLE1_IDS",
    "build",
    "fingerprint",
    "names",
    "iter_multipliers",
]

Factory = Callable[[int], Multiplier]


def _realm_factory(m: int, t: int) -> Factory:
    # imported lazily to avoid a circular import at package load time
    def factory(bitwidth: int) -> Multiplier:
        from ..core.realm import RealmMultiplier

        return RealmMultiplier(bitwidth=bitwidth, m=m, t=t)

    return factory


def _build_registry() -> dict[str, Factory]:
    registry: dict[str, Factory] = {"accurate": AccurateMultiplier}
    for m in (16, 8, 4):
        for t in range(10):
            registry[f"realm{m}-t{t}"] = _realm_factory(m, t)
    registry["calm"] = MitchellMultiplier
    registry["implm-ea"] = lambda n: ImpLmMultiplier(n, adder="EA")
    for t in (0, 2, 4, 6, 8, 9):
        registry[f"mbm-t{t}"] = lambda n, t=t: MbmMultiplier(n, t=t)
    for m in (3, 6, 9, 11, 12):
        registry[f"alm-maa-m{m}"] = lambda n, m=m: AlmMaa(n, m=m)
        registry[f"alm-soa-m{m}"] = lambda n, m=m: AlmSoa(n, m=m)
    for level in (2, 1):
        registry[f"intalp-l{level}"] = lambda n, level=level: IntAlpMultiplier(
            n, level=level
        )
    for nb in (13, 9, 5):
        registry[f"am1-nb{nb}"] = lambda n, nb=nb: Am1Multiplier(n, nb=nb)
        registry[f"am2-nb{nb}"] = lambda n, nb=nb: Am2Multiplier(n, nb=nb)
    for k in (8, 7, 6, 5, 4):
        registry[f"drum-k{k}"] = lambda n, k=k: DrumMultiplier(n, k=k)
    for m in (10, 9, 8):
        registry[f"ssm-m{m}"] = lambda n, m=m: SsmMultiplier(n, m=m)
    registry["essm8"] = lambda n: EssmMultiplier(n, m=8)
    for t, c in ((3, 2), (4, 0), (4, 2), (6, 3)):
        registry[f"scaletrim-t{t}-c{c}"] = lambda n, t=t, c=c: ScaleTrimMultiplier(
            n, t=t, c=c
        )
    for level in (4, 6, 8):
        registry[f"dnnco-l{level}"] = lambda n, level=level: DnnCoMultiplier(
            n, l=level
        )
    return registry


#: identifier -> factory(bitwidth) for every design point in the paper
REGISTRY: dict[str, Factory] = _build_registry()

#: the approximate designs of Table I, in the paper's row order
TABLE1_IDS: tuple[str, ...] = tuple(
    name for name in REGISTRY if name != "accurate"
)


def names() -> list[str]:
    """All registered configuration identifiers, in Table I order."""
    return list(REGISTRY)


def build(name: str, bitwidth: int = 16) -> Multiplier:
    """Construct the named configuration at the given bitwidth."""
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown multiplier {name!r}; known: {', '.join(REGISTRY)}"
        ) from None
    return factory(bitwidth)


def _describe_value(value):
    """JSON-stable description of one configuration attribute."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            key: _describe_value(item)
            for key, item in dataclasses.asdict(value).items()
        }
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return {
            "ndarray": digest.hexdigest(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, (tuple, list)):
        return [_describe_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _describe_value(item) for key, item in sorted(value.items())}
    if callable(value) and hasattr(value, "__qualname__"):
        # default repr embeds a memory address, which is not stable across
        # processes; the qualified name is
        module = getattr(value, "__module__", "?")
        return {"callable": f"{module}.{value.__qualname__}"}
    return repr(value)


def fingerprint(multiplier: Multiplier) -> dict:
    """Stable, JSON-serializable description of a multiplier configuration.

    Covers the class identity, bitwidth and every instance attribute
    (scalars directly, dataclass configs field by field, arrays as SHA-256
    content digests), so two instances fingerprint equally iff they
    compute the same function.  Warehouse rows are keyed on this.
    """
    info: dict = {
        "class": type(multiplier).__qualname__,
        "module": type(multiplier).__module__,
        "bitwidth": multiplier.bitwidth,
        "name": multiplier.name,
    }
    for key, value in sorted(vars(multiplier).items()):
        if key == "bitwidth":
            continue
        info[key] = _describe_value(value)
    return info


def iter_multipliers(
    ids: tuple[str, ...] | list[str] | None = None, bitwidth: int = 16
) -> Iterator[tuple[str, Multiplier]]:
    """Yield ``(identifier, instance)`` pairs for the requested designs."""
    for name in ids if ids is not None else names():
        yield name, build(name, bitwidth)
