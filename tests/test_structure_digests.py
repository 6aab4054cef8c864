"""Design structure pinned bit for bit: netlists, formulas, fingerprints.

The layers below the models — gate-level netlists, formal encodings and
the registry fingerprints that key the warehouse and the kernel cache —
are derived from each registered design.  The SHA-256 digests below
pin all three over the whole registry, so a refactor of how a layer is
derived (which generator, encoder or attribute a design reaches) must
leave every netlist, every 8-bit formula table and every fingerprint
byte-identical.
"""

from __future__ import annotations

import hashlib
import json

from repro.circuits.catalog import netlist_for
from repro.formal.encode import encode_model
from repro.logic.serialize import to_json
from repro.multipliers.registry import build, fingerprint, names

DIGESTS = {
    "netlists": "803b288abc47d25b9680ea35f39af805df624cc120d8743e3bf7e1803048c76f",
    "encodings": "af13c556a4609172583b5002b919fdc8adb7a1e7cf4fecef903f270eab281586",
    "fingerprints": "8b9f5a2c4ec211aab8ae8275a0a191e33e234d0b54023f228f2a124a88fa8ca9",
}


def _buildable(bitwidth: int) -> list[str]:
    """Registry ids whose model accepts this width."""
    ids = []
    for name in names():
        try:
            build(name, bitwidth)
        except ValueError:
            continue
        ids.append(name)
    return ids


def _digest(parts) -> tuple[str, int]:
    """One SHA-256 over labelled strings or bytes, and how many there were."""
    digest = hashlib.sha256()
    count = 0
    for label, data in parts:
        if isinstance(data, str):
            data = data.encode()
        digest.update(label.encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
        count += 1
    return digest.hexdigest(), count


def test_netlists():
    parts = (
        (f"{name}@{n}", to_json(netlist_for(name, n)))
        for n in (8, 16)
        for name in _buildable(n)
    )
    digest, count = _digest(parts)
    assert count == 46 + 73
    assert digest == DIGESTS["netlists"]


def test_encodings():
    def parts():
        for name in _buildable(8):
            encoding = encode_model(build(name, 8), name)
            yield f"{name}:method", encoding.method.encode()
            yield f"{name}:table", encoding.table.astype("<i8").tobytes()

    digest, count = _digest(parts())
    assert count == 2 * 46
    assert digest == DIGESTS["encodings"]


def test_fingerprints():
    parts = (
        (f"{name}@{n}", json.dumps(fingerprint(build(name, n)), sort_keys=True))
        for n in (8, 12, 16)
        for name in _buildable(n)
    )
    digest, count = _digest(parts)
    assert count == 187
    assert digest == DIGESTS["fingerprints"]
