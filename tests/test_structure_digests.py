"""Design structure pinned bit for bit: netlists, formulas, fingerprints.

The layers below the models — gate-level netlists, formal encodings and
the registry fingerprints that key the warehouse and the kernel cache —
are derived from each registered design.  The SHA-256 digests below
pin all three over the whole registry, so a refactor of how a layer is
derived (which generator, encoder or attribute a design reaches) must
leave every netlist, every 8-bit formula table and every fingerprint
byte-identical.  A fourth digest pins what gate evaluation makes of the
netlists: Table I's synthesized area and power, the activity reports,
pipeline register power and the stuck-at fault ablation, so a change of
gate evaluator must leave every float of them unchanged.  A fifth pins
the operand pairs the conformance fuzzer draws for every kind of batch,
so a faster generator must draw the same pairs from the same substreams.
A sixth pins the serving wire: the response frames of both serving
fronts to one request script, so a refactor of how a front dispatches
must answer every request byte for byte as before.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import numpy as np

from repro.circuits.catalog import netlist_for
from repro.circuits.realm_rtl import realm_netlist
from repro.circuits.wallace import wallace_netlist
from repro.conformance.coverage import CoverageMap
from repro.conformance.fuzz import BATCH_PAIRS, BatchSpec, corpus_pairs, generate_batch
from repro.formal.encode import encode_model
from repro.logic.activity import estimate_power
from repro.logic.faults import fault_coverage, fault_impacts, fault_sites
from repro.logic.pipeline import pipeline_netlist
from repro.logic.serialize import to_json
from repro.multipliers.registry import TABLE1_IDS, build, fingerprint, names
from repro.serve import BatchPolicy, LocalShard, Service, Supervisor
from repro.synth.cost import synthesize_design

DIGESTS = {
    "netlists": "803b288abc47d25b9680ea35f39af805df624cc120d8743e3bf7e1803048c76f",
    "encodings": "af13c556a4609172583b5002b919fdc8adb7a1e7cf4fecef903f270eab281586",
    "fingerprints": "8b9f5a2c4ec211aab8ae8275a0a191e33e234d0b54023f228f2a124a88fa8ca9",
    "synthesis": "856cee9f5f38a0a7d19ad7990158e356a4e816b4b9a1f2fe955d9b86f4a1a0e3",
    "fuzz_batches": "620ab15e59960716e9e5cb8eaa031c24819d54cf74e0e06782db32a1cad08a78",
    "serve_frames": "b1e246026dd0bae8705500cd2f703c8b9f3e0765380933c98183630b3f623adf",
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


def _report(report) -> str:
    return repr(
        (report.dynamic_uw, report.leakage_uw, report.mean_toggle_rate, report.vectors)
    )


def test_synthesis():
    """Table I's area/power columns and the power, pipelining and fault
    ablations, every float by ``repr``."""

    def parts():
        for name in ("accurate", *TABLE1_IDS):
            result = synthesize_design(name)
            yield f"{name}:synthesis", repr(
                (result.area_um2, result.power_uw, result.gate_count, result.depth)
            )
            # 1000 vectors: the last 64-vector word is partly padding
            yield f"{name}:power", _report(
                estimate_power(netlist_for(name, 16), vectors=1000)
            )
        # the pipelining ablation's designs
        wallace = wallace_netlist(16)
        wallace.prune()
        for label, netlist in (
            ("accurate", wallace),
            ("realm16-t0", realm_netlist(16, m=16, t=0)),
        ):
            for stages in range(1, 6):
                pipe = pipeline_netlist(netlist, stages)
                yield f"{label}x{stages}:pipeline", _report(pipe.estimate_power())
        # the fault ablation: 160 sampled stuck-at faults per design
        rng = np.random.default_rng(2020)
        a = rng.integers(1, 256, 192)
        b = rng.integers(1, 256, 192)
        wallace = wallace_netlist(8)
        wallace.prune()
        for label, netlist in (
            ("accurate8", wallace),
            ("realm8(M=4)", realm_netlist(8, m=4, t=0)),
        ):
            buses = [netlist.inputs[:8], netlist.inputs[8:]]
            sites = fault_sites(netlist)
            sample = [sites[i] for i in rng.choice(len(sites), 160, replace=False)]
            impacts = fault_impacts(netlist, buses, [a, b], sample)
            yield f"{label}:impacts", repr(impacts)
            yield f"{label}:coverage", repr(
                fault_coverage(netlist, buses, [a, b], faults=sample)
            )

    digest, count = _digest(parts())
    assert count == 2 * 73 + 10 + 2 * 2
    assert digest == DIGESTS["synthesis"]


def _fuzz_specs(bitwidth: int, m: int) -> list[BatchSpec]:
    """Batches of every kind, shaped as the fuzzing loop plans them: the
    whole corpus, cell targets spread over every interval pair, every LSB
    pattern, and mutations of 16 corpus pairs."""
    coverage = CoverageMap(bitwidth, m)
    corpus_a, corpus_b = corpus_pairs(bitwidth, m)
    specs = [
        BatchSpec(
            index, "corpus", start=start, count=min(BATCH_PAIRS, corpus_a.size - start)
        )
        for index, start in enumerate(range(0, corpus_a.size, BATCH_PAIRS))
    ]
    cells = coverage.uncovered()
    cells = cells[:: max(1, len(cells) // 600)]
    for start in range(0, len(cells), BATCH_PAIRS):
        chunk = cells[start : start + BATCH_PAIRS]
        specs.append(BatchSpec(len(specs), "cells", tuple(map(tuple, chunk.tolist()))))
    patterns = coverage.uncovered_lsb()
    specs.append(BatchSpec(len(specs), "lsb", tuple(map(tuple, patterns.tolist()))))
    bases = tuple(zip(corpus_a[::37][:16].tolist(), corpus_b[::37][:16].tolist()))
    specs.append(BatchSpec(len(specs), "mutate", bases, count=BATCH_PAIRS))
    return specs


def test_fuzz_batches():
    """The conformance fuzzer's operand pairs, every batch kind at three
    widths, two segment grids and two seeds."""

    def parts():
        for n in (8, 12, 16):
            for m in (4, 16):
                specs = _fuzz_specs(n, m)
                for seed in (0, 2020):
                    for spec in specs:
                        a, b = generate_batch(spec, n, m, 2, seed)
                        yield (
                            f"{n}/m{m}/seed{seed}/{spec.index}:{spec.kind}",
                            a.astype("<i8").tobytes() + b.astype("<i8").tobytes(),
                        )

    digest, count = _digest(parts())
    assert count == 138
    assert digest == DIGESTS["fuzz_batches"]


#: the request script of the ``serve_frames`` digest, in three phases:
#: a healthy front, a front whose shards are dead (a ``Service`` has none
#: and answers as before), and a draining front
SERVE_SCRIPT = {
    "healthy": (
        b'{"op":"ping","id":1}',
        b'{"op":"status","id":"s"}',
        b'{"op":"designs","prefix":"drum-","id":2}',
        b'{"op":"multiply","design":"realm16-t4","a":40000,"b":51234,"id":3}',
        b'{"op":"multiply","design":"calm","a":[3,5,255],"b":[7,9,254],"bitwidth":8,"id":4}',
        b'{"op":"multiply","design":"drum-k6","a":[1,2,3,4,5,6,7,8],"b":12345,"id":5}',
        b'{"op":"characterize","design":"calm","bitwidth":8,"samples":4096,"seed":7,"id":6}',
        # bad-frame: not JSON, not UTF-8, not an object
        b"not json",
        b"\xff\xfe",
        b"[1,2]",
        # bad-request
        b'{"op":"frobnicate","id":7}',
        b'{"id":8}',
        b'{"op":"multiply","design":"calm","a":[1,2],"b":[1,2,3],"id":9}',
        b'{"op":"ping","id":[1]}',
        # unknown-design, bad-operands, and a width the design cannot take
        b'{"op":"multiply","design":"no-such-design","a":1,"b":2,"id":10}',
        b'{"op":"characterize","design":"no-such-design","id":11}',
        b'{"op":"multiply","design":"calm","a":65536,"b":2,"id":12}',
        b'{"op":"multiply","design":"drum-k6","a":1,"b":2,"bitwidth":4,"id":13}',
        b'{"op":"characterize","design":"drum-k6","bitwidth":4,"samples":16,"id":14}',
        # more pairs than a queue holds: overloaded, or degraded by a fleet
        b'{"op":"multiply","design":"calm","a":[1,2,3,4,5,6,7,8,9],"b":3,"id":15}',
    ),
    "shards-dead": (
        b'{"op":"multiply","design":"mbm-t4","a":[300,301],"b":[7,65535],"id":16}',
        b'{"op":"characterize","design":"calm","bitwidth":8,"samples":64,"id":17}',
        b'{"op":"status","id":18}',
    ),
    "draining": (
        b'{"op":"multiply","design":"calm","a":1,"b":2,"id":19}',
        b'{"op":"characterize","design":"calm","id":20}',
        b'{"op":"designs","id":21}',
        b'{"op":"ping","id":22}',
        b'{"op":"status","id":23}',
    ),
}


async def _serve_frames(front: str) -> list[bytes]:
    """The frames one front answers :data:`SERVE_SCRIPT` with, one
    request at a time through ``handle_line``."""
    policy = BatchPolicy(max_latency=0, max_queue=8)
    if front == "service":
        server = Service(policy=policy)
        server.start()
        shards = []
    else:
        shards = [LocalShard(f"shard-{i}", policy=policy) for i in (0, 1)]
        server = Supervisor(shards)
        await server.up()
    frames = []
    for phase, lines in SERVE_SCRIPT.items():
        if phase == "shards-dead":
            for shard in shards:
                shard.kill()
        elif phase == "draining":
            await server.drain()
        for line in lines:
            frames.append(await server.handle_line(line + b"\n"))
    return frames


def test_serve_frames(monkeypatch):
    """Every op, every error code a front answers in process and the
    drain gate, through a ``Service`` and through a ``Supervisor`` over
    two in-process shards.  (``deadline-exceeded`` needs a shard that
    stops answering, which an in-process shard never does.)"""
    monkeypatch.delenv("REPRO_WAREHOUSE_DIR", raising=False)

    def parts():
        for front in ("service", "supervisor"):
            for index, frame in enumerate(asyncio.run(_serve_frames(front))):
                yield f"{front}:{index}", frame

    digest, count = _digest(parts())
    assert count == 2 * 28
    assert digest == DIGESTS["serve_frames"]
