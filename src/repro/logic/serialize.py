"""Netlist serialization (JSON) and equivalence checking.

``to_json``/``from_json`` round-trip a netlist through a plain JSON
document — the interchange format for saving explored designs, diffing
netlists across library versions, or feeding external tooling alongside
the Verilog export.

``check_equivalence`` is the library's one-stop miter: it compares a
netlist against either a Python reference function or another netlist,
exhaustively when the input space is small enough and with corner-loaded
random vectors otherwise, and reports the first counterexample on
mismatch.  The test suite's per-design equivalence checks are built on
the same procedure.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from ..kernels.netlist import compile_netlist
from .netlist import CONST0, CONST1, Gate, Netlist
from .cells import cell

__all__ = ["to_json", "from_json", "check_equivalence", "EquivalenceResult"]

_FORMAT_VERSION = 1


def to_json(netlist: Netlist) -> str:
    """Serialize a netlist to a JSON string."""
    document = {
        "format": _FORMAT_VERSION,
        "name": netlist.name,
        "inputs": netlist.inputs,
        "outputs": netlist.outputs,
        "net_names": {str(k): v for k, v in netlist.net_names.items()},
        "gates": [
            {"cell": gate.cell.name, "inputs": list(gate.inputs), "output": gate.output}
            for gate in netlist.gates
        ],
    }
    return json.dumps(document)


def from_json(text: str) -> Netlist:
    """Rebuild a netlist from :func:`to_json` output.

    The reconstruction bypasses the builder's folding/sharing (the stored
    gates already reflect them) but re-validates topological order and
    cell arity, so a hand-edited document cannot produce an unsimulatable
    netlist.
    """
    document = json.loads(text)
    if document.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported netlist format {document.get('format')!r}"
        )
    netlist = Netlist(document["name"])
    driven = {CONST0, CONST1, *document["inputs"]}
    netlist.inputs = list(document["inputs"])
    netlist.net_names = {int(k): v for k, v in document["net_names"].items()}
    highest = max(netlist.net_names, default=1)
    for entry in document["gates"]:
        c = cell(entry["cell"])
        inputs = tuple(entry["inputs"])
        if len(inputs) != c.inputs:
            raise ValueError(
                f"gate {entry['cell']} arity mismatch in serialized netlist"
            )
        for net in inputs:
            if net not in driven:
                raise ValueError(f"serialized netlist uses undriven net {net}")
        netlist.gates.append(Gate(c, inputs, entry["output"]))
        driven.add(entry["output"])
        highest = max(highest, entry["output"])
    for net in document["outputs"]:
        if net not in driven:
            raise ValueError(f"serialized output {net} is undriven")
    netlist.outputs = list(document["outputs"])
    netlist._driven = driven
    netlist._next_net = highest + 1
    return netlist


@dataclasses.dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    vectors_checked: int
    counterexample: tuple[int, ...] | None = None
    got: int | None = None
    expected: int | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    netlist: Netlist,
    reference,
    input_buses: list[list[int]],
    exhaustive_limit: int = 1 << 16,
    random_vectors: int = 4096,
    seed: int = 0xE9,
) -> EquivalenceResult:
    """Compare a netlist against a reference on its input space.

    ``reference`` is either another :class:`Netlist` (with inputs laid out
    as the same consecutive bus widths) or a callable taking one integer
    array per bus and returning the expected output integers.  Input
    spaces up to ``exhaustive_limit`` total combinations are enumerated
    exhaustively; larger spaces get corner values (0, 1, all-ones, MSB)
    crossed with random vectors.
    """
    widths = [len(bus) for bus in input_buses]
    total_bits = sum(widths)

    if 1 << total_bits <= exhaustive_limit:
        flat = np.arange(1 << total_bits)
        values = []
        shift = 0
        for width in widths:
            values.append((flat >> shift) & ((1 << width) - 1))
            shift += width
    else:
        rng = np.random.default_rng(seed)
        values = []
        corner_sets = []
        for width in widths:
            corner_sets.append(
                np.array([0, 1, (1 << width) - 1, 1 << (width - 1)], dtype=np.int64)
            )
        grid = np.meshgrid(*corner_sets, indexing="ij")
        for axis, width in enumerate(widths):
            corner = grid[axis].ravel()
            random_part = rng.integers(0, 1 << width, random_vectors)
            values.append(np.concatenate([corner, random_part]))

    got = compile_netlist(netlist).evaluate_words(input_buses, values)
    if isinstance(reference, Netlist):
        if len(reference.inputs) != total_bits:
            raise ValueError(
                f"reference netlist has {len(reference.inputs)} input bits, "
                f"expected {total_bits}"
            )
        reference_buses = []
        position = 0
        for width in widths:
            reference_buses.append(reference.inputs[position : position + width])
            position += width
        expected = compile_netlist(reference).evaluate_words(reference_buses, values)
    else:
        expected = np.asarray(reference(*values), dtype=np.int64)

    mismatches = np.nonzero(got != expected)[0]
    if mismatches.size == 0:
        return EquivalenceResult(True, len(values[0]))
    first = int(mismatches[0])
    return EquivalenceResult(
        False,
        len(values[0]),
        counterexample=tuple(int(v[first]) for v in values),
        got=int(got[first]),
        expected=int(expected[first]),
    )
