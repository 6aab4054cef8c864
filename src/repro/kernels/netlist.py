"""Bit-parallel netlist kernel: 64 stimulus vectors per machine word.

The one gate evaluator the package runs: RTL conformance, the formal
formulas, power, pipeline registers, stuck-at faults, the equivalence
miter and the testbench goldens.  The reference simulator
(:func:`repro.logic.sim.simulate`) walks the gate list one gate at a
time, each evaluation a Python dict lookup plus one NumPy call over
boolean arrays — one *byte* of memory traffic per stimulus bit.  This
module lowers a levelized netlist into a straight-line program over
**uint64-packed lanes**:

* every net gets a dense slot in one ``(net_count, words)`` uint64
  matrix — its packed waveform; 64 stimulus vectors share each word, so
  the whole working set shrinks 8x and every bitwise op processes 64
  vectors per lane;
* gates are grouped by ``(ASAP level, cell type)`` — gates at the same
  level are independent by construction, so each group executes as a
  *single* fancy-indexed gather, one vectorized cell evaluation over a
  ``(gates, words)`` block, and one scatter.  The per-gate Python
  interpreter loop collapses into ~``levels x cell-kinds`` NumPy calls;
* a stuck-at fault is one more step after the one that writes its net.

The cell library's boolean functions (:mod:`repro.logic.cells`) are pure
bitwise expressions, so they run unchanged on packed uint64 lanes — the
kernel is bit-identical to the reference simulator by construction
(and sworn to by ``tests/test_kernels.py`` and
``tests/test_netlist_fuzz.py``).  Lane packing relies on the
little-endian uint64 byte order of every supported platform.
"""

from __future__ import annotations

import copy

import numpy as np

from ..logic.cells import CELLS
from ..logic.netlist import CONST0, CONST1, Netlist
from ..logic.sim import _check_values, _check_width

__all__ = ["NetlistKernel", "compile_netlist"]


def _to_words(packed: np.ndarray) -> np.ndarray:
    """Byte rows -> uint64 rows, zero-padding to 8-byte multiples."""
    rows, cols = packed.shape
    pad = (-cols) % 8
    if pad:
        padded = np.zeros((rows, cols + pad), dtype=np.uint8)
        padded[:, :cols] = packed
        packed = padded
    return np.ascontiguousarray(packed).view(np.uint64)


# Bit transposes a byte at a time.  A lane byte holds one bit of 8
# consecutive values, and a value byte holds 8 bits of one value, so
# both directions are 8x8 bit-matrix transposes, run over every net at
# once.  ``_SPREAD[r, v]`` spreads lane byte ``v`` of net ``8p + r``
# over its 8 values: bit ``t`` of ``v`` lands on bit ``r`` of byte
# ``t``, so OR-ing the 8 nets of group ``p`` yields byte ``p`` of each
# value.  The other way, ``(x >> i) & _LOW`` keeps bit ``i`` of the 8
# value bytes in ``x``, and times ``_GATHER`` byte ``t``'s bit lands on
# bit ``56 + t`` with no carries: the lane byte of net ``8p + i``.
_BITS = np.arange(8, dtype=np.uint64)[:, None]
_ROWS = np.arange(8, dtype=np.intp)[:, None]
_SPREAD = np.bitwise_or.reduce(
    ((np.arange(256, dtype=np.uint64) >> _BITS) & np.uint64(1)) << 8 * _BITS, axis=0
) << _BITS
_LOW = np.uint64(0x0101010101010101)
_GATHER = np.uint64(0x0102040810204080)


def _pack_words(values: np.ndarray, width: int) -> np.ndarray:
    """Integers -> uint64 lanes ``(width, words)``, bit ``i`` of value
    ``j`` at lane ``[i, j // 64]`` bit ``j % 64``.

    Same validation contract as :func:`repro.logic.sim.int_to_bus`;
    only the ``ceil(width / 8)`` bytes a value occupies are transposed.
    """
    _check_values(values, width)
    count = values.size
    groups = (count + 63) // 64 * 8  # lane bytes per net
    nbytes = (width + 7) // 8
    raw = np.zeros((groups * 8, 8), dtype=np.uint8)
    raw[:count] = np.ascontiguousarray(values).view(np.uint8).reshape(count, 8)
    # x[p, 0, q]: byte p of values 8q .. 8q + 7 as one uint64
    x = raw.reshape(groups, 8, 8)[:, :, :nbytes].transpose(2, 0, 1).copy()
    x = x.view(np.uint64).reshape(nbytes, 1, groups)
    lanes = ((x >> _BITS) & _LOW) * _GATHER >> np.uint64(56)
    return lanes.reshape(nbytes * 8, groups)[:width].astype(np.uint8).view(np.uint64)


def _unpack_words(lanes: np.ndarray, count: int) -> np.ndarray:
    """uint64 lanes ``(nets, words)`` -> ``count`` int64 values, net 0
    as the LSB (inverse of :func:`_pack_words`)."""
    nets = lanes.shape[0]
    _check_width(nets)
    if nets == 0:
        return np.zeros(count, dtype=np.int64)
    nbytes = (nets + 7) // 8
    groups = lanes.shape[1] * 8  # lane bytes per net
    raw = np.zeros((nbytes * 8, groups), dtype=np.uint8)
    raw[:nets] = np.ascontiguousarray(lanes).view(np.uint8)
    spread = _SPREAD[_ROWS, raw.reshape(nbytes, 8, groups)]
    # y[p, q]: byte p of values 8q .. 8q + 7, one per byte
    y = np.bitwise_or.reduce(spread, axis=1)
    out = np.zeros((groups * 8, 8), dtype=np.uint8)
    out[:, :nbytes] = y.view(np.uint8).reshape(nbytes, groups * 8).T
    return out.view(np.int64).reshape(-1)[:count]


class NetlistKernel:
    """One netlist lowered to a straight-line bit-parallel program.

    Construction performs the lowering (levelize, group, index); each
    :meth:`evaluate_words` or :meth:`waveforms` call then runs the fixed
    program on a fresh value matrix.  :meth:`evaluate_words` has the
    contract of the reference :func:`repro.logic.sim.evaluate_words`.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.slots = netlist.net_count
        level: dict[int, int] = {CONST0: 0, CONST1: 0}
        for net in netlist.inputs:
            level[net] = 0
        groups: dict[tuple[int, str], list] = {}
        for gate in netlist.gates:
            lvl = 1 + max(level[i] for i in gate.inputs)
            level[gate.output] = lvl
            groups.setdefault((lvl, gate.cell.name), []).append(gate)
        self.depth = max(level.values(), default=0)
        # one program step per (level, cell) group: the cell function,
        # one gather index array per input pin, one scatter index array.
        # Single-gate groups index with plain ints — views, not copies.
        self._program = []
        for lvl, name in sorted(groups):
            gates = groups[(lvl, name)]
            cell = gates[0].cell
            if len(gates) == 1:
                in_idx = tuple(int(i) for i in gates[0].inputs)
                out_idx = int(gates[0].output)
            else:
                in_idx = tuple(
                    np.array([g.inputs[pin] for g in gates], dtype=np.intp)
                    for pin in range(cell.inputs)
                )
                out_idx = np.array([g.output for g in gates], dtype=np.intp)
            self._program.append((cell.function, in_idx, out_idx))

    @property
    def step_count(self) -> int:
        """Program length: NumPy dispatches per evaluation pass."""
        return len(self._program)

    def with_faults(self, faults) -> NetlistKernel:
        """This kernel with stuck-at faults injected.

        ``faults`` are :class:`~repro.logic.faults.Fault` s on primary
        inputs or gate outputs.  Each forced net is one more step, after
        the step that writes it, buffering ``CONST1`` (stuck-at-1) or
        ``CONST0`` into the net; of two faults on one net the last wins.
        """
        stuck = {fault.net: CONST1 if fault.stuck_value else CONST0 for fault in faults}
        buffer = CELLS["BUF"].function

        def tied(nets) -> list:
            return [(buffer, (stuck.pop(net),), net) for net in nets if net in stuck]

        program = tied(self.netlist.inputs)
        for step in self._program:
            nets = [step[2]] if isinstance(step[2], int) else step[2].tolist()
            program += [step, *tied(nets)]
        if stuck:
            raise ValueError(
                f"nets {sorted(stuck)} are neither inputs nor gate outputs"
            )
        faulty = copy.copy(self)
        faulty._program = program
        return faulty

    def _run(self, count: int, driven) -> np.ndarray:
        """Value matrix of a run on ``count`` vectors whose inputs are set
        by ``driven``, ``(nets, lanes)`` pairs."""
        vals = np.zeros((self.slots, (count + 63) // 64), dtype=np.uint64)
        vals[CONST1] = ~np.uint64(0)
        for nets, lanes in driven:
            vals[np.asarray(nets, dtype=np.intp)] = lanes
        for function, in_idx, out_idx in self._program:
            vals[out_idx] = function(*(vals[idx] for idx in in_idx))
        return vals

    def waveforms(self, stimulus: np.ndarray) -> np.ndarray:
        """Every net's packed waveform under boolean input waveforms.

        ``stimulus`` holds one boolean row per primary input, in
        ``netlist.inputs`` order, one column per vector.  Returns the
        ``(net_count, words)`` uint64 value matrix: vector ``j`` of net
        ``n`` is bit ``j % 64`` of word ``[n, j // 64]``.  Bits past the
        last vector are padding and carry no meaning.
        """
        stimulus = np.asarray(stimulus, dtype=bool)
        if stimulus.ndim != 2 or len(stimulus) != len(self.netlist.inputs):
            raise ValueError(f"need one stimulus row per input, got {stimulus.shape}")
        lanes = _to_words(np.packbits(stimulus, axis=1, bitorder="little"))
        return self._run(stimulus.shape[1], [(self.netlist.inputs, lanes)])

    def evaluate_words(
        self, operand_buses: list[list[int]], operand_values: list[np.ndarray]
    ) -> np.ndarray:
        """Drive integer operands, run the program, read the output bus.

        Same contract as :func:`repro.logic.sim.evaluate_words`: buses
        are LSB first, values are validated against the bus width, and
        the output bus comes back as int64 words.
        """
        if len(operand_buses) != len(operand_values):
            raise ValueError("one value vector per operand bus required")
        driven = {CONST0, CONST1}
        for bus in operand_buses:
            driven.update(bus)
        missing = [net for net in self.netlist.inputs if net not in driven]
        if missing:
            names = ", ".join(self.netlist.net_names[n] for n in missing)
            raise ValueError(f"stimulus missing for inputs: {names}")
        arrays = [np.asarray(v, dtype=np.int64).reshape(-1) for v in operand_values]
        sizes = {arr.size for arr in arrays}
        if len(sizes) > 1:
            raise ValueError(f"operand vectors disagree on length: {sizes}")
        count = sizes.pop() if sizes else 0
        vals = self._run(
            count,
            [(bus, _pack_words(v, len(bus))) for bus, v in zip(operand_buses, arrays)],
        )
        out_idx = np.asarray(self.netlist.outputs, dtype=np.intp)
        return _unpack_words(vals[out_idx], count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<NetlistKernel {self.netlist.name!r}: "
            f"{self.netlist.gate_count} gates -> {self.step_count} steps>"
        )


def compile_netlist(netlist: Netlist) -> NetlistKernel:
    """Lower a netlist into a :class:`NetlistKernel`."""
    return NetlistKernel(netlist)
