"""Hash-consed boolean DAG: the bit-vector formula IR of the formal layer.

Every formal query in :mod:`repro.formal` — equivalence miters, error
threshold refutations, the conformance ``formal`` layer — is a directed
acyclic graph of single-bit boolean nodes over named input variables.
The IR is deliberately tiny (``var``, constants, ``not``, ``and``,
``or``, ``xor``, ``mux``) so that every backend stays a small lowering:

* the **exhaustive** backend evaluates the DAG directly on uint64-packed
  stimulus lanes (64 assignments per machine word, the same packing the
  netlist kernels use), which makes full 2^(2N) sweeps affordable for
  narrow operands;
* the **BDD** backend translates nodes to reduced ordered BDDs;
* the **SMT** backend (optional z3) maps nodes one-to-one onto solver
  terms.

Construction interns structurally identical nodes and folds constants,
mirroring :meth:`repro.logic.netlist.Netlist.add` — the encoder can be
naive and still emit compact formulas.  Buses are Python lists of nodes,
LSB first, the same convention the netlist generators use.  Word-level
helpers (ripple adders, barrel shifters, multipliers, constant tables)
live here too so the per-family encoders read like the functional models
they mirror.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Builder",
    "Evaluator",
    "Node",
    "add",
    "bus_mux",
    "bus_zero_extend",
    "const_select",
    "mul",
    "shift_left_var",
]


class Node:
    """One interned DAG node; identity is object identity."""

    __slots__ = ("op", "args", "label", "id")

    def __init__(self, op: str, args: tuple, label: str | None, nid: int):
        self.op = op
        self.args = args
        self.label = label
        self.id = nid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.op == "var":
            return f"<var {self.label}>"
        return f"<{self.op} #{self.id}>"


class Builder:
    """Interning factory for :class:`Node` with constant folding.

    Nodes are created strictly after their arguments, so ``builder.nodes``
    is always a valid topological order — evaluators and lowerings never
    need an explicit toposort.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._intern: dict[tuple, Node] = {}
        self.false = self._new("const0", ())
        self.true = self._new("const1", ())

    def _new(self, op: str, args: tuple, label: str | None = None) -> Node:
        node = Node(op, args, label, len(self.nodes))
        self.nodes.append(node)
        return node

    def _interned(self, op: str, args: tuple) -> Node:
        key = (op, *(a.id for a in args))
        node = self._intern.get(key)
        if node is None:
            node = self._new(op, args)
            self._intern[key] = node
        return node

    # -- leaves ----------------------------------------------------------

    def var(self, label: str) -> Node:
        """A fresh named input variable (labels must be unique)."""
        key = ("var", label)
        if key in self._intern:
            raise ValueError(f"duplicate variable {label!r}")
        node = self._new("var", (), label)
        self._intern[key] = node
        return node

    def const(self, value) -> Node:
        return self.true if value else self.false

    # -- gates, folding the cases the encoders generate ------------------

    def not_(self, a: Node) -> Node:
        if a is self.false:
            return self.true
        if a is self.true:
            return self.false
        if a.op == "not":
            return a.args[0]
        return self._interned("not", (a,))

    def and_(self, a: Node, b: Node) -> Node:
        if a is self.false or b is self.false:
            return self.false
        if a is self.true:
            return b
        if b is self.true:
            return a
        if a is b:
            return a
        if _complements(a, b):
            return self.false
        if b.id < a.id:
            a, b = b, a
        return self._interned("and", (a, b))

    def or_(self, a: Node, b: Node) -> Node:
        if a is self.true or b is self.true:
            return self.true
        if a is self.false:
            return b
        if b is self.false:
            return a
        if a is b:
            return a
        if _complements(a, b):
            return self.true
        if b.id < a.id:
            a, b = b, a
        return self._interned("or", (a, b))

    def xor(self, a: Node, b: Node) -> Node:
        if a is self.false:
            return b
        if b is self.false:
            return a
        if a is self.true:
            return self.not_(b)
        if b is self.true:
            return self.not_(a)
        if a is b:
            return self.false
        if _complements(a, b):
            return self.true
        if b.id < a.id:
            a, b = b, a
        return self._interned("xor", (a, b))

    def mux(self, d0: Node, d1: Node, sel: Node) -> Node:
        """``sel ? d1 : d0`` (the MUX2 cell convention)."""
        if sel is self.false:
            return d0
        if sel is self.true:
            return d1
        if d0 is d1:
            return d0
        if d0 is self.false and d1 is self.true:
            return sel
        if d0 is self.true and d1 is self.false:
            return self.not_(sel)
        if d0 is self.false:
            return self.and_(d1, sel)
        if d1 is self.false:
            return self.and_(d0, self.not_(sel))
        if d0 is self.true:
            return self.or_(d1, self.not_(sel))
        if d1 is self.true:
            return self.or_(d0, sel)
        return self._interned("mux", (d0, d1, sel))

    # -- conveniences ----------------------------------------------------

    def xor3(self, a: Node, b: Node, c: Node) -> Node:
        return self.xor(self.xor(a, b), c)

    def maj3(self, a: Node, b: Node, c: Node) -> Node:
        return self.or_(
            self.or_(self.and_(a, b), self.and_(a, c)), self.and_(b, c)
        )

    def or_many(self, nodes) -> Node:
        out = self.false
        for node in nodes:
            out = self.or_(out, node)
        return out

    def input_bus(self, label: str, width: int) -> list[Node]:
        """Declare a ``width``-bit input bus (LSB first)."""
        return [self.var(f"{label}[{i}]") for i in range(width)]

    def __len__(self) -> int:
        return len(self.nodes)


def _complements(a: Node, b: Node) -> bool:
    return (a.op == "not" and a.args[0] is b) or (b.op == "not" and b.args[0] is a)


# ----------------------------------------------------------------------
# word-level helpers (buses are LSB-first node lists)
# ----------------------------------------------------------------------


def bus_zero_extend(builder: Builder, bus: list[Node], width: int) -> list[Node]:
    if len(bus) >= width:
        return list(bus[:width])
    return list(bus) + [builder.false] * (width - len(bus))


def add(
    builder: Builder, xs: list[Node], ys: list[Node], cin: Node | None = None
) -> list[Node]:
    """Ripple-carry sum of two equal-or-unequal width buses.

    Returns ``max(len(xs), len(ys)) + 1`` bits (the carry out is the
    MSB), so word growth is always explicit at the call site.
    """
    width = max(len(xs), len(ys))
    xs = bus_zero_extend(builder, xs, width)
    ys = bus_zero_extend(builder, ys, width)
    carry = builder.false if cin is None else cin
    out = []
    for x, y in zip(xs, ys):
        out.append(builder.xor3(x, y, carry))
        carry = builder.maj3(x, y, carry)
    out.append(carry)
    return out


def bus_mux(
    builder: Builder, b0: list[Node], b1: list[Node], sel: Node
) -> list[Node]:
    width = max(len(b0), len(b1))
    b0 = bus_zero_extend(builder, b0, width)
    b1 = bus_zero_extend(builder, b1, width)
    return [builder.mux(x, y, sel) for x, y in zip(b0, b1)]


def shift_left_var(
    builder: Builder, bus: list[Node], amount: list[Node], max_shift: int
) -> list[Node]:
    """Barrel shifter: ``bus << amount`` for ``amount <= max_shift``.

    The result is ``len(bus) + max_shift`` bits; amount bits beyond
    ``ceil(log2(max_shift + 1))`` must be provably zero at the call site
    (they are ignored, exactly like a hardware shifter's unused selects).
    """
    out = list(bus) + [builder.false] * max_shift
    width = len(out)
    stages = max(1, (max_shift).bit_length())
    for stage in range(min(stages, len(amount))):
        step = 1 << stage
        if step > max_shift:
            break
        sel = amount[stage]
        shifted = [builder.false] * step + out[: width - step]
        out = [builder.mux(o, s, sel) for o, s in zip(out, shifted)]
    return out


def mul(builder: Builder, xs: list[Node], ys: list[Node]) -> list[Node]:
    """Exact unsigned shift-add multiplier, ``len(xs) + len(ys)`` bits."""
    width = len(xs) + len(ys)
    acc = [builder.false] * width
    for i, y in enumerate(ys):
        partial = [builder.false] * i + [builder.and_(x, y) for x in xs]
        acc = add(builder, acc, partial)[:width]
    return acc


def const_select(
    builder: Builder, select: list[Node], values, width: int
) -> list[Node]:
    """A hardwired constant table: ``values[select]`` as a ``width``-bit bus.

    ``values`` has ``2**len(select)`` integer entries (negative entries
    wrap to two's complement).  Built as a Shannon mux tree, bottom-up
    from the select LSB; interning collapses shared subtrees, so the
    node count tracks the table's information content, not its size.
    """
    values = [int(v) & ((1 << width) - 1) for v in values]
    if len(values) != 1 << len(select):
        raise ValueError(
            f"table has {len(values)} entries; select width {len(select)} "
            f"needs {1 << len(select)}"
        )
    out = []
    for bit in range(width):
        layer: list[Node] = [builder.const((v >> bit) & 1) for v in values]
        for sel in select:
            layer = [
                builder.mux(layer[2 * i], layer[2 * i + 1], sel)
                for i in range(len(layer) // 2)
            ]
        out.append(layer[0])
    return out


# ----------------------------------------------------------------------
# concrete evaluation on uint64-packed lanes
# ----------------------------------------------------------------------


class Evaluator:
    """One root set compiled to a straight-line uint64 lane program.

    ``roots`` fixes the output cone; only nodes feeding a root are
    evaluated.  :meth:`run` takes per-variable uint64 lane arrays (64
    assignments per word, like :mod:`repro.kernels.netlist`) and returns
    one lane array per root.  :meth:`run_words` wraps the int64 word
    conversion for bus-shaped inputs and outputs.
    """

    def __init__(self, builder: Builder, roots: list[Node]):
        self.builder = builder
        self.roots = list(roots)
        needed = set()
        stack = [r for r in self.roots]
        while stack:
            node = stack.pop()
            if node.id in needed:
                continue
            needed.add(node.id)
            stack.extend(node.args)
        # builder id order is topological by construction
        self.program = [n for n in builder.nodes if n.id in needed]
        self.var_labels = [n.label for n in self.program if n.op == "var"]

    def run(self, assignment: dict[str, np.ndarray], words: int) -> list[np.ndarray]:
        """Evaluate the roots; ``assignment`` maps variable labels to
        uint64 lane arrays of ``words`` words."""
        ones = ~np.uint64(0)
        values: dict[int, np.ndarray] = {}
        for node in self.program:
            op = node.op
            if op == "var":
                try:
                    values[node.id] = assignment[node.label]
                except KeyError:
                    raise KeyError(f"no assignment for variable {node.label!r}")
            elif op == "const0":
                values[node.id] = np.zeros(words, dtype=np.uint64)
            elif op == "const1":
                values[node.id] = np.full(words, ones, dtype=np.uint64)
            elif op == "not":
                values[node.id] = ~values[node.args[0].id]
            elif op == "and":
                values[node.id] = values[node.args[0].id] & values[node.args[1].id]
            elif op == "or":
                values[node.id] = values[node.args[0].id] | values[node.args[1].id]
            elif op == "xor":
                values[node.id] = values[node.args[0].id] ^ values[node.args[1].id]
            else:  # mux
                d0, d1, sel = (values[a.id] for a in node.args)
                values[node.id] = (d0 & ~sel) | (d1 & sel)
        return [values[r.id] for r in self.roots]

    def run_words(self, buses: dict[str, np.ndarray]) -> np.ndarray:
        """Drive integer operand vectors, return roots as int64 words.

        ``buses`` maps bus labels (as given to ``input_bus``) to int64
        value arrays; the roots are interpreted as one LSB-first bus.
        """
        from ..kernels.netlist import _pack_words, _unpack_words

        sizes = {np.asarray(v).size for v in buses.values()}
        if len(sizes) != 1:
            raise ValueError(f"operand vectors disagree on length: {sizes}")
        count = sizes.pop()
        words = (count + 63) // 64
        assignment: dict[str, np.ndarray] = {}
        by_prefix = {label: set() for label in buses}
        for label in self.var_labels:
            prefix, _, index = label.rpartition("[")
            if prefix in by_prefix:
                by_prefix[prefix].add(int(index[:-1]))
        for label, values in buses.items():
            indices = by_prefix[label]
            width = max(indices, default=-1) + 1
            lanes = _pack_words(np.asarray(values, dtype=np.int64), max(width, 1))
            for i in range(width):
                assignment[f"{label}[{i}]"] = lanes[i]
        lanes = self.run(assignment, words)
        return _unpack_words(np.asarray(lanes), count)
