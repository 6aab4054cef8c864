"""The solver ladder: exhaustive sweep, optional SMT, then a bounded BDD.

Equivalence queries run through one of three interchangeable backends:

* :class:`Z3Backend` — lowers both netlists into z3 and checks the
  miter.  **Strictly optional**: z3 is imported lazily and its absence
  only removes this rung.
* :class:`BddBackend` — canonicalizes both netlists in one bounded ROBDD
  manager (:mod:`repro.formal.bdd`).  Complete while the diagrams fit
  the node budget; answers ``unknown`` (never wrong) when they don't —
  which the exact-multiplier cores of the product-form families always
  will, BDDs of multiplication being exponential in every order.  This
  backend and z3 are the only readers of a truth-table encoding's
  netlist, which is built on that first read.
* :class:`ExhaustiveBackend` — sweep of the full ``2**(2N)`` pair grid
  through both encodings' ``eval_pairs``: at ``N <= 8`` a comparison of
  two product tables, above it the bit-parallel netlist kernels.
  Complete and fastest up to ``max_bitwidth`` (12); declines above it.

Both symbolic backends read netlist gates through :func:`lower`, which
applies each library cell's one boolean definition
(:attr:`repro.logic.cells.Cell.function`) to the backend's own terms.

``check_equal(f, g)`` returns ``(status, extra)`` with status
``"proved"`` / ``"refuted"`` / ``"unknown"``; after a refutation
``extra`` is the witness, the concrete ``(a, b)`` pair on which the
encodings disagree, and after ``unknown`` it is the reason.  Buses of different
widths compare as unsigned integers (zero-extended).
"""

from __future__ import annotations

import types

import numpy as np

from ..analysis import telemetry
from ..logic.netlist import CONST0, CONST1, Netlist
from .bdd import Bdd, BudgetExceeded, interleaved_order
from .encode import Encoding

__all__ = [
    "BddBackend",
    "ExhaustiveBackend",
    "Z3Backend",
    "available_backends",
    "default_ladder",
    "import_z3",
    "lower",
    "resolve_backend",
    "z3_available",
]


def import_z3():
    """The z3 module, or ``None`` when not installed (never raises)."""
    try:
        import z3  # type: ignore
    except ImportError:
        return None
    return z3


def z3_available() -> bool:
    return import_z3() is not None


class ExhaustiveBackend:
    """Complete equivalence by sweeping every operand pair.

    ``chunk`` bounds the pairs evaluated per batch so the uint64 lane
    matrices stay cache-sized; ``max_bitwidth`` bounds the total
    ``4**N`` sweep (N=12 is ~17M pairs, a few seconds of NumPy).
    """

    name = "exhaustive"

    def __init__(self, max_bitwidth: int = 12, chunk: int = 1 << 18):
        self.max_bitwidth = max_bitwidth
        self.chunk = chunk

    def check_equal(self, f: Encoding, g: Encoding):
        n = f.bitwidth
        if n != g.bitwidth:
            raise ValueError("encodings disagree on bitwidth")
        if n > self.max_bitwidth:
            return (
                "unknown",
                f"{n} bits is above the {self.max_bitwidth}-bit sweep limit",
            )
        tele = telemetry.get()
        with tele.span(
            "formal.solve", backend=self.name, design=f.design, bitwidth=n
        ):
            space = np.arange(np.int64(1) << n, dtype=np.int64)
            rows = max(self.chunk >> n, 1)
            for start in range(0, space.size, rows):
                a_block = space[start : start + rows]
                a = np.repeat(a_block, space.size)
                b = np.tile(space, a_block.size)
                fv = f.eval_pairs(a, b)
                gv = g.eval_pairs(a, b)
                diff = np.nonzero(fv != gv)[0]
                if diff.size:
                    i = int(diff[0])
                    return "refuted", (int(a[i]), int(b[i]))
            return "proved", None


class BddBackend:
    """Canonical equivalence through a bounded shared ROBDD manager."""

    name = "bdd"

    def __init__(self, budget: int = 2_000_000):
        self.budget = budget

    def check_equal(self, f: Encoding, g: Encoding):
        tele = telemetry.get()
        labels = [
            enc.netlist.net_names[net] for enc in (f, g) for net in enc.netlist.inputs
        ]
        manager = Bdd(interleaved_order(labels), budget=self.budget)
        with tele.span(
            "formal.solve", backend=self.name, design=f.design,
            bitwidth=f.bitwidth,
        ):
            try:
                f_bits = lower(f.netlist, manager, manager.var)
                g_bits = lower(g.netlist, manager, manager.var)
                width = max(len(f_bits), len(g_bits))
                f_bits += [0] * (width - len(f_bits))
                g_bits += [0] * (width - len(g_bits))
                miter = 0
                for fb, gb in zip(f_bits, g_bits):
                    miter = manager.or_(miter, manager.xor(fb, gb))
            except BudgetExceeded as exc:
                tele.counter("formal.bdd_budget_exceeded")
                return "unknown", str(exc)
            if miter == 0:
                return "proved", None
            assignment = manager.satisfying_assignment(miter)
            return "refuted", _assignment_to_pair(assignment, f.bitwidth)


class Z3Backend:
    """Miter check through z3's bit-blasted SAT core (when installed)."""

    name = "z3"

    def __init__(self, timeout_ms: int | None = None):
        self.timeout_ms = timeout_ms

    def check_equal(self, f: Encoding, g: Encoding):
        z3 = import_z3()
        if z3 is None:
            return "unknown", "z3 is not installed"
        tele = telemetry.get()
        with tele.span(
            "formal.solve", backend=self.name, design=f.design,
            bitwidth=f.bitwidth,
        ):
            variables: dict[str, object] = {}
            f_bits = _to_z3(z3, f, variables)
            g_bits = _to_z3(z3, g, variables)
            width = max(len(f_bits), len(g_bits))
            false = z3.BoolVal(False)
            f_bits += [false] * (width - len(f_bits))
            g_bits += [false] * (width - len(g_bits))
            solver = z3.Solver()
            if self.timeout_ms is not None:
                solver.set("timeout", self.timeout_ms)
            solver.add(
                z3.Or([z3.Xor(fb, gb) for fb, gb in zip(f_bits, g_bits)])
            )
            status = solver.check()
            if status == z3.unsat:
                return "proved", None
            if status == z3.sat:
                model = solver.model()
                assignment = {
                    label: int(
                        bool(model.eval(var, model_completion=True))
                    )
                    for label, var in variables.items()
                }
                return "refuted", _assignment_to_pair(assignment, f.bitwidth)
            return "unknown", f"z3 returned {status!r}"


class _Term:
    """One backend term under the operators the cell functions use.

    Every :attr:`~repro.logic.cells.Cell.function` is written with
    ``~ & | ^`` alone, so wrapping a backend's terms in this class
    evaluates each library cell through its one definition.
    """

    __slots__ = ("ops", "term")

    def __init__(self, ops, term):
        self.ops = ops
        self.term = term

    def __invert__(self):
        return _Term(self.ops, self.ops.not_(self.term))

    def __and__(self, other):
        return _Term(self.ops, self.ops.and_(self.term, other.term))

    def __or__(self, other):
        return _Term(self.ops, self.ops.or_(self.term, other.term))

    def __xor__(self, other):
        return _Term(self.ops, self.ops.xor(self.term, other.term))


def lower(netlist: Netlist, ops, variable) -> list:
    """A netlist's output bus as backend terms, gate by gate.

    ``ops`` supplies the constants ``false``/``true`` and the operators
    ``not_``/``and_``/``or_``/``xor``; ``variable(label)`` returns the
    term of the input named ``label`` (``a[i]``/``b[i]``).
    """
    values = {CONST0: _Term(ops, ops.false), CONST1: _Term(ops, ops.true)}
    for net in netlist.inputs:
        values[net] = _Term(ops, variable(netlist.net_names[net]))
    for gate in netlist.gates:
        values[gate.output] = gate.cell.function(
            *(values[net] for net in gate.inputs)
        )
    return [values[net].term for net in netlist.outputs]


def _to_z3(z3, encoding: Encoding, variables: dict):
    """Lower an encoding's netlist to z3 booleans; shared var map."""
    ops = types.SimpleNamespace(
        false=z3.BoolVal(False), true=z3.BoolVal(True),
        not_=z3.Not, and_=z3.And, or_=z3.Or, xor=z3.Xor,
    )

    def variable(label: str):
        if label not in variables:
            variables[label] = z3.Bool(label)
        return variables[label]

    return lower(encoding.netlist, ops, variable)


def _assignment_to_pair(assignment: dict[str, int], bitwidth: int):
    """Rebuild the concrete ``(a, b)`` witness; unassigned bits are 0."""
    a = b = 0
    for label, bit in (assignment or {}).items():
        if not bit:
            continue
        prefix, _, index = label.rpartition("[")
        if prefix == "a":
            a |= 1 << int(index[:-1])
        elif prefix == "b":
            b |= 1 << int(index[:-1])
    return a, b


def available_backends() -> list[str]:
    """Backend names usable right now, strongest first."""
    names = []
    if z3_available():
        names.append("z3")
    names.extend(["bdd", "exhaustive"])
    return names


def resolve_backend(name: str):
    """One backend instance by name (``z3``/``bdd``/``exhaustive``)."""
    if name == "z3":
        return Z3Backend()
    if name == "bdd":
        return BddBackend()
    if name == "exhaustive":
        return ExhaustiveBackend()
    raise ValueError(
        f"unknown backend {name!r}; choose from z3, bdd, exhaustive"
    )


def default_ladder(bitwidth: int) -> list:
    """The fallback order a proof attempt walks through, at any width.

    The exhaustive sweep first (it decides up to 12 bits faster than
    either symbolic rung, and declines at once above), then z3 when
    importable, then the BDD, which proves truncated designs at 13-14
    bits.
    """
    ladder = [ExhaustiveBackend()]
    if z3_available():
        ladder.append(Z3Backend())
    ladder.append(BddBackend())
    return ladder
