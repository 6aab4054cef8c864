"""Common interface of all multiplier models.

Every multiplier in this library — the accurate reference, REALM, and every
baseline from Table I of the paper — implements :class:`Multiplier`.  The
models are *functional*: bit-accurate NumPy implementations of the hardware
datapaths, vectorized so the paper's 2^24-sample Monte-Carlo error
characterization runs in seconds.  The matching gate-level netlists live in
:mod:`repro.circuits` and are cross-checked against these models by the
test suite.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "Multiplier",
    "ProductFormMultiplier",
    "as_operands",
    "datapath_family",
]


def as_operands(a, b, bitwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate and broadcast a pair of unsigned operands.

    Accepts Python ints, sequences or arrays; returns int64 arrays of a
    common shape.  Raises ``ValueError`` if any value falls outside
    ``[0, 2**bitwidth)`` — the models are bit-accurate and silently wrapping
    inputs would hide genuine usage bugs.

    The returned arrays are **read-only views**: broadcasting a scalar
    against an array aliases one memory cell across every element (and
    same-shape inputs alias the caller's arrays directly), so an
    in-place write inside a ``_multiply`` implementation would corrupt
    sibling elements — or the caller's data — silently.  Marking the
    views non-writeable turns that class of bug into an immediate
    ``ValueError`` at the offending statement.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    limit = np.int64(1) << bitwidth
    for name, operand in (("a", a), ("b", b)):
        if operand.size and (operand.min() < 0 or operand.max() >= limit):
            raise ValueError(
                f"operand {name} outside [0, 2**{bitwidth}) for a "
                f"{bitwidth}-bit unsigned multiplier"
            )
    a, b = np.broadcast_arrays(a, b)
    # views of views: never flips writeability of the caller's arrays
    a = a.view()
    b = b.view()
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


class Multiplier(abc.ABC):
    """An ``N x N -> 2N``-bit unsigned integer multiplier model.

    Subclasses implement :meth:`_multiply` on validated, broadcast int64
    arrays.  ``multiply`` (or calling the instance) is the public entry
    point; it works on scalars and arrays alike.
    """

    #: short family name, e.g. ``"REALM"`` or ``"DRUM"``; set by subclasses
    family: str = "?"

    #: widest supported operand.  The limiting invariant is the int64
    #: substrate shared with :mod:`repro.logic.sim`: products span up to
    #: ``2N + 1`` bits (REALM's overflow case), and the word conversions
    #: there cap buses at ``MAX_BUS_WIDTH = 63`` usable weights — so
    #: ``2 * MAX_BITWIDTH + 1 == 63`` exactly.  A boundary test
    #: (``tests/test_multiplier_properties.py``) keeps the two constants
    #: from drifting apart.
    MAX_BITWIDTH = 31

    def __init__(self, bitwidth: int = 16):
        if bitwidth < 2:
            raise ValueError(f"bitwidth must be >= 2, got {bitwidth}")
        if bitwidth > self.MAX_BITWIDTH:
            # products (up to 2N+1 bits for REALM's overflow case) must fit
            # the int64 arithmetic the models are built on; see
            # repro.logic.sim.MAX_BUS_WIDTH for the bus-side statement of
            # the same invariant
            raise ValueError(
                f"bitwidth must be <= {self.MAX_BITWIDTH}, got {bitwidth}"
            )
        self.bitwidth = bitwidth

    @property
    def name(self) -> str:
        """Human-readable instance name, e.g. ``"REALM16 (t=3)"``."""
        return self.family

    @property
    def max_operand(self) -> int:
        """Largest representable operand, ``2**N - 1``."""
        return (1 << self.bitwidth) - 1

    def multiply(self, a, b, *, compiled: bool | None = None) -> np.ndarray:
        """Approximate (or exact) product of unsigned operands.

        By default (``compiled`` ``None`` or ``True``) the batch runs
        through the design's fused kernel from :mod:`repro.kernels`
        (compiled once per design, cached on the registry fingerprint,
        bit-identical to the datapath).  ``compiled=False`` runs the
        interpreted NumPy datapath :meth:`_multiply` instead: the
        reference that the conformance model layer and the formal
        replays compare the kernel against.
        """
        a, b = as_operands(a, b, self.bitwidth)
        if compiled is None or compiled:
            from ..kernels import kernel_for  # deferred: kernels imports us

            evaluate = kernel_for(self)
        else:
            evaluate = self._multiply
        if a.ndim == 0:
            # kernels and _multiply implementations assume >= 1-D arrays
            return evaluate(a.reshape(1), b.reshape(1))[0]
        return evaluate(a, b)

    def __call__(self, a, b) -> np.ndarray:
        return self.multiply(a, b)

    @abc.abstractmethod
    def _multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Core implementation on validated same-shape int64 arrays."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} N={self.bitwidth}>"


class ProductFormMultiplier(Multiplier):
    """``approx(a) * approx(b)``: each operand approximated on its own.

    DRUM's leading-one fragment and SSM/ESSM's static segments differ
    only in :meth:`_approximate`; the exact multiply of the two results
    is shared, and so is everything derived from it (the kernel's one
    per-operand table, the closed-form error extremes).
    """

    @abc.abstractmethod
    def _approximate(self, v: np.ndarray) -> np.ndarray:
        """The value the datapath multiplies in place of operand ``v``."""

    def _multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._approximate(a) * self._approximate(b)


#: the methods that make up a datapath: a model runs its family's
#: datapath unmodified when its class resolves each of them exactly as
#: the family class does
_DATAPATH = ("_multiply", "_accumulate", "_recover", "_approximate")


def datapath_family(model: Multiplier) -> type[Multiplier] | None:
    """The family class whose datapath ``model`` runs unmodified, if any.

    A family class declares its own ``family``; subclasses that only
    parametrize it (``AlmMaa``) inherit both.  The answer is the nearest
    family class of the model's type, provided the type resolves every
    ``_DATAPATH`` method as that class does: a subclass that overrides
    one runs a datapath of its own and gets ``None``.  Every layer
    derived from a model (kernel, formula, bounds engine, netlist) keys
    its class table on this answer, so none of them can take a model
    for a family whose arithmetic it does not run.
    """
    klass = type(model)
    family = next(k for k in klass.__mro__ if "family" in vars(k))
    unmodified = all(
        getattr(klass, name, None) is getattr(family, name, None)
        for name in _DATAPATH
    )
    return family if family is not Multiplier and unmodified else None
