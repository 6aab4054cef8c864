"""Signed multiplication on top of any unsigned multiplier.

The paper (Section III-C, "Handling Signed Numbers") notes that any
unsigned approximate multiplier extends straightforwardly to signed
operands and refers to DRUM [3] for the standard recipe: take magnitudes,
multiply them with the unsigned core, and restore the sign as the XOR of
the operand signs (sign-magnitude wrapping).

:class:`SignedMultiplier` implements that recipe for ``N``-bit two's
complement operands in ``[-2**(N-1), 2**(N-1) - 1]``.  The magnitude of
``-2**(N-1)`` needs ``N`` bits, so the unsigned core is instantiated one
bit wider than the signed interface — the same widening a hardware wrapper
performs.

This module is the only home of that recipe: :func:`signed_product`
applies it elementwise, and :func:`signed_matmul` is the multiply-
accumulate (MAC) that the JPEG DCT, the FIR filter and the MLP and CNN
layers all share.

The module also provides :func:`dot_product` and :func:`convolve2d`
helpers used by the application-level examples: they route every
multiplication of a reduction through the wrapped multiplier while
accumulating exactly, which is the standard approximate-multiplier usage
model in DSP/ML kernels.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Multiplier

__all__ = [
    "SignedMultiplier",
    "convolve2d",
    "dot_product",
    "signed_matmul",
    "signed_product",
]

#: products per block of :func:`signed_matmul`, and the most entries one
#: of its product tables holds
MAC_BLOCK = 1 << 17

#: least ratio of products to table entries for :func:`signed_matmul` to
#: take its table path.  A table costs one kernel multiply per entry and
#: then replaces each product's multiply with a gather.  In DCT-shaped
#: calls (``(8, 8) @ (1024, 8, 8)`` and its mirror) on a 2-core Intel
#: Xeon, one design per family, the direct path spent 11.5-12 ns a
#: product with the exact kernel and 15-82 ns with the approximate ones;
#: the table path's index add, gather and int64 sum spent 5.5-12.6 ns.
#: Entries ``E`` and products ``P`` break even at ``P / E = t_direct /
#: (t_direct - t_table)``: 3.3 for the exact kernel, the cheapest, and
#: at most 2.2 for the approximate ones.  4, the next power of two,
#: keeps every design's table call faster than its direct one.
TABLE_RATIO = 4


def _sign_magnitude(operand: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``|operand|`` and its ±1 int8 sign factors (``None`` without negatives)."""
    negative = operand < 0
    if not negative.any():
        return operand, None
    return np.abs(operand), np.where(negative, np.int8(-1), np.int8(1))


def _product(multiplier: Multiplier, a, b) -> np.ndarray:
    """Signed product of two :func:`_sign_magnitude` pairs, ``a`` first."""
    product = multiplier.multiply(a[0], b[0])
    for sign in (a[1], b[1]):
        if sign is not None:
            product = product * sign
    return product


def signed_product(multiplier: Multiplier, a, b) -> np.ndarray:
    """Signed ``a * b`` as ``multiplier(|a|, |b|)`` with the sign restored.

    The sign goes on as ±1 factors in each operand's own, unbroadcast
    shape, skipping an operand without negatives, so no mask of the
    product's full shape is built.  Magnitudes must fit the multiplier's
    bitwidth; its operand validation raises otherwise.
    """
    a, b = (_sign_magnitude(np.asarray(x, dtype=np.int64)) for x in (a, b))
    return _product(multiplier, a, b)


def _sum_k(products: np.ndarray, out: np.ndarray) -> None:
    """Exact int64 sums of ``(..., i, k, j)`` products over ``k``, into ``out``."""
    np.einsum("...kj->...j", products, out=out)


def _blocks(shape: tuple[int, ...]) -> list[tuple[slice, slice]]:
    """``(rows, columns)`` slices of the blocks of a ``(..., i, k, j)`` call.

    Whole leading rows, about :data:`MAC_BLOCK` products a block; a row
    holding more than that is cut further into slices of ``j``.
    """
    row = math.prod(shape[1:])
    every = slice(None)
    if row <= MAC_BLOCK:
        step = MAC_BLOCK // max(1, row)
        return [(slice(r, r + step), every) for r in range(0, shape[0], step)]
    step = max(1, MAC_BLOCK // math.prod(shape[1:-1]))
    return [
        (slice(r, r + 1), slice(c, c + step))
        for r in range(shape[0])
        for c in range(0, shape[-1], step)
    ]


def _cut(x: np.ndarray, rows: slice, columns: slice) -> np.ndarray:
    """The part of a broadcast ``(..., i, k, j)`` operand a block reads."""
    if len(x) > 1:
        x = x[rows]
    return x[..., columns] if x.shape[-1] > 1 else x


def _table_plan(operands: list[np.ndarray], products: int):
    """Which operand a product table would cover, or ``None``.

    The table covers the operand with fewer elements: its distinct values
    ``u`` against every value in the other operand's range ``[lo, hi]``.
    It is taken only when it holds at most :data:`MAC_BLOCK` entries and
    fewer than ``products / TABLE_RATIO``.  Returns ``(small, u, inverse,
    lo, hi)``, ``inverse`` indexing ``u`` in the small operand's shape.
    """
    small = 0 if operands[0].size <= operands[1].size else 1
    values, inverse = np.unique(operands[small], return_inverse=True)
    if len(values) * TABLE_RATIO >= products:  # also every empty call
        return None
    other = operands[1 - small]
    lo, hi = int(other.min()), int(other.max())
    entries = (hi - lo + 1) * len(values)
    if entries > MAC_BLOCK or entries * TABLE_RATIO >= products:
        return None
    return small, values, inverse.reshape(operands[small].shape), lo, hi


def signed_matmul(multiplier: Multiplier, left, right) -> np.ndarray:
    """``left @ right`` with every product through ``multiplier``.

    Broadcasts like ``np.matmul`` over ``(..., i, k) @ (..., k, j)``
    stacks; each product is ``signed_product(multiplier, left[..., i, k],
    right[..., k, j])`` and the sums are exact int64.  Products are taken
    in blocks of about :data:`MAC_BLOCK` along the leading axis of the
    broadcast ``(..., i, k, j)`` shape, a leading row wider than that
    in slices of ``j`` (:func:`_blocks`), which keeps temporaries a few
    MB; integer sums make the result independent of the block size.

    When one operand holds few distinct values against the other's range
    (a DCT basis, CNN weights), one ``signed_product`` call in the
    caller's operand order builds a table of every product the call can
    need, with the signs folded in, and each block is a gather from it
    (:func:`_table_plan` says when).  That one multiply validates every
    operand value, as the blocks' multiplies would.  Otherwise an operand
    the blocks do not split has its magnitude and sign taken once.  The
    ``mac.table`` or ``mac.direct`` telemetry span times the call, and the
    ``mac.products`` counter counts its products.
    """
    from ..analysis import telemetry  # deferred: analysis imports this package

    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if left.ndim < 2 or right.ndim < 2 or left.shape[-1] != right.shape[-2]:
        raise ValueError(f"cannot contract shapes {left.shape} and {right.shape}")
    operands = (left[..., :, :, None], right[..., None, :, :])  # (..., i, k, j)
    shape = np.broadcast_shapes(*(x.shape for x in operands))
    # equal ndim, so both operands share the leading axis the blocks split
    operands = [x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in operands]
    products = math.prod(shape)
    out = np.empty(shape[:-2] + shape[-1:], dtype=np.int64)
    blocks = _blocks(shape)
    tele = telemetry.get()
    tele.counter("mac.products", products)
    plan = _table_plan(operands, products)
    if plan is None:
        with tele.span("mac.direct", products=products):
            # an operand the rows do not split keeps one magnitude and sign
            fixed = [None if len(x) > 1 else _sign_magnitude(x) for x in operands]
            for rows, columns in blocks:
                pair = (
                    _sign_magnitude(_cut(x, rows, columns)) if f is None
                    else [p if p is None else _cut(p, rows, columns) for p in f]
                    for f, x in zip(fixed, operands)
                )
                _sum_k(_product(multiplier, *pair), out[rows][..., columns])
        return out
    small, values, inverse, lo, hi = plan
    with tele.span("mac.table", products=products):
        # row r, column v - lo holds the product of values[r] and v, taken
        # in the caller's operand order; its flat index is (r * width - lo) + v
        width = hi - lo + 1
        grid = [values[:, None], np.arange(lo, hi + 1)[None, :]]
        if small == 1:
            grid.reverse()
        table = signed_product(multiplier, *grid).ravel()
        operands[small] = inverse * width - lo
        for rows, columns in blocks:
            index = [_cut(x, rows, columns) for x in operands]
            _sum_k(table.take(index[0] + index[1]), out[rows][..., columns])
    return out


class SignedMultiplier:
    """Sign-magnitude wrapper turning an unsigned core into a signed one.

    ``core_factory`` builds the unsigned core for a given bitwidth, e.g.
    ``lambda n: RealmMultiplier(bitwidth=n, m=16)``.  The wrapper exposes
    ``multiply`` over two's complement operands of ``bitwidth`` bits.
    """

    def __init__(self, core_factory, bitwidth: int = 16):
        if bitwidth < 2:
            raise ValueError(f"bitwidth must be >= 2, got {bitwidth}")
        self.bitwidth = bitwidth
        self.core: Multiplier = core_factory(bitwidth + 1)
        if self.core.bitwidth != bitwidth + 1:
            raise ValueError(
                "core_factory must honor the requested bitwidth: needed "
                f"{bitwidth + 1}, got {self.core.bitwidth}"
            )

    @property
    def name(self) -> str:
        return f"signed[{self.core.name}]"

    def multiply(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        low = -(1 << (self.bitwidth - 1))
        high = (1 << (self.bitwidth - 1)) - 1
        for label, operand in (("a", a), ("b", b)):
            if operand.size and (operand.min() < low or operand.max() > high):
                raise ValueError(
                    f"operand {label} outside [{low}, {high}] for a "
                    f"{self.bitwidth}-bit signed multiplier"
                )
        return signed_product(self.core, a, b)

    def __call__(self, a, b) -> np.ndarray:
        return self.multiply(a, b)

    def __repr__(self) -> str:
        return f"<SignedMultiplier {self.name!r} N={self.bitwidth}>"


def dot_product(multiplier, a, b) -> np.int64:
    """Dot product with approximate products and exact accumulation."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.sum(multiplier.multiply(a.ravel(), b.ravel()), dtype=np.int64)


def convolve2d(multiplier, image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """'Valid' 2-D convolution routing every product through ``multiplier``.

    ``image`` and ``kernel`` are integer arrays; products are accumulated
    exactly.  The kernel is applied in correlation orientation (no flip),
    matching the usual hardware-accelerator convention.
    """
    image = np.asarray(image, dtype=np.int64)
    kernel = np.asarray(kernel, dtype=np.int64)
    kh, kw = kernel.shape
    oh = image.shape[0] - kh + 1
    ow = image.shape[1] - kw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel {kernel.shape} does not fit image {image.shape}"
        )
    out = np.zeros((oh, ow), dtype=np.int64)
    for dy in range(kh):
        for dx in range(kw):
            patch = image[dy : dy + oh, dx : dx + ow]
            out += multiplier.multiply(patch, np.full_like(patch, kernel[dy, dx]))
    return out
