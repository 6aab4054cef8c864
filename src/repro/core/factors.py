"""Error-reduction factors ``s_ij`` for REALM (paper Section III-B).

The classical log-based multiplier (Mitchell [8]) has relative error

.. math::

    \\tilde{E}_{rel}(x, y) =
    \\begin{cases}
        \\frac{1+x+y}{(1+x)(1+y)} - 1, & x + y < 1 \\\\
        \\frac{2(x+y)}{(1+x)(1+y)} - 1, & x + y \\ge 1
    \\end{cases}

where ``x`` and ``y`` are the fractional parts of the binary logs of the
operands.  REALM partitions the unit square of ``(x, y)`` into ``M x M``
equispaced segments and solves, per segment ``(i, j)``, for the factor that
zeroes the average relative error over the segment (paper Eq. 8-11):

.. math::

    s_{ij} = - \\frac{\\iint_{seg} \\tilde{E}_{rel} \\, dx\\,dy}
                    {\\iint_{seg} \\frac{dx\\,dy}{(1+x)(1+y)}}

The paper computes these integrals with the MATLAB Symbolic Math Toolbox;
here they are evaluated with closed-form antiderivatives for segments that
lie entirely on one side of the line ``x + y = 1``.  For equispaced segments
the line crosses a segment exactly when ``i + j == M - 1``, and then it
passes through two opposite corners of the segment, splitting it into two
right triangles; the integrand is smooth on each.  Every integral without a
closed form (those triangles, and the mean-square objective's integrals) is
evaluated with one fixed 24-point Gauss-Legendre rule, applied only to
pieces without a kink: the tensor rule on rectangles
(:func:`rectangle_integral`) and the collapsed map on triangles
(:func:`triangle_integral`).  On smooth pieces the rule is exact to float64
roundoff, so no adaptive quadrature is used.

Invariants established by the mathematics (and enforced by the test suite):

* ``s_ij == s_ji`` (the error surface is symmetric in ``x`` and ``y``);
* ``0 < s_ij < 0.25`` for every segment (paper Section III-C observes this
  for practical ``M`` and uses it to drop the two always-zero MSBs of the
  stored values).

The paper also mentions, as future work, re-deriving the factors for other
error objectives such as mean *square* error; :func:`compute_factors_mse`
implements that variant (least-squares optimal ``s_ij``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "mitchell_relative_error",
    "compute_factors",
    "compute_factors_mse",
    "quantize_factors",
    "dequantize_factors",
    "rectangle_integral",
    "segment_numerator",
    "segment_denominator",
    "segment_index",
    "triangle_integral",
]

# the one quadrature rule: 24 Gauss-Legendre nodes (a column, _U; its
# transpose is the row) and weights, mapped from [-1, 1] to [0, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_U = (_NODES[:, None] + 1.0) / 2.0
_W = _WEIGHTS / 2.0


def mitchell_relative_error(x, y):
    """Relative error of the classical log-based multiplier (paper Eq. 5).

    ``x`` and ``y`` are the fractional parts of the operand logs, both in
    ``[0, 1)``.  Accepts scalars or NumPy arrays (broadcast), returns the
    signed relative error ``(C_approx - C) / C``.  The value is always in
    ``[-1/9, 0]``: Mitchell's multiplier never overestimates.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = (1.0 + x) * (1.0 + y)
    low = (1.0 + x + y) / denom - 1.0
    high = 2.0 * (x + y) / denom - 1.0
    return np.where(x + y < 1.0, low, high)


def _log_ratio(a0: float, a1: float) -> float:
    """``ln((1 + a1) / (1 + a0))``, the 1-D building block of the integrals."""
    return math.log1p(a1) - math.log1p(a0)


def _rect_integral_low(x0: float, x1: float, y0: float, y1: float) -> float:
    """Integral of the ``x + y < 1`` branch of Eq. 5 over a rectangle.

    Uses the decomposition
    ``(1+x+y)/((1+x)(1+y)) = 1/(1+y) + y/((1+x)(1+y))`` so every term has an
    elementary antiderivative.
    """
    lx = _log_ratio(x0, x1)
    ly = _log_ratio(y0, y1)
    area = (x1 - x0) * (y1 - y0)
    # integral of y/(1+y) over [y0, y1]
    int_y_frac = (y1 - y0) - ly
    return (x1 - x0) * ly + lx * int_y_frac - area


def _rect_integral_high(x0: float, x1: float, y0: float, y1: float) -> float:
    """Integral of the ``x + y >= 1`` branch of Eq. 5 over a rectangle.

    Uses ``2(x+y)/((1+x)(1+y)) = 2/(1+y) + 2/(1+x) - 4/((1+x)(1+y))``.
    """
    lx = _log_ratio(x0, x1)
    ly = _log_ratio(y0, y1)
    area = (x1 - x0) * (y1 - y0)
    return 2.0 * (x1 - x0) * ly + 2.0 * (y1 - y0) * lx - 4.0 * lx * ly - area


def rectangle_integral(f, x0: float, x1: float, y0: float, y1: float) -> float:
    """Integral of ``f(x, y)`` over ``[x0, x1] x [y0, y1]`` by the tensor rule.

    ``f`` takes broadcasting NumPy arrays and must be smooth on the
    rectangle: the rule does not resolve a kink.
    """
    values = f(x0 + (x1 - x0) * _U, y0 + (y1 - y0) * _U.T)
    return float(_W @ values @ _W) * (x1 - x0) * (y1 - y0)


def triangle_integral(f, cx: float, cy: float, dx: float, dy: float) -> float:
    """Integral of ``f(x, y)`` over the right triangle at ``(cx, cy)``.

    The right angle sits at ``(cx, cy)`` and the signed legs ``dx``,
    ``dy`` reach ``(cx + dx, cy)`` and ``(cx, cy + dy)``.  The collapsed
    (Duffy) map ``x = cx + dx*u``, ``y = cy + dy*(1-u)*v`` takes the unit
    square onto the triangle with Jacobian ``|dx*dy|*(1-u)``, and the
    tensor rule integrates the pulled-back integrand.  ``f`` must be
    smooth inside the triangle; no node lies on the hypotenuse, so a kink
    along it is never evaluated on the wrong side.
    """
    values = f(cx + dx * _U, cy + dy * (1.0 - _U) * _U.T) * (1.0 - _U)
    return float(_W @ values @ _W) * abs(dx * dy)


def _crossing_integral(f, x0: float, x1: float, y0: float, y1: float) -> float:
    """Integral of ``f`` over a segment crossed by the line ``x + y = 1``.

    For equispaced segments the line runs corner-to-corner, splitting the
    rectangle into a lower-left triangle (``x + y < 1`` branch of Eq. 5)
    and an upper-right triangle (``x + y >= 1`` branch), each integrated
    on its own.  The triangle integrals of the error involve
    dilogarithms, hence the rule instead of closed forms.
    """
    return triangle_integral(f, x0, y0, x1 - x0, y1 - y0) + triangle_integral(
        f, x1, y1, x0 - x1, y0 - y1
    )


def segment_numerator(m: int, i: int, j: int) -> float:
    """Integral of the Mitchell relative error over segment ``(i, j)``.

    This is the numerator integral of paper Eq. 11 (without the minus sign).
    Segment ``(i, j)`` covers ``x`` in ``[i/M, (i+1)/M]`` and ``y`` in
    ``[j/M, (j+1)/M]``.
    """
    _check_segment(m, i, j)
    x0, x1 = i / m, (i + 1) / m
    y0, y1 = j / m, (j + 1) / m
    if i + j + 2 <= m:
        # Entire segment satisfies x + y <= 1 (the boundary case
        # i + j + 2 == m touches the line only along an edge of measure 0).
        return _rect_integral_low(x0, x1, y0, y1)
    if i + j >= m:
        return _rect_integral_high(x0, x1, y0, y1)
    return _crossing_integral(mitchell_relative_error, x0, x1, y0, y1)


def segment_denominator(m: int, i: int, j: int) -> float:
    """Integral of ``1 / ((1+x)(1+y))`` over segment ``(i, j)`` (Eq. 11).

    Separable, hence exactly ``ln((1+x1)/(1+x0)) * ln((1+y1)/(1+y0))``.
    """
    _check_segment(m, i, j)
    return _log_ratio(i / m, (i + 1) / m) * _log_ratio(j / m, (j + 1) / m)


def _check_segments(m: int) -> None:
    if m < 1:
        raise ValueError(f"number of segments M must be >= 1, got {m}")


def _check_segment(m: int, i: int, j: int) -> None:
    _check_segments(m)
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"segment indices must be in [0, {m}), got ({i}, {j})")


def _symmetric_table(m: int, factor) -> tuple[tuple[float, ...], ...]:
    """``factor(i, j)`` for ``j >= i``, mirrored below (``s_ij == s_ji``)."""
    rows: list[tuple[float, ...]] = []
    for i in range(m):
        rows.append(tuple(rows[j][i] if j < i else factor(i, j) for j in range(m)))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _factors_cached(m: int) -> tuple[tuple[float, ...], ...]:
    return _symmetric_table(
        m, lambda i, j: -segment_numerator(m, i, j) / segment_denominator(m, i, j)
    )


def compute_factors(m: int) -> np.ndarray:
    """Error-reduction factors ``s_ij`` for ``M x M`` segments (Eq. 11).

    Returns an ``(M, M)`` float array indexed ``[i, j]`` where ``i`` is the
    segment index of ``x`` (first operand's log fraction) and ``j`` of ``y``.
    The factors are interval-independent (Eq. 12): the same table serves
    every power-of-two interval of the operands.
    """
    _check_segments(m)
    return np.array(_factors_cached(m), dtype=float)


@functools.lru_cache(maxsize=None)
def _factors_mse_cached(m: int) -> tuple[tuple[float, ...], ...]:
    def weighted_error(x, y):
        return mitchell_relative_error(x, y) / ((1.0 + x) * (1.0 + y))

    def weight_squared(x, y):
        return 1.0 / ((1.0 + x) * (1.0 + y)) ** 2

    def factor(i, j):
        x0, x1 = i / m, (i + 1) / m
        y0, y1 = j / m, (j + 1) / m
        numerator = _crossing_integral if i + j == m - 1 else rectangle_integral
        return -numerator(weighted_error, x0, x1, y0, y1) / rectangle_integral(
            weight_squared, x0, x1, y0, y1
        )

    return _symmetric_table(m, factor)


def compute_factors_mse(m: int) -> np.ndarray:
    """Least-squares-optimal factors (the paper's future-work variant).

    Instead of zeroing the segment's *average* relative error (Eq. 8), each
    factor minimizes the segment's *mean squared* relative error:
    ``d/ds \\iint (E + s * g)^2 = 0`` with ``g = 1/((1+x)(1+y))`` gives
    ``s = -(\\iint E g) / (\\iint g^2)``.
    """
    _check_segments(m)
    return np.array(_factors_mse_cached(m), dtype=float)


def quantize_factors(factors: np.ndarray, q: int) -> np.ndarray:
    """Round factors to ``q``-bit precision (paper Section III-C).

    The LSB weight is ``2^-q`` and round-to-nearest is applied.  Returns an
    integer array of the fixed-point codes (value = code / 2^q).  For the
    practical ``M`` of the paper every factor is in ``(0, 0.25)``, so the
    codes fit in ``q - 2`` bits; this function validates that property so a
    hardware LUT of width ``q - 2`` is always sufficient.
    """
    if q < 3:
        raise ValueError(f"LUT precision q must be >= 3 bits, got {q}")
    factors = np.asarray(factors, dtype=float)
    if np.any(factors < 0.0) or np.any(factors >= 0.25):
        raise ValueError("factors outside [0, 0.25): q-2 bit storage invalid")
    codes = np.rint(factors * (1 << q)).astype(np.int64)
    # Round-to-nearest of a value just below 0.25 can still land on the
    # 0.25 code; clamp into the q-2-bit range like the hardwired LUT would.
    limit = (1 << (q - 2)) - 1
    return np.minimum(codes, limit)


def dequantize_factors(codes: np.ndarray, q: int) -> np.ndarray:
    """Real values represented by ``q``-bit LUT codes."""
    return np.asarray(codes, dtype=float) / float(1 << q)


def segment_index(fraction_bits: np.ndarray, width: int, m: int) -> np.ndarray:
    """Segment index from the ``log2(M)`` MSBs of a log fraction.

    ``fraction_bits`` holds the fraction as unsigned integers of ``width``
    bits (value = bits / 2**width).  Equispaced segmentation makes the index
    a pure bit-slice (paper Fig. 3: ``x_msbs`` / ``y_msbs`` drive the LUT
    mux select lines).
    """
    logm = m.bit_length() - 1
    if 1 << logm != m:
        raise ValueError(f"M must be a power of two, got {m}")
    if logm > width:
        raise ValueError(f"log2(M)={logm} exceeds fraction width {width}")
    return np.asarray(fraction_bits) >> (width - logm)
