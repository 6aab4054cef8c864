"""Error metrics for approximate multipliers (paper Section IV-B).

The paper characterizes every design with five relative-error statistics,
all in percent:

* **error bias** — mean of the signed relative error [3];
* **mean error** — mean of the absolute relative error (MRED [2], [4]);
* **peak errors** — minimum and maximum signed relative error [4];
* **variance** — variance of the signed relative error [3].

Errors are measured against the accurate product.  Input pairs whose
accurate product is zero are excluded: the relative error ``0/0`` is
undefined there, and every design in the library returns an exact 0 for
them anyway (their absolute error is also zero).

Two extension metrics used by the wider literature [2] are included:
NMED (mean absolute error normalized to the maximum product) and the RMS
relative error.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "Accumulator",
    "ErrorMetrics",
    "relative_errors",
    "compute_metrics",
    "accumulate_chunk",
    "merge_accumulators",
    "merge_metrics",
]


@dataclasses.dataclass(frozen=True)
class ErrorMetrics:
    """Error statistics of one design; percentages, like the paper."""

    bias: float
    mean_error: float
    peak_min: float
    peak_max: float
    variance: float
    rms: float
    nmed: float
    samples: int
    #: formally certified worst-case peaks ``(min%, max%)`` when a
    #: certificate covers this design (exhaustive sweep or
    #: :func:`repro.formal.certify_worst_error`); ``None`` for sampled runs
    peak_certified: tuple[float, float] | None = None

    def row(self) -> tuple[float, float, float, float, float]:
        """The five Table I error columns, in table order.

        Certified peaks take precedence over the sampled extremes when a
        certificate is attached.
        """
        peak_min, peak_max = self.peaks()
        return (self.bias, self.mean_error, peak_min, peak_max, self.variance)

    def peaks(self) -> tuple[float, float]:
        """``(peak_min, peak_max)``, preferring the certified values."""
        if self.peak_certified is not None:
            return self.peak_certified
        return (self.peak_min, self.peak_max)

    def __str__(self) -> str:
        peak_min, peak_max = self.peaks()
        certified = "certified " if self.peak_certified is not None else ""
        return (
            f"bias {self.bias:+.2f}%  ME {self.mean_error:.2f}%  "
            f"{certified}peak [{peak_min:.2f}%, {peak_max:.2f}%]  "
            f"var {self.variance:.2f}  ({self.samples} samples)"
        )


def relative_errors(
    approx: np.ndarray, exact: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Signed relative errors and the exact products of the valid samples.

    Zero exact products are dropped (see module docstring).  Returns
    ``(errors, exact_nonzero)`` as float64/int64 arrays.
    """
    approx = np.asarray(approx, dtype=np.int64)
    exact = np.asarray(exact, dtype=np.int64)
    if approx.shape != exact.shape:
        raise ValueError(f"shape mismatch: {approx.shape} vs {exact.shape}")
    valid = exact != 0
    exact_nz = exact[valid]
    errors = (approx[valid] - exact_nz) / exact_nz
    return errors, exact_nz


def compute_metrics(
    approx: np.ndarray, exact: np.ndarray, max_product: int | None = None
) -> ErrorMetrics:
    """All error statistics for a batch of products.

    ``max_product`` (default ``max(exact)``) normalizes NMED; pass
    ``(2**N - 1)**2`` for the paper's convention.
    """
    errors, exact_nz = relative_errors(approx, exact)
    if errors.size == 0:
        raise ValueError("no nonzero products to characterize")
    approx = np.asarray(approx, dtype=np.int64)
    exact = np.asarray(exact, dtype=np.int64)
    if max_product is None:
        max_product = int(exact.max())
    abs_err = np.abs(np.asarray(approx - exact, dtype=np.float64))
    return ErrorMetrics(
        bias=float(errors.mean() * 100.0),
        mean_error=float(np.abs(errors).mean() * 100.0),
        peak_min=float(errors.min() * 100.0),
        peak_max=float(errors.max() * 100.0),
        variance=float(errors.var() * 100.0 * 100.0),
        rms=float(math.sqrt(np.mean(errors**2)) * 100.0),
        nmed=float(abs_err.mean() / max_product * 100.0),
        samples=int(errors.size),
    )


@dataclasses.dataclass
class Accumulator:
    """Streaming moments so 2^24-sample runs never hold all errors at once.

    Accumulators are the merge unit of the characterization engine: each
    input block produces one (see :func:`accumulate_chunk`), and merging
    them in block order reproduces the serial float operations exactly, so
    results are bit-identical at any chunk size or worker count.  The
    dataclass is plain picklable state, safe to ship across processes.
    """

    count: int = 0
    total: float = 0.0
    total_abs: float = 0.0
    total_sq: float = 0.0
    total_abs_err: float = 0.0
    peak_min: float = math.inf
    peak_max: float = -math.inf
    all_count: int = 0

    def update(self, errors: np.ndarray, abs_err_sum: float, batch: int) -> None:
        if errors.size:
            self.count += errors.size
            self.total += float(errors.sum())
            self.total_abs += float(np.abs(errors).sum())
            self.total_sq += float((errors**2).sum())
            self.peak_min = min(self.peak_min, float(errors.min()))
            self.peak_max = max(self.peak_max, float(errors.max()))
        self.total_abs_err += abs_err_sum
        self.all_count += batch

    def merge(self, other: "Accumulator") -> None:
        """Fold another accumulator in; addition order defines the result
        bit-exactly, so callers must merge in canonical block order."""
        self.count += other.count
        self.total += other.total
        self.total_abs += other.total_abs
        self.total_sq += other.total_sq
        self.total_abs_err += other.total_abs_err
        self.peak_min = min(self.peak_min, other.peak_min)
        self.peak_max = max(self.peak_max, other.peak_max)
        self.all_count += other.all_count

    def finalize(self, max_product: int) -> ErrorMetrics:
        if self.count == 0:
            raise ValueError("no nonzero products to characterize")
        mean = self.total / self.count
        return ErrorMetrics(
            bias=mean * 100.0,
            mean_error=self.total_abs / self.count * 100.0,
            peak_min=self.peak_min * 100.0,
            peak_max=self.peak_max * 100.0,
            variance=(self.total_sq / self.count - mean**2) * 100.0 * 100.0,
            rms=math.sqrt(self.total_sq / self.count) * 100.0,
            nmed=self.total_abs_err / self.all_count / max_product * 100.0,
            samples=self.count,
        )


def accumulate_chunk(
    approx: np.ndarray, exact: np.ndarray, valid=None, exact_nz=None
) -> Accumulator:
    """Streaming statistics of one ``(approx, exact)`` product batch.

    Designs evaluated on one batch of int64 operands can share its nonzero
    mask ``valid`` (``exact != 0``) and nonzero products ``exact_nz``
    (``exact[valid]``); without them both are derived here.
    """
    acc = Accumulator()
    if valid is None:
        errors, _ = relative_errors(approx, exact)
    else:
        errors = (np.asarray(approx, dtype=np.int64)[valid] - exact_nz) / exact_nz
    abs_err = np.abs(np.asarray(approx, dtype=np.float64) - exact)
    acc.update(errors, float(abs_err.sum()), int(np.asarray(exact).size))
    return acc


def merge_accumulators(accumulators) -> Accumulator:
    """Sequentially fold accumulators (in iteration order) into one."""
    total = Accumulator()
    for acc in accumulators:
        total.merge(acc)
    return total


def merge_metrics(chunks, max_product: int) -> ErrorMetrics:
    """Combine per-chunk ``(approx, exact)`` batches into one metric set.

    ``chunks`` yields ``(approx, exact)`` array pairs; used by the
    Monte-Carlo engine to characterize 2^24 samples in bounded memory.
    """
    return merge_accumulators(
        accumulate_chunk(approx, exact) for approx, exact in chunks
    ).finalize(max_product)
