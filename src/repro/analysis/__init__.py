"""Error characterization, design-space and distribution analyses."""

from .accumulation import AccumulationPoint, accumulation_profile, predicted_floor

from .designspace import DesignPoint, fig4_front, fig4_points, sweep
from .scaling import bitwidth_scaling, knob_surface
from .distribution import Histogram, ascii_histogram, error_histogram
from .cache import clear_cache, resolve_cache_dir, sweep_stale_temps
from .runtime import (
    BatchFailure,
    Checkpoint,
    CorruptResultError,
    ResiliencePolicy,
    monotonic_progress,
    run_campaign,
)
from .telemetry import (
    Telemetry,
    TelemetrySnapshot,
    PhaseStat,
    format_summary,
    merge_workers,
    summarize_trace,
    tracing,
)
from .exhaustive import error_grid, exhaustive_metrics
from .metrics import (
    Accumulator,
    ErrorMetrics,
    accumulate_chunk,
    compute_metrics,
    merge_accumulators,
    merge_metrics,
    relative_errors,
)
from .montecarlo import (
    ENGINE_VERSION,
    characterize,
    characterize_many,
    characterize_workload,
    gaussian_sampler,
    lognormal_sampler,
    sample_pairs,
)
from .pareto import is_dominated, pareto_front
from .profiles import ProfileSummary, ascii_heatmap, profile, segment_mean_errors
from .render import render_heatmap, render_histogram, save_pgm

__all__ = [
    "AccumulationPoint",
    "Accumulator",
    "BatchFailure",
    "Checkpoint",
    "CorruptResultError",
    "DesignPoint",
    "ENGINE_VERSION",
    "ErrorMetrics",
    "Histogram",
    "PhaseStat",
    "ProfileSummary",
    "ResiliencePolicy",
    "Telemetry",
    "TelemetrySnapshot",
    "run_campaign",
    "accumulate_chunk",
    "ascii_heatmap",
    "ascii_histogram",
    "accumulation_profile",
    "bitwidth_scaling",
    "characterize",
    "characterize_many",
    "characterize_workload",
    "clear_cache",
    "gaussian_sampler",
    "lognormal_sampler",
    "compute_metrics",
    "error_grid",
    "error_histogram",
    "exhaustive_metrics",
    "fig4_front",
    "fig4_points",
    "is_dominated",
    "merge_accumulators",
    "merge_metrics",
    "merge_workers",
    "monotonic_progress",
    "format_summary",
    "summarize_trace",
    "tracing",
    "knob_surface",
    "pareto_front",
    "predicted_floor",
    "profile",
    "render_heatmap",
    "render_histogram",
    "resolve_cache_dir",
    "save_pgm",
    "sample_pairs",
    "relative_errors",
    "segment_mean_errors",
    "sweep",
    "sweep_stale_temps",
]
