"""Accuracy evaluation of approximate multipliers on the glyph networks."""

from __future__ import annotations

import functools

import numpy as np

from ..multipliers.registry import build
from .cnn import CnnParams, FixedPointCnn, float_cnn_logits, train_cnn
from .dataset import GlyphData, make_dataset
from .mlp import FixedPointMlp, MlpParams, float_logits, train_mlp

__all__ = [
    "trained_setup",
    "trained_cnn_setup",
    "evaluate_multipliers",
    "evaluate_cnn_multipliers",
    "cnn_scores",
    "float_accuracy",
    "float_cnn_accuracy",
]


@functools.lru_cache(maxsize=1)
def trained_setup(seed: int = 2020) -> tuple[GlyphData, MlpParams]:
    """Dataset + trained float parameters (cached; both deterministic)."""
    data = make_dataset(seed=seed)
    params = train_mlp(data.train_x, data.train_y)
    return data, params


def float_accuracy(data: GlyphData, params: MlpParams) -> float:
    """Test accuracy of the float reference model."""
    predictions = np.argmax(float_logits(params, data.test_x), axis=1)
    return float(np.mean(predictions == data.test_y))


def evaluate_multipliers(names, seed: int = 2020) -> dict[str, float]:
    """Test accuracy of the quantized MLP per multiplier configuration."""
    data, params = trained_setup(seed)
    results = {}
    for name in names:
        model = FixedPointMlp(params, build(name))
        results[name] = model.accuracy(data.test_x, data.test_y)
    return results


@functools.lru_cache(maxsize=1)
def trained_cnn_setup(seed: int = 2020) -> tuple[GlyphData, CnnParams]:
    """Dataset + trained float CNN parameters (cached; deterministic)."""
    data = make_dataset(seed=seed)
    params = train_cnn(data.train_x, data.train_y)
    return data, params


def float_cnn_accuracy(data: GlyphData, params: CnnParams) -> float:
    """Test accuracy of the float CNN reference."""
    predictions = np.argmax(float_cnn_logits(params, data.test_x), axis=1)
    return float(np.mean(predictions == data.test_y))


def evaluate_cnn_multipliers(names, seed: int = 2020) -> dict[str, float]:
    """Test accuracy of the quantized CNN per multiplier configuration."""
    data, params = trained_cnn_setup(seed)
    results = {}
    for name in names:
        model = FixedPointCnn(params, build(name))
        results[name] = model.accuracy(data.test_x, data.test_y)
    return results


def cnn_scores(names, seed: int = 2020) -> dict[str, tuple[float, float]]:
    """``(accuracy, logit distortion)`` of the quantized CNN per design,
    both from one forward pass over the test set.

    The distortion is the mean relative logit error vs. the accurate
    fixed-point path, in percent of the accurate logits' RMS magnitude
    (the sensitive metric once classification accuracy saturates).  The
    accurate reference pass runs only when ``names`` is not empty.
    """
    names = list(names)
    if not names:
        return {}
    data, params = trained_cnn_setup(seed)
    reference = FixedPointCnn(params, build("accurate")).logits(data.test_x)
    rms = float(np.sqrt(np.mean(reference.astype(np.float64) ** 2)))
    results = {}
    for name in names:
        logits = FixedPointCnn(params, build(name)).logits(data.test_x)
        accuracy = float(np.mean(np.argmax(logits, axis=1) == data.test_y))
        distortion = float(np.abs(logits - reference).mean() / rms * 100.0)
        results[name] = (accuracy, distortion)
    return results


def cnn_logit_distortion(names, seed: int = 2020) -> dict[str, float]:
    """The logit distortion column of :func:`cnn_scores`."""
    return {name: score[1] for name, score in cnn_scores(names, seed).items()}


def logit_distortion(names, seed: int = 2020) -> dict[str, float]:
    """Mean relative logit error vs. the accurate fixed-point datapath.

    Classification accuracy saturates quickly (argmax shrugs off even
    large multiplicative error — which is the error-resilience the paper
    banks on), so this is the sensitive metric: how far each multiplier
    bends the network's outputs.  Expressed in percent of the accurate
    logits' RMS magnitude.
    """
    data, params = trained_setup(seed)
    reference = FixedPointMlp(params, build("accurate")).logits(data.test_x)
    rms = float(np.sqrt(np.mean(reference.astype(np.float64) ** 2)))
    results = {}
    for name in names:
        logits = FixedPointMlp(params, build(name)).logits(data.test_x)
        deviation = np.abs(logits - reference).mean()
        results[name] = float(deviation / rms * 100.0)
    return results
