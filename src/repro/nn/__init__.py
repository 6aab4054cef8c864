"""Neural-network application substrate (the paper's motivating workload)."""

from .cnn import CnnParams, FixedPointCnn, train_cnn
from .dataset import IMAGE_SIZE, NUM_CLASSES, GlyphData, make_dataset
from .evaluate import (
    cnn_logit_distortion,
    cnn_scores,
    evaluate_cnn_multipliers,
    evaluate_multipliers,
    float_accuracy,
    float_cnn_accuracy,
    logit_distortion,
    trained_cnn_setup,
    trained_setup,
)
from .mlp import FixedPointMlp, MlpParams, train_mlp

__all__ = [
    "CnnParams",
    "FixedPointCnn",
    "FixedPointMlp",
    "GlyphData",
    "IMAGE_SIZE",
    "MlpParams",
    "NUM_CLASSES",
    "cnn_logit_distortion",
    "cnn_scores",
    "evaluate_cnn_multipliers",
    "evaluate_multipliers",
    "float_accuracy",
    "float_cnn_accuracy",
    "logit_distortion",
    "make_dataset",
    "train_cnn",
    "train_mlp",
    "trained_cnn_setup",
    "trained_setup",
]
