"""A small MLP: float training, fixed-point inference through any multiplier.

The standard approximate-computing deployment: train in floating point,
quantize, and run inference on fixed-point hardware whose multipliers are
approximate.  The fixed-point datapath here mirrors a 16-bit MAC array:

* inputs are uint8 pixels (scale 1);
* weights are quantized to signed Q8 fixed point (``w_q = round(w * 256)``,
  magnitudes < 2 after training, so ``|w_q| < 512``);
* every product routes through the supplied unsigned multiplier by
  :func:`repro.multipliers.signed.signed_matmul`, the shared
  sign-magnitude MAC (both operand magnitudes stay far below
  ``2**16``); accumulation and the ``>> 8`` rescale are exact, like a
  hardware accumulator following the approximate multiplier;
* the hidden ReLU output keeps the input's integer scale, so the second
  layer sees the same operand ranges as the first.

``float_logits`` and ``FixedPointMlp.logits`` expose both datapaths;
classification uses argmax, so the softmax never needs computing at
inference time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..multipliers.base import Multiplier
from ..multipliers.signed import signed_matmul

__all__ = ["MlpParams", "train_mlp", "FixedPointMlp", "WEIGHT_FRACTION_BITS"]

#: Q-format fraction bits of the quantized weights
WEIGHT_FRACTION_BITS = 8


@dataclasses.dataclass
class MlpParams:
    """Float parameters of the two-layer MLP."""

    w1: np.ndarray  # (features, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, classes)
    b2: np.ndarray  # (classes,)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def train_mlp(
    train_x: np.ndarray,
    train_y: np.ndarray,
    hidden: int = 32,
    classes: int = 10,
    epochs: int = 30,
    batch: int = 64,
    learning_rate: float = 0.15,
    seed: int = 7,
) -> MlpParams:
    """Plain SGD training of ``relu(x W1 + b1) W2 + b2`` with CE loss.

    Inputs are rescaled to [0, 1] internally; weights come out with
    magnitudes well inside the Q8 quantization range.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(train_x, dtype=np.float64) / 255.0
    y = np.asarray(train_y)
    features = x.shape[1]
    params = MlpParams(
        w1=rng.normal(0.0, np.sqrt(2.0 / features), (features, hidden)),
        b1=np.zeros(hidden),
        w2=rng.normal(0.0, np.sqrt(2.0 / hidden), (hidden, classes)),
        b2=np.zeros(classes),
    )
    one_hot = np.eye(classes)[y]
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch):
            rows = order[start : start + batch]
            xb, yb = x[rows], one_hot[rows]
            pre = xb @ params.w1 + params.b1
            hidden_act = np.maximum(pre, 0.0)
            logits = hidden_act @ params.w2 + params.b2
            probs = _softmax(logits)

            grad_logits = (probs - yb) / len(rows)
            grad_w2 = hidden_act.T @ grad_logits
            grad_b2 = grad_logits.sum(axis=0)
            grad_hidden = grad_logits @ params.w2.T
            grad_hidden[pre <= 0.0] = 0.0
            grad_w1 = xb.T @ grad_hidden
            grad_b1 = grad_hidden.sum(axis=0)

            params.w1 -= learning_rate * grad_w1
            params.b1 -= learning_rate * grad_b1
            params.w2 -= learning_rate * grad_w2
            params.b2 -= learning_rate * grad_b2
    return params


def float_logits(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Reference float forward pass (inputs uint8)."""
    scaled = np.asarray(x, dtype=np.float64) / 255.0
    hidden = np.maximum(scaled @ params.w1 + params.b1, 0.0)
    return hidden @ params.w2 + params.b2


class FixedPointNet:
    """What the quantized MLP and CNN share; subclasses define ``logits``.

    ``layers`` are float ``(weights, bias)`` pairs, kept in order in
    ``self.layers`` as Q8 weights and biases at the accumulator scale.
    """

    def __init__(self, multiplier: Multiplier, *layers):
        if multiplier.bitwidth < 16:
            raise ValueError(
                "the fixed-point datapath needs a >=16-bit multiplier, got "
                f"{multiplier.bitwidth}"
            )
        scale = 1 << WEIGHT_FRACTION_BITS
        self.multiplier = multiplier
        weights = [np.rint(w * scale).astype(np.int64) for w, _ in layers]
        # biases live at the accumulator scale: 255 (input) * 2^8 (weights)
        biases = [np.rint(b * 255.0 * scale).astype(np.int64) for _, b in layers]
        self.layers = list(zip(weights, biases))
        limit = (1 << 16) - 1
        if max(np.abs(w).max() for w in weights) > limit:
            raise ValueError("quantized weights exceed the 16-bit operand range")

    def _mac(self, x: np.ndarray, layer: int) -> np.ndarray:
        """``x @ weights + bias`` of one layer, with approximate products."""
        weights, bias = self.layers[layer]
        return signed_matmul(self.multiplier, x, weights) + bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(y)))


class FixedPointMlp(FixedPointNet):
    """Quantized MLP whose multiplications go through ``multiplier``."""

    def __init__(self, params: MlpParams, multiplier: Multiplier):
        super().__init__(multiplier, (params.w1, params.b1), (params.w2, params.b2))

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Fixed-point forward pass; returns integer logits."""
        x = np.atleast_2d(np.asarray(x, dtype=np.int64))
        acc = self._mac(x, 0)
        hidden = np.maximum(acc, 0) >> WEIGHT_FRACTION_BITS  # back to x's scale
        return self._mac(hidden, 1)
