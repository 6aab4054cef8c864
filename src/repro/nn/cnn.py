"""A small fixed-point CNN: conv + pool + FC through any multiplier.

The convolutional sibling of :mod:`repro.nn.mlp`, covering the workload
class the paper's DNN-oriented related work (scaleTRIM, the DNN
co-optimized truncation multiplier) actually targets: multiply-heavy
convolution layers.  Architecture on the 8x8 glyph images:

* **conv**: 8 filters of 3x3, valid padding -> 6x6 feature maps, ReLU;
* **pool**: exact 2x2 max-pool -> 3x3 maps (comparisons only — pooling
  needs no multiplier);
* **fc**: flattened 72 features -> 10 class logits.

The fixed-point datapath is the MLP's 16-bit MAC-array contract, set up
by the same :class:`repro.nn.mlp.FixedPointNet`: uint8 inputs (scale 1),
weights quantized to signed Q8, every product routed through the shared
MAC :func:`repro.multipliers.signed.signed_matmul`, exact accumulation,
and a ``>> 8`` rescale after the conv ReLU so the FC layer sees operands
on the input's integer scale.  Conv activations are sums of nine
products, so FC operands stay well below ``2**16`` for Q8 weights.

Training is plain float SGD over the im2col form; everything is seeded.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..multipliers.base import Multiplier
from .dataset import IMAGE_SIZE, NUM_CLASSES
from .mlp import FixedPointNet, WEIGHT_FRACTION_BITS

__all__ = ["CnnParams", "train_cnn", "float_cnn_logits", "FixedPointCnn"]

KERNEL_SIZE = 3
CONV_CHANNELS = 8
CONV_SIZE = IMAGE_SIZE - KERNEL_SIZE + 1  # 6x6 valid convolution
POOL_SIZE = CONV_SIZE // 2  # 3x3 after 2x2 max-pool
FLAT_FEATURES = POOL_SIZE * POOL_SIZE * CONV_CHANNELS


@dataclasses.dataclass
class CnnParams:
    """Float parameters of the conv + pool + FC network."""

    conv_w: np.ndarray  # (9, channels) — flattened 3x3 taps per filter
    conv_b: np.ndarray  # (channels,)
    fc_w: np.ndarray  # (FLAT_FEATURES, classes)
    fc_b: np.ndarray  # (classes,)


def _patches(x: np.ndarray) -> np.ndarray:
    """im2col: (n, 64) images -> (n, 36, 9) sliding 3x3 patches."""
    images = x.reshape(-1, IMAGE_SIZE, IMAGE_SIZE)
    windows = np.lib.stride_tricks.sliding_window_view(
        images, (KERNEL_SIZE, KERNEL_SIZE), axis=(1, 2)
    )
    return windows.reshape(len(images), CONV_SIZE * CONV_SIZE, KERNEL_SIZE**2)


def _pool_forward(conv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max-pool of (n, 36, c) maps -> ((n, 9, c) pooled, argmax mask)."""
    n, _, channels = conv.shape
    grid = conv.reshape(n, CONV_SIZE, CONV_SIZE, channels)
    blocks = grid.reshape(n, POOL_SIZE, 2, POOL_SIZE, 2, channels)
    flat = blocks.transpose(0, 1, 3, 5, 2, 4).reshape(
        n, POOL_SIZE, POOL_SIZE, channels, 4
    )
    winners = flat.argmax(axis=-1)
    pooled = np.take_along_axis(flat, winners[..., None], axis=-1)[..., 0]
    return pooled.reshape(n, POOL_SIZE * POOL_SIZE, channels), winners


def train_cnn(
    train_x: np.ndarray,
    train_y: np.ndarray,
    channels: int = CONV_CHANNELS,
    classes: int = NUM_CLASSES,
    epochs: int = 25,
    batch: int = 64,
    learning_rate: float = 0.1,
    seed: int = 11,
) -> CnnParams:
    """SGD training of the float CNN with cross-entropy loss."""
    rng = np.random.default_rng(seed)
    x = np.asarray(train_x, dtype=np.float64) / 255.0
    y = np.asarray(train_y)
    taps = KERNEL_SIZE**2
    flat = POOL_SIZE * POOL_SIZE * channels
    params = CnnParams(
        conv_w=rng.normal(0.0, np.sqrt(2.0 / taps), (taps, channels)),
        conv_b=np.zeros(channels),
        fc_w=rng.normal(0.0, np.sqrt(2.0 / flat), (flat, classes)),
        fc_b=np.zeros(classes),
    )
    one_hot = np.eye(classes)[y]
    patches_all = _patches(x)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch):
            rows = order[start : start + batch]
            patches = patches_all[rows]  # (b, 36, 9)
            pre = patches @ params.conv_w + params.conv_b  # (b, 36, c)
            act = np.maximum(pre, 0.0)
            pooled, winners = _pool_forward(act)  # (b, 9, c)
            hidden = pooled.reshape(len(rows), -1)
            logits = hidden @ params.fc_w + params.fc_b
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            probs = exp / exp.sum(axis=1, keepdims=True)

            grad_logits = (probs - one_hot[rows]) / len(rows)
            grad_fc_w = hidden.T @ grad_logits
            grad_fc_b = grad_logits.sum(axis=0)
            grad_hidden = (grad_logits @ params.fc_w.T).reshape(
                len(rows), POOL_SIZE * POOL_SIZE, channels
            )
            # route pooled gradients back to the winning conv cells
            grad_flat = np.zeros(
                (len(rows), POOL_SIZE, POOL_SIZE, channels, 4)
            )
            np.put_along_axis(
                grad_flat,
                winners[..., None],
                grad_hidden.reshape(len(rows), POOL_SIZE, POOL_SIZE, channels, 1),
                axis=-1,
            )
            grad_act = (
                grad_flat.reshape(len(rows), POOL_SIZE, POOL_SIZE, channels, 2, 2)
                .transpose(0, 1, 4, 2, 5, 3)
                .reshape(len(rows), CONV_SIZE * CONV_SIZE, channels)
            )
            grad_act[pre <= 0.0] = 0.0
            grad_conv_w = np.einsum("bpt,bpc->tc", patches, grad_act)
            grad_conv_b = grad_act.sum(axis=(0, 1))

            params.conv_w -= learning_rate * grad_conv_w
            params.conv_b -= learning_rate * grad_conv_b
            params.fc_w -= learning_rate * grad_fc_w
            params.fc_b -= learning_rate * grad_fc_b
    return params


def float_cnn_logits(params: CnnParams, x: np.ndarray) -> np.ndarray:
    """Reference float forward pass (inputs uint8)."""
    scaled = np.asarray(x, dtype=np.float64) / 255.0
    act = np.maximum(_patches(scaled) @ params.conv_w + params.conv_b, 0.0)
    pooled, _ = _pool_forward(act)
    return pooled.reshape(len(pooled), -1) @ params.fc_w + params.fc_b


class FixedPointCnn(FixedPointNet):
    """Quantized CNN whose multiplications go through ``multiplier``."""

    def __init__(self, params: CnnParams, multiplier: Multiplier):
        super().__init__(
            multiplier, (params.conv_w, params.conv_b), (params.fc_w, params.fc_b)
        )

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Fixed-point forward pass; returns integer logits."""
        x = np.atleast_2d(np.asarray(x, dtype=np.int64))
        acc = self._mac(_patches(x), 0)  # (n, 36, channels)
        act = np.maximum(acc, 0) >> WEIGHT_FRACTION_BITS  # back to x's scale
        pooled, _ = _pool_forward(act)
        return self._mac(pooled.reshape(len(pooled), -1), 1)
