"""Application outputs pinned bit for bit.

Every application routes its products through the one signed
multiply-accumulate primitive of :mod:`repro.multipliers.signed`.  The
SHA-256 digests below were taken from the per-application
implementations that primitive replaced, so any change to operand
order, sign restoration, blocking or rounding shows up here.  The
``jpeg`` digests hash the Table II bitstream of cameraman and were
taken from the bit-serial entropy coder that the table-driven one
replaced, so they also pin the coder's bytes.  The
designs cover the exact reference and four kernels of different kinds,
including ``alm-maa-m3``, whose products change when its operands swap.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dsp import fir_filter, lowpass_taps, multitone_signal, quantize_q15
from repro.jpeg.codec import compress
from repro.jpeg.dct import forward_dct
from repro.jpeg.images import test_image as make_image
from repro.multipliers.registry import build
from repro.nn.cnn import FixedPointCnn
from repro.nn.evaluate import trained_cnn_setup, trained_setup
from repro.nn.mlp import FixedPointMlp

DIGESTS = {
    "accurate": {
        "fir": "2c2b1428d6bb0d9dffad00ac5b7edf981f0ddd8dfcb9bd02f717b09304295947",
        "mlp": "c44a3d6a1d6e054a7d844614f4bb204c6cc72b75dfa0e84536fd64804b535c01",
        "cnn": "703ba7b95be44e67277732ff88c0982f0b3141cc386f11ace4b94f365d14c405",
        "dct": "898b69499a750511930ae421ffc8810d553c064bc334b70d734dcf916821ea77",
        "jpeg": "c7e8f89eb65d05147311d22b553ec68612055e82060a2fd51eb746b7b9925959",
    },
    "alm-maa-m3": {
        "fir": "e76dbc2c25e180776a3c3a8590b56d6779d3cc15f61eade19b0246e41a790f26",
        "mlp": "082ab5533f439d86d62893f3920bcf980d855fe01bf15c92a6aa303d8f5814c0",
        "cnn": "cea1880ea72a54c49565ab1de6f4c272998ea953bf5ded796f03d412095d2b3b",
        "dct": "8a4bbd21c93a506db913fdc09e267accdb57909b1c548035079243e380cefc0f",
        "jpeg": "2087a4e2d4149cb608158f64d1cad24e1867e2fa04b75893bee2215cf54fb953",
    },
    "am1-nb13": {
        "fir": "1533d173337845b553bd375f1c01c2d3402c34c568c7af4cd9a56d3e7cfd4301",
        "mlp": "5f6a8e44e1be5336197104ef3841235c3a0327e91e41b91b510a5c1bb2bdf99f",
        "cnn": "394f37f7ca7d897cc6f70fa51f1f25fee58e15bd9d3219027e8177a8815feeb6",
        "dct": "1d93575db8eaecebce6839f5edbe6c9326be56d982b3c96fddee0a840acf4a22",
        "jpeg": "c727cc18b7f5a2c48e4139b5328949ccd4f326846d8c9fc9741cb7362c08c2be",
    },
    "intalp-l2": {
        "fir": "acb334ab2ab1ccbad22131c14181554ef4ad26c9990b1bac9d2eede6ca4fb0fe",
        "mlp": "f500406353b87eef823f27c38d8bc5fd601604c9b6a9b01dabbcd8a1e334364b",
        "cnn": "b06aefe92aaa1efbef6ed2850a19f99ccc6a105328b2a650f95a301b979835b8",
        "dct": "7f304d9ea30de77512c64bc0f156209ac364a7a4f799386ad4d719d85878b354",
        "jpeg": "b8de0913cc70a6aca942161019f9b9056e5659dc21fd2694cadcd0613aa28d8a",
    },
    "drum-k8": {
        "fir": "5e89e2af2a31f25eefb40efedaec9c85e10689b08e06330d1be8919a014697c1",
        "mlp": "cee7d6ae760efc92347decea0517ae2a3c1635fa9126c3eb12aab7fa4b884d44",
        "cnn": "130bcbed198f4c91faf020ae98dc0c19ffc897e0614a863670ed6673bf8f582d",
        "dct": "b08d2dab31772ce86c5e7f042b1d38f704a7b2ab7ac292dbd2edc4a3e437a91f",
        "jpeg": "ac3596acf2501cc698a928b40e05b657a6d7eaa6f8876ae9696519d441185f26",
    },
}


def application_outputs(multiplier) -> dict[str, np.ndarray | bytes]:
    """FIR output, MLP and CNN logits, DCT coefficients and the JPEG
    bitstream of one design."""
    taps = quantize_q15(lowpass_taps(63, 0.2))
    samples = quantize_q15(multitone_signal(4096))
    mlp_data, mlp_params = trained_setup()
    cnn_data, cnn_params = trained_cnn_setup()
    cameraman = make_image("cameraman")
    image = cameraman.astype(np.int64) - 128
    blocks = image.reshape(32, 8, 32, 8).swapaxes(1, 2)  # (32, 32, 8, 8)
    return {
        "fir": fir_filter(multiplier, samples, taps),
        "mlp": FixedPointMlp(mlp_params, multiplier).logits(mlp_data.test_x),
        "cnn": FixedPointCnn(cnn_params, multiplier).logits(cnn_data.test_x),
        "dct": forward_dct(multiplier, blocks),
        "jpeg": compress(multiplier, cameraman).data,
    }


def digest(output: np.ndarray | bytes) -> str:
    """SHA-256 of a bitstream, or over an array's shape and little-endian
    int64 values."""
    if isinstance(output, bytes):
        return hashlib.sha256(output).hexdigest()
    values = np.ascontiguousarray(output, dtype="<i8")
    return hashlib.sha256(repr(values.shape).encode() + values.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_application_outputs_match_digests(name):
    outputs = application_outputs(build(name))
    assert {key: digest(value) for key, value in outputs.items()} == DIGESTS[name]
