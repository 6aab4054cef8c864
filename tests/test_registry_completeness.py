"""Every registry id must be a full citizen of every derived layer.

The netlist generator, the kernel specializer and the formal encoder of
a design are all looked up from its model, so a registry id needs no
second entry anywhere; these checks make sure each lookup finds
something for every id, and that the two newest families clear the
whole stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.exhaustive import exhaustive_metrics
from repro.circuits.catalog import generator_for
from repro.conformance.coverage import FAMILY_SEGMENTS, default_segments
from repro.formal.encode import UnsupportedDesignError, encode_model
from repro.kernels.compiler import kernel_for
from repro.multipliers.registry import REGISTRY, build

SMALL_BITWIDTH = 8


def _build_any(name):
    """Build at 16 bits, falling back to 8 for narrow-only configs."""
    try:
        return build(name, 16)
    except ValueError:
        return build(name, SMALL_BITWIDTH)


ALL_IDS = sorted(REGISTRY)


def test_segment_entries_are_powers_of_two():
    for family, m in FAMILY_SEGMENTS.items():
        assert m >= 1 and (m & (m - 1)) == 0, (family, m)


@pytest.mark.parametrize("name", ALL_IDS)
def test_id_resolves_across_structure_tables(name):
    model = _build_any(name)
    assert default_segments(model) >= 1
    # the model's family has a netlist generator
    assert generator_for(model) is not None
    # the kernel compiler produces an evaluator of some kind
    kernel = kernel_for(model)
    assert kernel.kind in ("table", "full-table", "direct", "interpreted")


@pytest.mark.parametrize(
    "name",
    ["scaletrim-t3-c2", "scaletrim-t4-c0", "scaletrim-t4-c2",
     "scaletrim-t6-c3", "dnnco-l4", "dnnco-l6", "dnnco-l8"],
)
def test_new_family_ids_full_stack_smoke(name):
    """The two new families clear model/kernel/metrics/formal at 8 bits."""
    model = build(name, SMALL_BITWIDTH)
    kernel = kernel_for(model)
    a = np.arange(256, dtype=np.int64).repeat(4)
    b = np.tile(np.arange(0, 1024, 4, dtype=np.int64) % 256, 4)[: a.size]
    np.testing.assert_array_equal(kernel(a, b), model.multiply(a, b))
    metrics = exhaustive_metrics(model)
    assert np.isfinite(metrics.nmed)
    try:
        encoding = encode_model(model)
    except UnsupportedDesignError as exc:
        pytest.skip(f"no symbolic encoding: {exc}")
    pairs = np.array([(0, 0), (1, 1), (255, 255), (170, 85), (128, 3)],
                     dtype=np.int64)
    got = encoding.eval_pairs(pairs[:, 0], pairs[:, 1])
    want = model.multiply(pairs[:, 0], pairs[:, 1])
    np.testing.assert_array_equal(got, want)
