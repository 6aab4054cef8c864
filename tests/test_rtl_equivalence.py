"""Functional-vs-structural equivalence for every design in the catalog.

This is the library's strongest correctness statement: for each registry
configuration, the gate-level netlist (what the synthesis numbers are
computed from) and the NumPy functional model (what the error numbers are
computed from) must agree bit for bit on randomized vectors plus the
corner cases (zeros, ones, powers of two, saturating operands).

At 8 bits the statement is *exhaustive*: every design buildable at that
width is checked over all 256x256 operand pairs.  The full sweep is
``nightly``-marked (set ``REPRO_NIGHTLY=1``); a seeded 4k-pair slice of
the same grid runs in every tier-1 invocation.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from repro.circuits.catalog import generator_for, netlist_for, netlist_of
from repro.circuits.ssm_rtl import essm_netlist, ssm_netlist
from repro.core.realm import RealmMultiplier
from repro.logic.sim import evaluate_words
from repro.multipliers.intalp import IntAlpMultiplier
from repro.multipliers.registry import REGISTRY, build
from repro.multipliers.ssm import EssmMultiplier, SsmMultiplier

CORNERS = np.array(
    [0, 1, 2, 3, 5, 255, 256, 4095, 4096, 32767, 32768, 65534, 65535],
    dtype=np.int64,
)


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(0xC0DE)
    a = np.concatenate([np.repeat(CORNERS, len(CORNERS)), rng.integers(0, 1 << 16, 1200)])
    b = np.concatenate([np.tile(CORNERS, len(CORNERS)), rng.integers(0, 1 << 16, 1200)])
    return a, b


def test_catalog_covers_registry():
    for name in REGISTRY:
        assert generator_for(build(name, 16)) is not None, name


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_netlist_matches_functional_model(name, vectors):
    a, b = vectors
    netlist = netlist_for(name, 16)
    model = build(name, 16)
    got = evaluate_words(netlist, [netlist.inputs[:16], netlist.inputs[16:]], [a, b])
    want = model.multiply(a, b)
    mismatches = np.nonzero(got != want)[0]
    assert mismatches.size == 0, (
        f"{name}: {mismatches.size} mismatches, first at "
        f"a={a[mismatches[0]]}, b={b[mismatches[0]]}: "
        f"netlist={got[mismatches[0]]} model={want[mismatches[0]]}"
    )


@pytest.mark.parametrize(
    "name", ["accurate", "calm", "realm8-t2", "drum-k6", "ssm-m8"]
)
def test_equivalence_at_12_bits(name, vectors):
    # width-genericity: the generators are parameterized by bitwidth
    a, b = vectors
    a = a & 0xFFF
    b = b & 0xFFF
    netlist = netlist_for(name, 12)
    model = build(name, 12)
    got = evaluate_words(netlist, [netlist.inputs[:12], netlist.inputs[12:]], [a, b])
    assert np.array_equal(got, model.multiply(a, b))


@pytest.mark.parametrize("name", ["realm16-t0", "realm4-t9", "mbm-t0"])
def test_realm_output_width_covers_overflow(name):
    # the paper's special case 1: 2N+1-bit outputs for near-max operands
    netlist = netlist_for(name, 16)
    assert len(netlist.outputs) == 33


@pytest.mark.parametrize(
    "name, bitwidth",
    [("alm-maa-m9", 8), ("alm-soa-m9", 8), ("alm-maa-m12", 12), ("alm-soa-m12", 12)],
)
def test_width_the_model_refuses_has_no_netlist(name, bitwidth):
    with pytest.raises(ValueError) as refused:
        build(name, bitwidth)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        netlist_for(name, bitwidth)


@pytest.mark.parametrize(
    "model",
    [RealmMultiplier(8, m=4, overflow="saturate"), IntAlpMultiplier(8, fit="ls")],
    ids=["realm-saturate", "intalp-ls"],
)
def test_parameters_no_generator_implements_are_refused(model):
    # the generator is found, but it must not build its family's default
    # datapath in place of the one the model runs
    assert generator_for(model) is not None
    with pytest.raises(ValueError):
        netlist_of(model)


def test_non_overflowing_designs_use_2n_outputs():
    for name in ("calm", "drum-k8", "ssm-m9", "intalp-l2", "accurate"):
        assert len(netlist_for(name, 16).outputs) == 32


# ----------------------------------------------------------------------
# Exhaustive 8-bit model-vs-RTL sweep
# ----------------------------------------------------------------------


def _eightbit_ids() -> list[str]:
    """Registry ids whose parameters are valid at 8 bits.

    Some configurations are 16-bit-only (SSM/ESSM segment widths ``m >=
    8`` need ``m < N``; high-``t`` REALM truncations leave no fraction
    at ``N = 8``) — their constructors raise ``ValueError`` and they are
    excluded here, with the families still covered via the custom pairs
    in ``EXTRA_8BIT_PAIRS``.
    """
    names = []
    for name in sorted(REGISTRY):
        try:
            build(name, 8)
        except ValueError:
            continue
        names.append(name)
    return names


EIGHTBIT_IDS = _eightbit_ids()

#: an MSE-objective REALM, whose netlist hardwires its own LUT: at M = 2
#: three of its four codes differ from the mean objective's
MSE_REALM = RealmMultiplier(8, m=2, t=1, objective="mse")

#: (label, model, netlist) pairs covering the families whose *registry*
#: parameterizations do not fit in 8 bits (SSM/ESSM need m < 8), and
#: the MSE objective, which no registry id uses
EXTRA_8BIT_PAIRS = [
    ("ssm8-m6", SsmMultiplier(8, m=6), ssm_netlist(8, m=6)),
    ("ssm8-m4", SsmMultiplier(8, m=4), ssm_netlist(8, m=4)),
    ("essm8-m6", EssmMultiplier(8, m=6), essm_netlist(8, m=6)),
    ("essm8-m4", EssmMultiplier(8, m=4), essm_netlist(8, m=4)),
    ("realm8-m2-mse", MSE_REALM, netlist_of(MSE_REALM)),
]


def _assert_equivalent_8bit(label, model, netlist, a, b):
    got = evaluate_words(netlist, [netlist.inputs[:8], netlist.inputs[8:]], [a, b])
    want = model.multiply(a, b)
    mismatches = np.nonzero(got != want)[0]
    assert mismatches.size == 0, (
        f"{label}: {mismatches.size}/{a.size} mismatches, first at "
        f"a={a[mismatches[0]]}, b={b[mismatches[0]]}: "
        f"netlist={got[mismatches[0]]} model={want[mismatches[0]]}"
    )


@pytest.fixture(scope="module")
def slice8(exhaustive8):
    """A seeded 4096-pair slice of the exhaustive 8-bit grid (tier-1)."""
    a, b = exhaustive8
    picks = np.random.default_rng(0x8B17).choice(a.size, 4096, replace=False)
    return a[picks], b[picks]


def test_every_eightbit_family_is_covered():
    # every RTL family present in the catalog has 8-bit coverage, either
    # through its registry ids or through a custom pair
    covered = {build(name, 8).family for name in EIGHTBIT_IDS}
    covered |= {model.family for _, model, _ in EXTRA_8BIT_PAIRS}
    targets = {
        "cALM", "REALM", "DRUM", "SSM", "ESSM", "ImpLM", "IntALP", "AM1", "AM2",
        "scaleTRIM", "DNNCO",
    }
    missing = targets - covered
    assert not missing, f"families without 8-bit equivalence coverage: {missing}"


@pytest.mark.parametrize("name", EIGHTBIT_IDS)
def test_eightbit_slice_matches_model(name, slice8):
    a, b = slice8
    _assert_equivalent_8bit(name, build(name, 8), netlist_for(name, 8), a, b)


@pytest.mark.parametrize("label, model, netlist", EXTRA_8BIT_PAIRS)
def test_eightbit_slice_matches_model_extra(label, model, netlist, slice8):
    a, b = slice8
    _assert_equivalent_8bit(label, model, netlist, a, b)


@pytest.mark.nightly
@pytest.mark.skipif(
    not os.environ.get("REPRO_NIGHTLY"),
    reason="full 256x256 sweep runs in the nightly job (set REPRO_NIGHTLY=1)",
)
@pytest.mark.parametrize("name", EIGHTBIT_IDS)
def test_eightbit_exhaustive_matches_model(name, exhaustive8):
    a, b = exhaustive8
    _assert_equivalent_8bit(name, build(name, 8), netlist_for(name, 8), a, b)


@pytest.mark.nightly
@pytest.mark.skipif(
    not os.environ.get("REPRO_NIGHTLY"),
    reason="full 256x256 sweep runs in the nightly job (set REPRO_NIGHTLY=1)",
)
@pytest.mark.parametrize("label, model, netlist", EXTRA_8BIT_PAIRS)
def test_eightbit_exhaustive_matches_model_extra(label, model, netlist, exhaustive8):
    a, b = exhaustive8
    _assert_equivalent_8bit(label, model, netlist, a, b)
