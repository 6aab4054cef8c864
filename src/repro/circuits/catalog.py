"""Netlist generators for every multiplier model.

Mirror of :mod:`repro.multipliers` on the structural side: each family
class keys the generator of its gate-level datapath, which reads the
model's own parameters, so ``netlist_for("realm16-t3")`` is the netlist
of ``build("realm16-t3")`` and the registry's id grid exists once.  The
test suite checks functional-vs-structural equivalence through this
mapping, and the synthesis benches derive the Table I area/power columns
from it.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.realm import RealmMultiplier
from ..logic.netlist import Netlist
from ..multipliers import (
    AccurateMultiplier,
    ApproxAdderLogMultiplier,
    Am1Multiplier,
    Am2Multiplier,
    DrumMultiplier,
    EssmMultiplier,
    ImpLmMultiplier,
    IntAlpMultiplier,
    MbmMultiplier,
    MitchellMultiplier,
    Multiplier,
    SsmMultiplier,
    build,
)
from ..multipliers.base import datapath_family
from ..multipliers.dnnco import DnnCoMultiplier
from ..multipliers.scaletrim import ScaleTrimMultiplier
from .am_rtl import am_netlist
from .dnnco_rtl import dnnco_netlist
from .drum_rtl import drum_netlist
from .implm_rtl import implm_netlist
from .intalp_rtl import intalp_netlist
from .mitchell_rtl import alm_netlist, mitchell_netlist
from .realm_rtl import corrected_log_netlist
from .scaletrim_rtl import scaletrim_netlist
from .ssm_rtl import essm_netlist, ssm_netlist
from .wallace import wallace_netlist

__all__ = ["GENERATORS", "generator_for", "netlist_for", "netlist_of"]

Generator = Callable[[Multiplier], Netlist]


def _intalp(model: IntAlpMultiplier) -> Netlist:
    if model.fit != "interp":
        raise ValueError(
            f"structural IntALP implements the interpolant fit, not {model.fit!r}"
        )
    return intalp_netlist(model.bitwidth, level=model.level)


#: family class -> netlist generator of a model of that family, keyed on
#: :func:`~repro.multipliers.base.datapath_family`
GENERATORS: dict[type, Generator] = {
    AccurateMultiplier: lambda model: wallace_netlist(model.bitwidth),
    RealmMultiplier: lambda model: corrected_log_netlist(model, model.name),
    MbmMultiplier: lambda model: corrected_log_netlist(
        model, f"mbm{model.bitwidth}-t{model.t}"
    ),
    MitchellMultiplier: lambda model: mitchell_netlist(model.bitwidth),
    ApproxAdderLogMultiplier: lambda model: alm_netlist(
        model.bitwidth, m=model.m, adder=model.adder
    ),
    ImpLmMultiplier: lambda model: implm_netlist(model.bitwidth),
    IntAlpMultiplier: _intalp,
    Am1Multiplier: lambda model: am_netlist(model.bitwidth, nb=model.nb, variant="AM1"),
    Am2Multiplier: lambda model: am_netlist(model.bitwidth, nb=model.nb, variant="AM2"),
    DrumMultiplier: lambda model: drum_netlist(model.bitwidth, k=model.k),
    SsmMultiplier: lambda model: ssm_netlist(model.bitwidth, m=model.m),
    EssmMultiplier: lambda model: essm_netlist(model.bitwidth, m=model.m),
    ScaleTrimMultiplier: lambda model: scaletrim_netlist(
        model.bitwidth, t=model.t, c=model.c
    ),
    DnnCoMultiplier: lambda model: dnnco_netlist(model.bitwidth, l=model.l),
}


def generator_for(model: Multiplier) -> Generator | None:
    """The netlist generator of the datapath ``model`` runs, or ``None``
    for a model that runs no family's datapath unmodified."""
    return GENERATORS.get(datapath_family(model))


def netlist_of(model: Multiplier) -> Netlist:
    """Build (and prune) the structural netlist of a model.

    Raises ``KeyError`` when no generator applies, and the generator's
    ``ValueError`` for a parameter its datapath does not implement.
    """
    generator = generator_for(model)
    if generator is None:
        raise KeyError(f"no netlist generator for {model!r}")
    netlist = generator(model)
    if netlist.outputs and netlist.gate_count:
        netlist.prune()
    return netlist


def netlist_for(name: str, bitwidth: int = 16) -> Netlist:
    """The netlist of ``build(name, bitwidth)``: an unknown id raises the
    registry's ``KeyError``, a width its model refuses the model's
    ``ValueError``."""
    return netlist_of(build(name, bitwidth))
