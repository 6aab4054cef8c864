"""Structural (gate-level) models of every multiplier datapath."""

from .adders import (
    full_adder,
    half_adder,
    incrementer,
    loa_adder,
    maa_adder,
    ripple_adder,
    ripple_subtractor,
    soa_adder,
)
from .am_rtl import am_netlist
from .baugh_wooley import baugh_wooley_multiplier, baugh_wooley_netlist
from .booth import booth_multiplier, booth_netlist, dadda_multiplier, dadda_netlist
from .catalog import GENERATORS, generator_for, netlist_for, netlist_of
from .divider_rtl import mitchell_divider_netlist, realm_divider_netlist
from .drum_rtl import drum_netlist
from .implm_rtl import implm_netlist
from .intalp_rtl import intalp_netlist
from .lod import leading_one, nearest_one, or_tree
from .mitchell_rtl import alm_netlist, mitchell_netlist
from .mux import constant_lut, mux_tree
from .prefix_adders import (
    ADDER_STYLES,
    brent_kung_adder,
    carry_select_adder,
    kogge_stone_adder,
    sklansky_adder,
)
from .realm_rtl import corrected_log_netlist, realm_netlist
from .shifter import barrel_left, barrel_right, normalize_fraction, scaling_shifter
from .ssm_rtl import essm_netlist, ssm_netlist
from .wallace import wallace_multiplier, wallace_netlist

__all__ = [
    "ADDER_STYLES",
    "GENERATORS",
    "booth_multiplier",
    "booth_netlist",
    "brent_kung_adder",
    "carry_select_adder",
    "dadda_multiplier",
    "dadda_netlist",
    "kogge_stone_adder",
    "sklansky_adder",
    "alm_netlist",
    "am_netlist",
    "barrel_left",
    "baugh_wooley_multiplier",
    "baugh_wooley_netlist",
    "barrel_right",
    "constant_lut",
    "corrected_log_netlist",
    "drum_netlist",
    "essm_netlist",
    "full_adder",
    "generator_for",
    "half_adder",
    "implm_netlist",
    "incrementer",
    "intalp_netlist",
    "leading_one",
    "loa_adder",
    "maa_adder",
    "mitchell_divider_netlist",
    "mitchell_netlist",
    "mux_tree",
    "nearest_one",
    "netlist_for",
    "netlist_of",
    "normalize_fraction",
    "or_tree",
    "realm_divider_netlist",
    "realm_netlist",
    "ripple_adder",
    "ripple_subtractor",
    "scaling_shifter",
    "soa_adder",
    "ssm_netlist",
    "wallace_multiplier",
    "wallace_netlist",
]
