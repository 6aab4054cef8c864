"""Formal layer: gate-level equivalence certificates and exact error bounds.

This package replaces *sampled* confidence with *certified* claims:

* :mod:`~repro.formal.encode` — wraps registered netlists and rebuilds
  the functional models from :mod:`repro.circuits` blocks, so every
  formula is a pruned :class:`~repro.logic.netlist.Netlist` over shared
  operand inputs, run by :class:`~repro.kernels.netlist.NetlistKernel`
  and backed by its product table at ``N <= 8``;
* :mod:`~repro.formal.backends` — the solver ladder: exhaustive
  bit-parallel sweep (to 12 bits) → z3 (strictly optional, used when
  importable) → bounded pure-python BDD; tier-1 needs no dependency;
* :mod:`~repro.formal.equiv` — model↔RTL↔kernel equivalence proofs with
  concrete divergence witnesses that feed the conformance shrinker;
* :mod:`~repro.formal.bounds` — exact worst-case relative-error
  certificates ``(a*, b*, err*)``, replayed through the concrete model
  as a self-check, via exhaustive formula sweep, SMT binary search, or
  a branch-and-bound interval engine for wide log/segment designs.

The ``formal`` conformance layer (:mod:`repro.conformance.oracles`) and
the ``repro formal`` CLI are the consumer surfaces.  A proof or bound
persists only as a ``formal`` row of the experiment warehouse
(``repro formal --warehouse``), which is where Table I reads exact,
replayed worst-case certificates from.
"""

from __future__ import annotations

from .backends import BddBackend, ExhaustiveBackend, available_backends, z3_available
from .bounds import ErrorCertificate, WorstCaseBounds, certify_worst_error
from .encode import (
    ENCODERS,
    Encoding,
    UnsupportedDesignError,
    encode_kernel,
    encode_model,
    encode_netlist,
    encode_table,
)
from .equiv import EquivalenceResult, LegResult, prove_equivalence

__all__ = [
    "BddBackend",
    "ENCODERS",
    "Encoding",
    "EquivalenceResult",
    "ErrorCertificate",
    "LegResult",
    "WorstCaseBounds",
    "ExhaustiveBackend",
    "UnsupportedDesignError",
    "available_backends",
    "certify_worst_error",
    "encode_kernel",
    "encode_model",
    "encode_netlist",
    "encode_table",
    "prove_equivalence",
    "z3_available",
]
