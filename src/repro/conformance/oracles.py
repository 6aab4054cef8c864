"""Differential and metamorphic oracles across the repo's answer layers.

The repository holds six independent answers to "what does design X
return on ``(a, b)``": the functional NumPy model, the gate-level RTL
netlist, the compiled kernel (:mod:`repro.kernels` — table-specialized
model and bit-parallel netlist programs), the served (batched protocol)
path, the formal layer's gate-level formula (:mod:`repro.formal` — the
object equivalence proofs and error certificates reason about), and —
on inputs where a family guarantees exactness — arithmetic itself.  The :class:`DifferentialOracle` evaluates operand batches
through every available layer and reports structured
:class:`Divergence` records wherever two layers disagree.

Where no second implementation exists, **metamorphic relations** apply to
the model alone (family lists pinned by measurement over the registry,
see ``tests/test_conformance.py``):

* ``commute`` — ``f(a, b) == f(b, a)`` for symmetric datapaths;
* ``pow2-shift`` — ``f(2a, b) >> 1 == f(a, b)`` for the log-family
  designs, whose datapath depends on the operands only through
  ``(k, fraction)`` and a final barrel shift (doubling increments ``k``);
* ``underestimate`` — ``f(a, b) <= a * b`` for truncation-only designs;
* the ``exact`` layer — ``f`` must equal ``a * b`` whenever one operand
  is zero, everywhere for the accurate design, and on power-of-two pairs
  for the families whose log fractions vanish there.

A deliberately broken model can be injected through the chaos harness
(:mod:`repro.analysis.chaos`): a ``corrupt`` fault spec whose ``design``
matches the conformance design id (and ``block`` 0) makes the oracle's
model layer misreport every nonzero product by +1 for the claim's
lifetime — the detect-and-shrink path is then testable end to end, with
the usual cross-process exact firing counts.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import weakref

import numpy as np

from ..analysis import chaos, telemetry
from ..circuits.catalog import generator_for, netlist_of
from ..core.realm import RealmMultiplier
from ..kernels import compile_netlist, kernel_for
from ..multipliers.registry import REGISTRY, build

__all__ = [
    "LAYERS",
    "RELATIONS",
    "Divergence",
    "DifferentialOracle",
    "resolve_design",
]

#: evaluation layers, in reporting order; "model" is the reference.
#: "kernel" is the compiled evaluator of :mod:`repro.kernels` — always
#: available (every design compiles, worst case to an interpreted
#: fallback) and required to be bit-identical to the model.  "formal"
#: evaluates the gate-level formula the formal layer rebuilds the model
#: as (:mod:`repro.formal`) — a third independent interpretation of
#: the design, available for every symbolic family and for table
#: families at enumerable widths.
LAYERS = ("model", "rtl", "kernel", "serve", "formal", "exact")

#: metamorphic relations checked on the model layer
RELATIONS = ("commute", "pow2-shift", "underestimate", "comp-monotone")

# family lists for the relations/exactness guarantees.  COMMUTE and the
# exactness families mirror tests/test_multiplier_properties.py; the
# POW2_SHIFT list is pinned by an exhaustive 8-bit + randomized 16-bit
# sweep (DRUM/SSM/AM fail it: their truncation windows move with the
# leading one or the array structure, not with a final barrel shift;
# DNNCO fails it too — its OR window is anchored at the LSB).
COMMUTE_FAMILIES = frozenset(
    {"Accurate", "ALM-SOA", "ALM-LOA", "cALM", "DNNCO", "DRUM", "ESSM",
     "ImpLM", "IntALP", "MBM", "REALM", "scaleTRIM", "SSM"}
)
POW2_SHIFT_FAMILIES = frozenset(
    {"Accurate", "ALM-MAA", "ALM-SOA", "ALM-LOA", "cALM", "ImpLM",
     "IntALP", "MBM", "REALM", "scaleTRIM"}
)
UNDERESTIMATE_FAMILIES = frozenset(
    {"Accurate", "AM1", "AM2", "cALM", "DNNCO", "ESSM", "scaleTRIM", "SSM"}
)
POW2_EXACT_FAMILIES = frozenset(
    {"Accurate", "ALM-MAA", "AM1", "AM2", "cALM", "DNNCO", "ESSM", "ImpLM",
     "IntALP", "scaleTRIM", "SSM"}
)
#: families with a compensation knob whose safe lower-bound LUT must never
#: move the product past the exact value: the compensated result dominates
#: the uncompensated one pointwise (and ``underestimate`` bounds it above)
COMP_MONOTONE_FAMILIES = frozenset({"scaleTRIM"})

#: ad-hoc REALM design spec: realm-<bitwidth>-m<M>-q<Q>[-t<T>]
_REALM_SPEC = re.compile(r"^realm-(\d+)-m(\d+)-q(\d+)(?:-t(\d+))?$")


@dataclasses.dataclass(frozen=True)
class Divergence:
    """One input pair on which a check failed.

    ``kind`` is ``"layer"`` (cross-implementation mismatch) or
    ``"relation"`` (metamorphic violation); ``name`` identifies the layer
    or relation; ``got``/``want`` are the two disagreeing values (for
    relations: the transformed and the reference evaluation).
    """

    design: str
    kind: str
    name: str
    a: int
    b: int
    got: int
    want: int

    def key(self) -> tuple[str, str]:
        return (self.kind, self.name)


def resolve_design(spec: str, bitwidth: int | None = None):
    """Map a design spec to ``(design_id, multiplier, rtl_factory, servable)``.

    ``spec`` is either a registry id (``"realm16-t3"``, ``"drum-k6"``,
    ...) or an ad-hoc REALM point ``realm-<N>-m<M>-q<Q>[-t<T>]`` — e.g.
    ``realm-16-m4-q5`` — which builds a :class:`RealmMultiplier` outside
    the registry grid (the fuzzer's way to conformance-test unpublished
    configurations).  ``bitwidth`` defaults to 16 for registry ids and to
    the embedded ``<N>`` for ad-hoc specs; a conflicting explicit value
    raises ``ValueError``.  ``rtl_factory`` is ``None`` when no netlist
    generator exists; ``servable`` says whether the in-process serve
    layer can resolve the id (registry ids only).
    """
    match = _REALM_SPEC.match(spec)
    if match is not None:
        n, m, q, t = (int(g) if g is not None else 0 for g in match.groups())
        if bitwidth is not None and bitwidth != n:
            raise ValueError(
                f"design {spec!r} embeds bitwidth {n}, got --bitwidth {bitwidth}"
            )
        multiplier = RealmMultiplier(bitwidth=n, m=m, t=t, q=q)
    elif spec in REGISTRY:
        multiplier = build(spec, 16 if bitwidth is None else bitwidth)
    else:
        known = "', '".join(sorted(REGISTRY)[:6])
        raise KeyError(
            f"unknown design {spec!r}; use a registry id (e.g. '{known}', ...)"
            " or an ad-hoc REALM spec like 'realm-16-m4-q5'"
        )
    rtl_factory = None
    if generator_for(multiplier) is not None:
        rtl_factory = functools.partial(netlist_of, multiplier)
    return spec, multiplier, rtl_factory, match is None


def _start_fleet():
    """A two-shard in-process fleet on a fresh event loop.  The oracle
    checks the wire codec and the routing, one request at a time: no
    co-batching window (``max_latency=0``) and no heartbeat."""
    import asyncio

    from ..serve import BatchPolicy, LocalShard, Supervisor

    policy = BatchPolicy(max_latency=0)
    loop = asyncio.new_event_loop()
    supervisor = Supervisor([LocalShard(f"shard-{i}", policy=policy) for i in (0, 1)])
    loop.run_until_complete(supervisor.up())
    return loop, supervisor


def _stop_fleet(loop, supervisor) -> None:
    """Drain the fleet and close its loop.  Also the oracle's finalizer,
    so it must not raise: collected inside another running event loop,
    the fleet is dropped undrained."""
    import asyncio

    try:
        asyncio.get_running_loop()
    except RuntimeError:  # no loop runs in this thread, so ours can
        loop.run_until_complete(supervisor.drain())
    loop.close()


class DifferentialOracle:
    """Evaluate operand batches through every available answer layer.

    ``layers`` restricts the checked layers (default: every layer the
    design supports); unavailable requested layers are recorded in
    ``skipped_layers`` with a reason instead of failing, so one CLI
    invocation works across the whole registry.  ``limit`` bounds the
    :class:`Divergence` records kept per check (totals are still exact).

    The ``kernel`` layer compares the compiled evaluator of
    :mod:`repro.kernels` against the model on every pair; it is always
    available.  The ``rtl`` layer runs the netlist through the
    bit-parallel :class:`~repro.kernels.NetlistKernel` — bit-identical
    to the per-gate simulator by construction and roughly an order of
    magnitude faster, which is what makes gate-level fuzzing batches
    affordable.
    """

    def __init__(self, design: str, bitwidth: int | None = None, layers=None):
        self.design, self.model, rtl_factory, servable = resolve_design(
            design, bitwidth
        )
        self.bitwidth = self.model.bitwidth
        requested = tuple(layers) if layers else LAYERS
        unknown = set(requested) - set(LAYERS)
        if unknown:
            raise ValueError(
                f"unknown layers {sorted(unknown)}; choose from {LAYERS}"
            )
        if "model" not in requested:
            raise ValueError("the 'model' layer is the reference; it is required")
        self.skipped_layers: dict[str, str] = {}
        self._netlist = None
        self._rtl_kernel = None
        if "rtl" in requested:
            if rtl_factory is None:
                self.skipped_layers["rtl"] = "no netlist generator for this design"
            else:
                try:
                    self._netlist = rtl_factory()
                except ValueError as exc:
                    self.skipped_layers["rtl"] = f"netlist unbuildable: {exc}"
            if self._netlist is not None:
                self._rtl_kernel = compile_netlist(self._netlist)
        if "serve" in requested and not servable:
            self.skipped_layers["serve"] = "not a registry id; serve cannot resolve it"
        self._formal_encoding = None
        if "formal" in requested:
            from ..formal.encode import UnsupportedDesignError, encode_model

            try:
                self._formal_encoding = encode_model(self.model, self.design)
            except UnsupportedDesignError as exc:
                self.skipped_layers["formal"] = str(exc)
        self.layers = tuple(
            name
            for name in LAYERS
            if name in requested and name not in self.skipped_layers
        )
        family = self.model.family
        self.relations = tuple(
            name
            for name, families in (
                ("commute", COMMUTE_FAMILIES),
                ("pow2-shift", POW2_SHIFT_FAMILIES),
                ("underestimate", UNDERESTIMATE_FAMILIES),
                ("comp-monotone", COMP_MONOTONE_FAMILIES),
            )
            if family in families
        )
        self._uncompensated = None
        self._broken_by_chaos: bool | None = None
        self._fleet = None  # (event loop, Supervisor) of the serve layer
        self._closer = None

    # -- layer evaluation ------------------------------------------------

    def _eval_model(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # the interpreted datapath: the reference every other layer,
        # the compiled kernel included, is checked against
        products = self.model.multiply(a, b, compiled=False)
        if self._chaos_broken():
            products = np.where((a > 0) & (b > 0), products + 1, products)
        return products

    def _chaos_broken(self) -> bool:
        """True when a chaos ``corrupt`` fault targets this design.

        The claim is taken once per oracle (spec ``times`` bounds how many
        oracles go bad, exactly, across processes) and then sticks for the
        oracle's lifetime, so shrinking sees the same broken model the
        fuzzing loop saw.
        """
        if self._broken_by_chaos is None:
            self._broken_by_chaos = False
            plan = chaos.active_plan()
            if plan is not None:
                match = plan.fault_for(0, self.design)
                if match is not None and match[1].kind == "corrupt":
                    self._broken_by_chaos = plan.claim(*match)
        return self._broken_by_chaos

    def _eval_rtl(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.bitwidth
        netlist = self._netlist
        buses = [netlist.inputs[:n], netlist.inputs[n:]]
        return self._rtl_kernel.evaluate_words(buses, [a, b])

    def _eval_kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kernel_for(self.model)(a, b)

    def _eval_formal(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # the model rebuilt as a gate-level formula, evaluated bit-parallel — a
        # third independent interpretation of the design (and the one
        # equivalence proofs and error certificates reason about)
        return self._formal_encoding.eval_pairs(a, b)

    def _eval_serve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # the supervised fleet path: requests route through the
        # consistent-hash ring to one of two in-process shards — exactly
        # the dispatch a production fleet uses, minus the sockets.  One
        # fleet per oracle, on the oracle's own event loop
        from ..serve import InProcessClient

        if self._fleet is None:
            self._fleet = _start_fleet()
            self._closer = weakref.finalize(self, _stop_fleet, *self._fleet)
        loop, supervisor = self._fleet
        products = loop.run_until_complete(
            InProcessClient(supervisor).multiply(
                self.design, a.tolist(), b.tolist(), bitwidth=self.bitwidth
            )
        )
        return np.asarray(products, dtype=np.int64)

    def close(self) -> None:
        """Drain the ``serve`` layer's fleet, if one started; idempotent.
        An oracle nobody closes is drained when it is collected."""
        if self._closer is not None:
            self._closer()

    def exactness_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pairs on which the family guarantees the exact product."""
        mask = (a == 0) | (b == 0)
        if self.model.family == "Accurate":
            return np.ones_like(mask)
        if self.model.family in POW2_EXACT_FAMILIES:
            pow2 = (a > 0) & (b > 0) & ((a & (a - 1)) == 0) & ((b & (b - 1)) == 0)
            mask = mask | pow2
        return mask

    # -- checks ----------------------------------------------------------

    def evaluate(
        self, a, b, *, limit: int = 8, batches=None
    ) -> tuple[list[Divergence], int]:
        """Run every layer and relation on a batch.

        Returns ``(records, total)`` where ``records`` holds at most
        ``limit`` :class:`Divergence` records per check and ``total`` is
        the exact count of divergent (pair, check) combinations.
        ``batches`` splits the pairs into consecutive batches of the
        given sizes, all evaluated in one pass: ``limit`` then holds per
        check and batch, and the records come batch by batch, exactly as
        one call per batch would return them.
        """
        a = np.atleast_1d(np.asarray(a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(b, dtype=np.int64))
        sizes = [a.size] if batches is None else [int(size) for size in batches]
        if sum(sizes) != a.size:
            raise ValueError(f"batch sizes {sizes} do not add up to {a.size} pairs")
        tele = telemetry.get()
        with tele.span("conform.eval", design=self.design, pairs=int(a.size)):
            reference = self._eval_model(a, b)
            checks = [
                ("layer", name, values, reference, values != reference)
                for name, values in self._layer_values(a, b, reference)
            ]
            checks += [
                ("relation", name, got, want, valid & (got != want))
                for name, got, want, valid in self._relation_values(a, b, reference)
            ]
            hits = [np.flatnonzero(mask) for *_, mask in checks]
            total = sum(int(found.size) for found in hits)
            records: list[Divergence] = []
            edges = np.cumsum([0, *sizes])
            for start, stop in zip(edges[:-1], edges[1:]):
                for (kind, name, got, want, _), found in zip(checks, hits):
                    low, high = np.searchsorted(found, (start, stop))
                    records.extend(
                        Divergence(
                            self.design, kind, name, int(a[index]), int(b[index]),
                            int(got[index]), int(want[index]),
                        )
                        for index in found[low : min(high, low + limit)]
                    )
        tele.counter("conform.divergences", total)
        return records, total

    def _layer_values(self, a, b, reference):
        for name in self.layers:
            if name == "rtl":
                yield name, self._eval_rtl(a, b)
            elif name == "kernel":
                yield name, self._eval_kernel(a, b)
            elif name == "serve":
                yield name, self._eval_serve(a, b)
            elif name == "formal":
                yield name, self._eval_formal(a, b)
            elif name == "exact":
                mask = self.exactness_mask(a, b)
                # outside the guaranteed region the model is the truth
                yield name, np.where(mask, a * b, reference)

    def _relation_values(self, a, b, reference):
        for name in self.relations:
            if name == "commute":
                yield name, self._eval_model(b, a), reference, np.ones(
                    a.shape, dtype=bool
                )
            elif name == "pow2-shift":
                valid = (a > 0) & (a < (1 << (self.bitwidth - 1)))
                doubled = self._eval_model(np.where(valid, 2 * a, a), b)
                yield name, doubled >> 1, reference, valid
            elif name == "underestimate":
                exact = a * b
                yield name, np.maximum(reference, exact), exact, np.ones(
                    a.shape, dtype=bool
                )
            elif name == "comp-monotone":
                # compensation only ever moves the product toward the
                # exact value: the c=0 sibling never exceeds the model
                # (underestimate bounds the other side)
                if self._uncompensated is None:
                    from ..multipliers.scaletrim import ScaleTrimMultiplier

                    self._uncompensated = ScaleTrimMultiplier(
                        self.bitwidth, t=self.model.t, c=0
                    )
                plain = self._uncompensated.multiply(a, b, compiled=False)
                yield name, np.maximum(plain, reference), reference, np.ones(
                    a.shape, dtype=bool
                )

    # -- single-pair re-checks (the shrinker's predicate) ----------------

    def check_pair(self, kind: str, name: str, a: int, b: int) -> bool:
        """Does the named check still fail on ``(a, b)``?"""
        if not (0 <= a <= self.model.max_operand and 0 <= b <= self.model.max_operand):
            return False
        aa = np.array([a], dtype=np.int64)
        bb = np.array([b], dtype=np.int64)
        reference = self._eval_model(aa, bb)
        if kind == "layer":
            for layer, values in self._layer_values(aa, bb, reference):
                if layer == name:
                    return bool(values[0] != reference[0])
            return False
        for relation, got, want, valid in self._relation_values(aa, bb, reference):
            if relation == name:
                return bool(valid[0] and got[0] != want[0])
        return False
