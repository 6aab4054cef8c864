"""Equivalence proofs: model ↔ RTL ↔ compiled kernel, with witnesses.

:func:`prove_equivalence` runs each *leg* of the agreement claim for one
design through the strongest applicable method:

* **model ↔ rtl** — both sides are lowered to formulas and the miter is
  discharged by the backend ladder (exhaustive sweep up to 12 bits, z3
  when installed, bounded BDD).  ``proved`` here is a real
  proof over the full operand space.
* **model ↔ kernel** — at narrow widths the compiled kernel is lowered
  exactly from its enumerated product table and proved like the RTL
  leg.  At wider operands the kernel is a NumPy closure with no exact
  lowering, so the leg is *validated*: the model formula and the kernel
  are compared on a structured + seeded operand sample (corners,
  power-of-two neighborhoods, random).  ``validated`` is deliberately a
  weaker verdict than ``proved`` and is reported as such.
* **formula ↔ model self-check** — the symbolic encoder itself is
  cross-checked against the interpreted model on the same sample; an
  encoder bug therefore surfaces as a refutation with a witness instead
  of silently certifying the wrong function.

Every refuted leg carries a concrete ``(a, b)`` witness, shrunk through
the conformance shrinker (:func:`repro.conformance.fuzz.shrink_pair`)
with the leg's own disagreement as the predicate — the same reduction
pipeline fuzz divergences go through.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..analysis import telemetry
from .backends import default_ladder, resolve_backend
from .encode import (
    Encoding,
    UnsupportedDesignError,
    _pair_grid,
    encode_kernel,
    encode_netlist,
    model_encoding,
)

__all__ = ["LegResult", "EquivalenceResult", "prove_equivalence", "sample_operands"]


@dataclasses.dataclass(frozen=True)
class LegResult:
    """Outcome of one leg of the equivalence claim."""

    leg: str  # "model~rtl" | "model~kernel" | "formula~model"
    status: str  # "proved" | "validated" | "refuted" | "unknown" | "skipped"
    backend: str | None = None
    witness: tuple[int, int] | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("proved", "validated")


@dataclasses.dataclass(frozen=True)
class EquivalenceResult:
    """All legs for one design at one bitwidth."""

    design: str
    bitwidth: int
    legs: tuple[LegResult, ...]

    @property
    def refuted(self) -> bool:
        return any(leg.status == "refuted" for leg in self.legs)

    @property
    def proved(self) -> bool:
        """Every non-skipped leg discharged (proved or validated)."""
        checked = [leg for leg in self.legs if leg.status != "skipped"]
        return bool(checked) and all(leg.ok for leg in checked)

    def to_payload(self) -> dict:
        return {
            "design": self.design,
            "bitwidth": self.bitwidth,
            "kind": "equivalence",
            "refuted": self.refuted,
            "proved": self.proved,
            "legs": [dataclasses.asdict(leg) for leg in self.legs],
        }


def sample_operands(
    bitwidth: int, count: int = 4096, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Structured + seeded operand pairs for validation legs.

    Deterministic: corners (0, 1, extremes), power-of-two neighborhoods
    (where the log families switch characteristics), then a seeded
    uniform fill — the high-yield regions the fuzzer's corpus converges
    on, available without running it.
    """
    corners = [0, 1, 2, 3, (1 << bitwidth) - 1, (1 << bitwidth) - 2]
    for k in range(1, bitwidth):
        corners.extend(((1 << k) - 1, 1 << k, (1 << k) + 1))
    corners = np.array(
        [v for v in corners if 0 <= v < (1 << bitwidth)], dtype=np.int64
    )
    pairs_a = [np.repeat(corners, corners.size)]
    pairs_b = [np.tile(corners, corners.size)]
    have = pairs_a[0].size
    if count > have:
        rng = np.random.default_rng(seed)
        fill = count - have
        pairs_a.append(rng.integers(0, 1 << bitwidth, fill, dtype=np.int64))
        pairs_b.append(rng.integers(0, 1 << bitwidth, fill, dtype=np.int64))
    return np.concatenate(pairs_a), np.concatenate(pairs_b)


def _shrink(predicate, witness: tuple[int, int]) -> tuple[int, int]:
    """Reduce a witness through the conformance shrinker."""
    from ..conformance.fuzz import shrink_pair

    return shrink_pair(predicate, *witness)


def _check_leg(
    leg: str, f: Encoding, g: Encoding, backend_name: str | None
) -> LegResult:
    """Run one formula-vs-formula leg through a backend or the ladder."""
    ladder = (
        [resolve_backend(backend_name)]
        if backend_name
        else default_ladder(f.bitwidth)
    )
    reasons = []
    for backend in ladder:
        status, extra = backend.check_equal(f, g)
        if status == "proved":
            return LegResult(leg, "proved", backend.name)
        if status == "refuted":
            witness = _shrink(
                lambda a, b: int(f.eval_pairs(a, b)[0])
                != int(g.eval_pairs(a, b)[0]),
                extra,
            )
            return LegResult(
                leg,
                "refuted",
                backend.name,
                witness,
                f"{f.source} and {g.source} disagree on (a={witness[0]}, "
                f"b={witness[1]})",
            )
        reasons.append(f"{backend.name}: {extra}")
    return LegResult(leg, "unknown", None, None, "; ".join(reasons))


def _validate_by_sampling(
    leg: str,
    reference: Encoding,
    evaluate,
    disagree_predicate,
    samples: int,
    seed: int,
) -> LegResult:
    """Sampled agreement check; refutations still carry shrunk witnesses.

    At enumerable widths the "sample" is the complete pair grid, which
    upgrades the verdict from ``validated`` to ``proved``.
    """
    n = reference.bitwidth
    complete = n <= 8
    if complete:
        a, b = _pair_grid(n)
    else:
        a, b = sample_operands(n, samples, seed)
    want = reference.eval_pairs(a, b)
    got = np.asarray(evaluate(a, b), dtype=np.int64)
    diff = np.nonzero(got != want)[0]
    if diff.size:
        i = int(diff[0])
        witness = _shrink(disagree_predicate, (int(a[i]), int(b[i])))
        return LegResult(
            leg, "refuted", "exhaustive" if complete else "sampling", witness,
            f"disagreement at (a={witness[0]}, b={witness[1]})",
        )
    if complete:
        return LegResult(
            leg, "proved", "exhaustive", None,
            f"complete {a.size}-pair sweep",
        )
    return LegResult(
        leg, "validated", "sampling", None,
        f"{a.size} structured+seeded pairs agree (not a proof)",
    )


def prove_equivalence(
    design: str,
    bitwidth: int | None = None,
    *,
    backend: str | None = None,
    samples: int = 4096,
    seed: int = 0,
) -> EquivalenceResult:
    """Prove (or refute) model ↔ RTL ↔ kernel agreement for a design.

    ``design`` accepts registry ids and ad-hoc REALM specs, exactly like
    ``repro conform``.  ``backend`` pins one backend instead of the
    ladder.  Raises :class:`UnsupportedDesignError` only when even the
    model cannot be encoded; individual legs degrade to ``skipped``.
    """
    from ..conformance.oracles import resolve_design

    design_id, model, rtl_factory, _ = resolve_design(design, bitwidth)
    n = model.bitwidth
    tele = telemetry.get()
    legs: list[LegResult] = []
    with tele.span("formal.prove_equiv", design=design_id, bitwidth=n):
        model_enc = model_encoding(model, design_id)

        # formula ~ model: the encoder's own self-check, against the
        # interpreted datapath (the kernel has a leg of its own below)
        legs.append(
            _validate_by_sampling(
                "formula~model",
                model_enc,
                lambda a, b: model.multiply(a, b, compiled=False),
                lambda a, b: int(model_enc.eval_pairs(a, b)[0])
                != int(model.multiply(a, b, compiled=False)),
                samples,
                seed,
            )
        )

        # model ~ rtl
        if rtl_factory is None:
            legs.append(
                LegResult(
                    "model~rtl", "skipped",
                    detail="no netlist generator for this design",
                )
            )
        else:
            try:
                netlist = rtl_factory()
            except ValueError as exc:
                legs.append(
                    LegResult(
                        "model~rtl", "skipped",
                        detail=f"netlist unbuildable: {exc}",
                    )
                )
            else:
                rtl_enc = encode_netlist(netlist, n, design_id)
                legs.append(_check_leg("model~rtl", model_enc, rtl_enc, backend))

        # model ~ kernel
        try:
            kernel_enc = encode_kernel(model, design_id)
        except UnsupportedDesignError:
            from ..kernels import kernel_for

            kernel = kernel_for(model)
            legs.append(
                _validate_by_sampling(
                    "model~kernel",
                    model_enc,
                    kernel,
                    lambda a, b: int(model_enc.eval_pairs(a, b)[0])
                    != int(kernel(np.asarray([a]), np.asarray([b]))[0]),
                    samples,
                    seed,
                )
            )
        else:
            legs.append(
                _check_leg("model~kernel", model_enc, kernel_enc, backend)
            )

    result = EquivalenceResult(design_id, n, tuple(legs))
    tele.counter("formal.equiv_refuted" if result.refuted else "formal.equiv_ok")
    return result
