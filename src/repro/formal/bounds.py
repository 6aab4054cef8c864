"""Exact worst-case relative-error certificates.

:func:`certify_worst_error` answers, for one design, the question the
Monte-Carlo characterization can only sample: *what is the exact
extreme of the signed relative error ``(P̂ - ab) / ab`` over every
nonzero operand pair?*  Three routes, picked by width and availability:

* **formula sweep** — at narrow widths the encoded formula is evaluated
  over the complete pair grid in chunks (at ``N <= 8`` a gather from its
  product table); each chunk's extreme is picked by exact int64
  cross-multiplication of the error ratios, the first row-major index
  winning exact ties, so the certified error and its canonical
  (lexicographically smallest) witness are bit-identical to brute force
  by construction.  Exact to ``N = 15``; wider sweeps are refused.
* **SMT ascent** — with z3 installed, a witness-guided climb: ask the
  solver for any pair whose error strictly beats the best concrete
  error seen, replace the best with the witness's exact error, repeat;
  the final UNSAT is a machine-checked proof that no pair does better,
  i.e. the best is the global extreme.  Terminates because every
  iteration strictly improves a value drawn from a finite set.
* **interval branch-and-bound** — pure python for wide operands: the
  operand space is split into boxes on which the datapath's interval
  enclosure is sound (log families: fixed characteristic per box makes
  truncated fraction and segment index monotone; product-form
  families: range extrema of the per-operand approximation table), and
  boxes whose enclosure cannot beat the best concrete error are pruned.
  If the queue drains, the result is exact; if the box budget trips
  first, the certificate degrades honestly to a *sound bound* with
  ``exact=False``.

Every certificate is **replayed**: the witness pair is pushed through
the concrete model and the recomputed error must match (equal for exact
certificates, within the bound otherwise).  A failed replay marks the
certificate refuted — that is the formal layer catching its own encoder
drift, and the CLI turns it into exit code 2.
"""

from __future__ import annotations

import dataclasses
import heapq

from collections.abc import Callable
from fractions import Fraction

import numpy as np

from ..analysis import telemetry
from ..core.bitops import floor_log2, log_fraction, shift_value, truncate_fraction
from ..core.factors import segment_index
from ..core.realm import RealmMultiplier
from ..multipliers import (
    AccurateMultiplier,
    DrumMultiplier,
    EssmMultiplier,
    MbmMultiplier,
    MitchellMultiplier,
    SsmMultiplier,
)
from ..multipliers.base import datapath_family
from .backends import import_z3
from .encode import Encoding, UnsupportedDesignError, model_encoding

__all__ = [
    "ErrorCertificate",
    "WorstCaseBounds",
    "certify_worst_error",
]

@dataclasses.dataclass(frozen=True)
class ErrorCertificate:
    """One certified error extreme: bound, witness, and its provenance.

    ``error_num / error_den`` is the certified bound (the exact extreme
    when ``exact``, a sound outer bound otherwise); the witness
    ``(a, b)`` achieves ``witness_num / witness_den``, which equals the
    bound exactly when ``exact``.  ``replayed`` records that the
    concrete model reproduced the witness error on replay.
    """

    direction: str  # "min" | "max"
    a: int
    b: int
    error_num: int
    error_den: int
    witness_num: int
    witness_den: int
    exact: bool
    replayed: bool

    @property
    def error(self) -> float:
        return self.error_num / self.error_den

    @property
    def error_percent(self) -> float:
        return 100.0 * self.error_num / self.error_den

    def as_fraction(self) -> Fraction:
        return Fraction(self.error_num, self.error_den)

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class WorstCaseBounds:
    """Both certified peaks for one design at one bitwidth."""

    design: str
    bitwidth: int
    method: str  # "formula-sweep" | "smt-ascent" | "interval-bb"
    peak_min: ErrorCertificate
    peak_max: ErrorCertificate

    @property
    def exact(self) -> bool:
        return self.peak_min.exact and self.peak_max.exact

    @property
    def replayed(self) -> bool:
        return self.peak_min.replayed and self.peak_max.replayed

    def peak_certified(self) -> tuple[float, float]:
        """The ``ErrorMetrics.peak_certified`` payload, in percent."""
        return (self.peak_min.error_percent, self.peak_max.error_percent)

    def to_payload(self) -> dict:
        return {
            "design": self.design,
            "bitwidth": self.bitwidth,
            "kind": "worst-case-error",
            "method": self.method,
            "exact": self.exact,
            "replayed": self.replayed,
            "peak_min": self.peak_min.to_payload(),
            "peak_max": self.peak_max.to_payload(),
        }


def _replay(model, a: int, b: int, claimed: Fraction) -> bool:
    """Self-check: the interpreted model must reproduce the witness error."""
    product = int(model.multiply(a, b, compiled=False))
    return a > 0 and b > 0 and Fraction(product - a * b, a * b) == claimed


def _certificate(
    model, direction: str, a: int, b: int, bound: Fraction, exact: bool
) -> ErrorCertificate:
    witness = Fraction(int(model.multiply(a, b, compiled=False)) - a * b, a * b)
    if exact:
        bound = witness if bound is None else bound
    return ErrorCertificate(
        direction=direction,
        a=a,
        b=b,
        error_num=bound.numerator,
        error_den=bound.denominator,
        witness_num=witness.numerator,
        witness_den=witness.denominator,
        exact=exact,
        replayed=_replay(model, a, b, witness)
        and (not exact or bound == witness),
    )


# ----------------------------------------------------------------------
# route 1: exhaustive formula sweep (exact, narrow widths)
# ----------------------------------------------------------------------

#: widest sweep whose errors compare exactly in int64: ``|num| < 2**(2N+1)``
#: and ``den < 2**(2N)`` keep cross-product differences below ``2**(4N+2)``
SWEEP_EXACT_MAX_BITWIDTH = 15


def _extreme_index(num: np.ndarray, den: np.ndarray, largest: bool) -> int:
    """Index of the first exact extreme of ``num / den`` (``den > 0``).

    Ratios are compared by int64 cross-multiplication, never by their
    float64 quotients, which stop telling ratios apart once denominators
    pass ``2**26``; the float argmax only seeds the search.  Exact while
    the cross-products and their differences fit in int64 (callers gate
    on width).
    """
    sign = 1 if largest else -1
    best = int(np.argmax(sign * (num / den)))
    while True:
        # > 0 where num/den beats num[best]/den[best], 0 on exact ties
        gain = sign * (num * den[best] - num[best] * den)
        ahead = np.flatnonzero(gain > 0)
        if not ahead.size:
            return int(np.flatnonzero(gain == 0)[0])
        best = int(ahead[0])


def _sweep(encoding: Encoding, chunk_rows: int = 64):
    """Exact extremes of the encoded formula over the full pair grid.

    Returns ``(min, max)``, each ``(error, a, b)``.  Witnesses are
    canonical: the lexicographically smallest ``(a, b)`` among exact
    ties, i.e. the first hit of a row-major brute-force scan.
    """
    n = encoding.bitwidth
    if n > SWEEP_EXACT_MAX_BITWIDTH:
        raise UnsupportedDesignError(
            f"exact sweep compares int64 cross-products, which overflow "
            f"past N = {SWEEP_EXACT_MAX_BITWIDTH}; got {n}"
        )
    space = np.arange(1, np.int64(1) << n, dtype=np.int64)  # 0 has no error
    picks = ([], [])  # per chunk, (num, den, a, b) of its min and of its max
    for start in range(0, space.size, chunk_rows):
        a_block = space[start : start + chunk_rows]
        a = np.repeat(a_block, space.size)
        b = np.tile(space, a_block.size)
        den = a * b
        num = encoding.eval_pairs(a, b) - den
        for largest, chosen in zip((False, True), picks):
            i = _extreme_index(num, den, largest)
            chosen.append((num[i], den[i], a[i], b[i]))
    extremes = []
    for largest, chosen in zip((False, True), picks):
        # chunks run in row order, so the first tied chunk keeps the witness
        num, den, a, b = np.array(chosen, dtype=np.int64).T
        i = _extreme_index(num, den, largest)
        extremes.append((Fraction(int(num[i]), int(den[i])), int(a[i]), int(b[i])))
    return tuple(extremes)


# ----------------------------------------------------------------------
# route 2: SMT witness-guided ascent (exact, needs z3)
# ----------------------------------------------------------------------

def _smt_ascent(model, encoding: Encoding, direction: str, timeout_ms: int | None):
    """Climb to the exact extreme with z3; final UNSAT is the proof."""
    z3 = import_z3()
    assert z3 is not None
    from .backends import _to_z3

    variables: dict[str, object] = {}
    bits = _to_z3(z3, encoding, variables)
    n = encoding.bitwidth

    def bus_int(prefix: str):
        return z3.Sum(
            [
                z3.If(variables[f"{prefix}[{i}]"], 1 << i, 0)
                for i in range(n)
                if f"{prefix}[{i}]" in variables
            ]
        )

    a_int, b_int = bus_int("a"), bus_int("b")
    p_int = z3.Sum([z3.If(bit, 1 << i, 0) for i, bit in enumerate(bits)])
    product = a_int * b_int

    # seed with structured concrete samples so the climb starts close
    from .equiv import sample_operands

    sa, sb = sample_operands(n, 2048, seed=0)
    valid = (sa > 0) & (sb > 0)
    sa, sb = sa[valid], sb[valid]
    approx = encoding.eval_pairs(sa, sb)
    err_f = (approx - sa * sb) / (sa * sb)
    i = int(np.argmax(err_f) if direction == "max" else np.argmin(err_f))
    best_pair = (int(sa[i]), int(sb[i]))
    best = Fraction(int(approx[i]) - best_pair[0] * best_pair[1],
                    best_pair[0] * best_pair[1])

    while True:
        solver = z3.Solver()
        if timeout_ms is not None:
            solver.set("timeout", timeout_ms)
        solver.add(a_int > 0, b_int > 0)
        # strict improvement over the incumbent: (P - ab) / ab > best
        gap = (p_int - product) * best.denominator
        threshold = product * best.numerator
        solver.add(gap > threshold if direction == "max" else gap < threshold)
        status = solver.check()
        if status == z3.unsat:
            return best, best_pair, True
        if status != z3.sat:
            return best, best_pair, False  # timeout: best is only a lower bound
        m = solver.model()
        a_val = b_val = 0
        for label, var in variables.items():
            if bool(m.eval(var, model_completion=True)):
                prefix, _, index = label.rpartition("[")
                if prefix == "a":
                    a_val |= 1 << int(index[:-1])
                elif prefix == "b":
                    b_val |= 1 << int(index[:-1])
        approx_val = int(encoding.eval_pairs(a_val, b_val)[0])
        best = Fraction(approx_val - a_val * b_val, a_val * b_val)
        best_pair = (a_val, b_val)


# ----------------------------------------------------------------------
# route 3: interval branch-and-bound (pure python, wide operands)
# ----------------------------------------------------------------------

class _LogBoxEngine:
    """Interval enclosures for the REALM/MBM/cALM datapath skeleton.

    Boxes live inside a fixed characteristic pair ``(ka, kb)``, where
    the truncated fraction ``u = xt(v)`` and segment index are monotone
    in the operand value.  The enclosure exploits the shape of

        err + 1  =  (base_c + s + u_a + u_b) * 2^E
                    / ((2^raw + x_a) (2^raw + x_b))

    per carry branch: with the LUT term pinned to its extreme over the
    segment rectangle and each denominator bounded by the truncation
    bucket of ``u``, the expression is a two-variable fractional form
    whose per-axis derivative has constant sign — so its extreme over a
    box is attained at one of the four ``(u_a, u_b)`` corners.  That
    makes the enclosure *exact* on the corners for cALM (no truncation,
    no LUT) and tight to the bucket/LUT granularity for REALM/MBM,
    which is what lets boxes along the zero-error power-of-two edges
    prune instead of splintering into singletons.

    ``codes`` is the ``(M, M)`` correction LUT on the ``2**-q`` grid
    (1x1 for MBM); ``forced`` says the truncation ORs a 1 into the kept
    LSB, which cALM's untruncated fraction does not.
    """

    def __init__(self, bitwidth: int, t: int, q: int, codes, forced: bool):
        raw = bitwidth - 1
        v = np.arange(np.int64(1) << bitwidth, dtype=np.int64)
        safe = np.where(v > 0, v, 1)
        self.k = floor_log2(safe)
        x = log_fraction(safe, self.k, bitwidth)
        self.raw = raw
        self.t = t
        self.forced = forced
        self.width = raw - t
        self.xt = truncate_fraction(x, t, raw) if forced else x
        self.seg = segment_index(x, raw, codes.shape[0])
        self.s_full = shift_value(codes, self.width - q)
        self.s_half = shift_value(codes, self.width - q - 1)

    def initial_boxes(self, bitwidth: int):
        for ka in range(bitwidth):
            for kb in range(bitwidth):
                yield (
                    1 << ka,
                    min((1 << (ka + 1)) - 1, (1 << bitwidth) - 1),
                    1 << kb,
                    min((1 << (kb + 1)) - 1, (1 << bitwidth) - 1),
                )

    def _bucket(self, u: int) -> tuple[int, int]:
        """The raw-fraction interval consistent with truncated value ``u``."""
        if not self.forced:
            return u, u
        lo = max((u - 1) << self.t, 0)
        hi = min(((u + 1) << self.t) - 1, (1 << self.raw) - 1)
        return lo, hi

    def enclosure(self, a_lo, a_hi, b_lo, b_hi) -> tuple[Fraction, Fraction]:
        """Sound bounds on the relative error over the box."""
        width, raw = self.width, self.raw
        one = 1 << width
        big = 1 << raw
        ka, kb = int(self.k[a_lo]), int(self.k[b_lo])
        ua = (int(self.xt[a_lo]), int(self.xt[a_hi]))
        ub = (int(self.xt[b_lo]), int(self.xt[b_hi]))
        sa_lo, sa_hi = int(self.seg[a_lo]), int(self.seg[a_hi])
        sb_lo, sb_hi = int(self.seg[b_lo]), int(self.seg[b_hi])
        err_hi = err_lo = None
        for carry in (0, 1):
            if carry == 0 and ua[0] + ub[0] > one - 1:
                continue  # every fraction sum in the box carries out
            if carry == 1 and ua[1] + ub[1] < one:
                continue  # no fraction sum in the box can carry out
            lut = (self.s_half if carry else self.s_full)[
                sa_lo : sa_hi + 1, sb_lo : sb_hi + 1
            ]
            s_min, s_max = int(lut.min()), int(lut.max())
            base = 0 if carry else one
            exponent = 2 * raw + carry - width  # always >= 0
            corner_hi = corner_lo = None
            for corner_a in ua:
                da_min = big + self._bucket(corner_a)[0]
                da_max = big + self._bucket(corner_a)[1]
                for corner_b in ub:
                    db_min = big + self._bucket(corner_b)[0]
                    db_max = big + self._bucket(corner_b)[1]
                    shared = corner_a + corner_b + base
                    hi = Fraction((shared + s_max) << exponent, da_min * db_min)
                    lo = Fraction((shared + s_min) << exponent, da_max * db_max)
                    corner_hi = hi if corner_hi is None else max(corner_hi, hi)
                    corner_lo = lo if corner_lo is None else min(corner_lo, lo)
            # the corner bound ignores the carry band; a decoupled bound
            # that clamps the fraction sum to the band is also sound, and
            # tighter on boxes straddling the carry boundary — keep the
            # intersection of the two
            fs_hi = min(ua[1] + ub[1], one - 1 + (carry << width))
            fs_lo = max(ua[0] + ub[0], carry << width)
            band_hi = Fraction(
                (base + fs_hi + s_max) << exponent,
                (big + self._bucket(ua[0])[0]) * (big + self._bucket(ub[0])[0]),
            )
            band_lo = Fraction(
                (base + fs_lo + s_min) << exponent,
                (big + self._bucket(ua[1])[1]) * (big + self._bucket(ub[1])[1]),
            )
            hi = min(corner_hi, band_hi)
            lo = max(corner_lo, band_lo)
            err_hi = hi if err_hi is None else max(err_hi, hi)
            err_lo = lo if err_lo is None else min(err_lo, lo)
        assert err_hi is not None, "no feasible carry branch in a nonempty box"
        err_hi = err_hi - 1
        err_lo = err_lo - 1
        if ka + kb < width:
            # final right shift floors; it can lose at most 1 ulp of product
            err_lo -= Fraction(1, a_lo * b_lo)
        return err_lo, err_hi


def _product_form_extremes(model):
    """Exact extremes for ``approx(a) * approx(b)`` designs, closed form.

    The error factors per operand: ``err + 1 = r(a) * r(b)`` with
    ``r(v) = approx(v) / v > 0``, so the extremes over the full pair
    grid are exactly ``max(r)^2 - 1`` and ``min(r)^2 - 1``, attained at
    the (smallest) per-operand ratio extremizers — no search needed at
    any bitwidth.  ``approx`` is the model's own ``_approximate``.
    """
    n = model.bitwidth
    v = np.arange(1, np.int64(1) << n, dtype=np.int64)
    approx = model._approximate(v)
    extremes = []
    for largest in (False, True):
        # approx * v < 2**63 at every supported width: exact in int64
        i = _extreme_index(approx, v, largest)  # ties keep the smallest v
        ratio = Fraction(int(approx[i]), int(v[i]))
        extremes.append((ratio * ratio - 1, int(v[i]), int(v[i])))
    return tuple(extremes)


def _ratio_route(model, box_budget: int):
    """Product forms: closed-form extremes, exact at any width."""
    lo, hi = _product_form_extremes(model)
    return "ratio-exact", (*lo, True), (*hi, True)


def _box_route(engine_for):
    """Branch-and-bound over the boxes of ``engine_for(model)``'s engine."""

    def route(model, box_budget: int):
        engine = engine_for(model)
        hi, pair_hi, exact_hi, _ = _branch_and_bound(model, engine, "max", box_budget)
        lo, pair_lo, exact_lo, _ = _branch_and_bound(model, engine, "min", box_budget)
        return "interval-bb", (lo, *pair_lo, exact_lo), (hi, *pair_hi, exact_hi)

    return route


def _corrected_log_engine(model) -> _LogBoxEngine:
    if model.overflow == "saturate":
        raise UnsupportedDesignError(
            "interval engine models the extend overflow mode only"
        )
    return _LogBoxEngine(
        model.bitwidth, model.t, model.q, model.lut_codes, forced=True
    )


def _mitchell_engine(model) -> _LogBoxEngine:
    codes = np.zeros((1, 1), dtype=np.int64)
    return _LogBoxEngine(model.bitwidth, 0, 0, codes, forced=False)


#: family class -> interval route ``(model, box_budget) -> (method, min,
#: max)``, each extreme ``(error, a, b, exact)``; keyed on
#: :func:`~repro.multipliers.base.datapath_family`
_INTERVAL_ROUTES: dict[type, Callable] = {
    RealmMultiplier: _box_route(_corrected_log_engine),
    MbmMultiplier: _box_route(_corrected_log_engine),
    MitchellMultiplier: _box_route(_mitchell_engine),
    AccurateMultiplier: _ratio_route,
    DrumMultiplier: _ratio_route,
    SsmMultiplier: _ratio_route,
    EssmMultiplier: _ratio_route,
}


def _branch_and_bound(model, engine, direction: str, budget: int):
    """Prune-and-split search for one error extreme.

    Exact iff the queue drains within the budget: every discarded box
    was proven (in exact rational arithmetic) unable to beat the best
    concrete witness.  On budget exhaustion the sound outer bound is
    the extreme over the surviving boxes' enclosures.
    """
    sign = 1 if direction == "max" else -1

    def box_bound(box) -> Fraction:
        lo, hi = engine.enclosure(*box)
        return hi if sign > 0 else -lo

    best: Fraction | None = None
    best_pair = None

    def observe(a_vals, b_vals):
        nonlocal best, best_pair
        a_vals = np.asarray(a_vals, dtype=np.int64)
        b_vals = np.asarray(b_vals, dtype=np.int64)
        products = model.multiply(a_vals, b_vals, compiled=False)
        for a, b, p in zip(a_vals, b_vals, products):
            value = sign * Fraction(int(p) - int(a) * int(b), int(a) * int(b))
            if best is None or value > best:
                best, best_pair = value, (int(a), int(b))

    heap: list = []
    counter = 0
    def observe_corners(box):
        a_lo, a_hi, b_lo, b_hi = box
        mid_a, mid_b = (a_lo + a_hi) // 2, (b_lo + b_hi) // 2
        observe(
            [a_lo, a_lo, a_hi, a_hi, mid_a],
            [b_lo, b_hi, b_lo, b_hi, mid_b],
        )

    # seed the incumbent from the structured sample so pruning starts
    # against a near-extreme witness instead of discovering one box by box
    from .equiv import sample_operands

    seed_a, seed_b = sample_operands(model.bitwidth, 4096, seed=0)
    valid = (seed_a > 0) & (seed_b > 0)
    observe(seed_a[valid], seed_b[valid])

    for box in engine.initial_boxes(model.bitwidth):
        bound = box_bound(box)
        heap.append((-float(bound), counter, bound, box))
        counter += 1
        observe_corners(box)
    heapq.heapify(heap)

    processed = 0
    while heap and processed < budget:
        processed += 1
        _, _, bound, box = heapq.heappop(heap)
        if best is not None and bound <= best:
            continue  # exact comparison: the box cannot improve the best
        a_lo, a_hi, b_lo, b_hi = box
        if a_lo == a_hi and b_lo == b_hi:
            observe([a_lo], [b_lo])
            continue
        if a_hi - a_lo >= b_hi - b_lo:
            mid = (a_lo + a_hi) // 2
            children = ((a_lo, mid, b_lo, b_hi), (mid + 1, a_hi, b_lo, b_hi))
        else:
            mid = (b_lo + b_hi) // 2
            children = ((a_lo, a_hi, b_lo, mid), (a_lo, a_hi, mid + 1, b_hi))
        for child in children:
            child_bound = box_bound(child)
            if best is not None and child_bound <= best:
                continue
            observe_corners(child)
            heapq.heappush(heap, (-float(child_bound), counter, child_bound, child))
            counter += 1

    exact = not heap
    bound = best
    for _, _, child_bound, _ in heap:
        if child_bound > bound:
            bound = child_bound
    return sign * bound, best_pair, exact, processed


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def certify_worst_error(
    design: str,
    bitwidth: int | None = None,
    *,
    method: str | None = None,
    sweep_max_bitwidth: int = 11,
    box_budget: int = 50_000,
    smt_timeout_ms: int | None = None,
) -> WorstCaseBounds:
    """Certify both peaks of the signed relative error for a design.

    ``method`` pins a route (``"sweep"``/``"smt"``/``"interval"``);
    by default narrow designs sweep exhaustively, wider ones use z3
    when installed and the interval engine otherwise.  Raises
    :class:`UnsupportedDesignError` when no route applies.
    """
    from ..conformance.oracles import resolve_design

    design_id, model, _, _ = resolve_design(design, bitwidth)
    n = model.bitwidth
    if method is None:
        if n <= sweep_max_bitwidth:
            method = "sweep"
        elif import_z3() is not None:
            method = "smt"
        else:
            method = "interval"

    tele = telemetry.get()
    with tele.span(
        "formal.solve", design=design_id, bitwidth=n, query="max-error",
        method=method,
    ):
        if method == "sweep":
            if n > sweep_max_bitwidth:
                raise UnsupportedDesignError(
                    f"exhaustive sweep gated to N <= {sweep_max_bitwidth}, "
                    f"got {n}; use method='smt' or 'interval'"
                )
            encoding = model_encoding(model, design_id)
            (lo, a_lo, b_lo), (hi, a_hi, b_hi) = _sweep(encoding)
            peak_min = _certificate(model, "min", a_lo, b_lo, lo, True)
            peak_max = _certificate(model, "max", a_hi, b_hi, hi, True)
            return WorstCaseBounds(design_id, n, "formula-sweep", peak_min, peak_max)

        if method == "smt":
            if import_z3() is None:
                raise UnsupportedDesignError(
                    "method 'smt' requires z3, which is not installed"
                )
            encoding = model_encoding(model, design_id)
            lo, pair_lo, exact_lo = _smt_ascent(model, encoding, "min", smt_timeout_ms)
            hi, pair_hi, exact_hi = _smt_ascent(model, encoding, "max", smt_timeout_ms)
            peak_min = _certificate(model, "min", *pair_lo, lo, exact_lo)
            peak_max = _certificate(model, "max", *pair_hi, hi, exact_hi)
            return WorstCaseBounds(design_id, n, "smt-ascent", peak_min, peak_max)

        if method == "interval":
            route = _INTERVAL_ROUTES.get(datapath_family(model))
            if route is None:
                raise UnsupportedDesignError(
                    f"no interval enclosure for family {model.family!r}; "
                    f"install z3 or use a width the exhaustive sweep covers"
                )
            kind, (lo, a_lo, b_lo, exact_lo), (hi, a_hi, b_hi, exact_hi) = route(
                model, box_budget
            )
            peak_min = _certificate(model, "min", a_lo, b_lo, lo, exact_lo)
            peak_max = _certificate(model, "max", a_hi, b_hi, hi, exact_hi)
            return WorstCaseBounds(design_id, n, kind, peak_min, peak_max)

    raise ValueError(f"unknown method {method!r}; use sweep, smt or interval")
