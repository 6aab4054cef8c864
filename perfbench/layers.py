"""Per-layer attribution for the traced benchmark run.

A :class:`Tracer` wraps the public entry points of the program's layers
from outside ``src/``.  Each wrapper is installed on every module or
class attribute that a caller resolves (``repro.jpeg.codec.forward_dct``
as well as ``repro.jpeg.dct.forward_dct``), so calls made through names
imported with ``from x import y`` are timed too.  A wrapped call's *self
time* is its duration minus the time of the wrapped calls made inside
it, so self times of different layers never double count, and their sum
over a run is the share of the run the attribution explains
(``trace.coverage``).

Timings are kept in memory per phase (``"setup"`` or ``"run"``) and are
turned into the benchmark's per-layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

#: per-layer metric names and units, in ``BENCHMARK.json`` order
PER_LAYER = (
    ("analysis.sample_s", "s"),
    ("analysis.blocks", "count"),
    ("analysis.accumulate_s", "s"),
    ("analysis.finalize_s", "s"),
    ("multipliers.multiply_s", "s"),
    ("multipliers.multiply_calls", "count"),
    ("multipliers.elems", "count"),
    ("multipliers.ns_per_elem", "ns"),
    ("multipliers.validate_s", "s"),
    ("multipliers.fallback_s", "s"),
    ("multipliers.build_s", "s"),
    ("multipliers.fingerprint_s", "s"),
    ("kernels.compile_s", "s"),
    ("kernels.compiles", "count"),
    ("kernels.lookups", "count"),
    ("kernels.shadow_s", "s"),
    ("kernels.shadow_ratio", "ratio"),
    ("kernels.netlist_eval_s", "s"),
    ("jpeg.image_s", "s"),
    ("jpeg.dct_s", "s"),
    ("jpeg.quant_s", "s"),
    ("jpeg.psnr_s", "s"),
    ("jpeg.entropy_encode_s", "s"),
    ("jpeg.entropy_decode_s", "s"),
    ("jpeg.bits", "count"),
    ("nn.logits_s", "s"),
    ("nn.logits_calls", "count"),
    ("nn.train_s", "s"),
    ("synth.reductions_s", "s"),
    ("synth.designs", "count"),
    ("warehouse.open_s", "s"),
    ("warehouse.lookup_s", "s"),
    ("warehouse.lookups", "count"),
    ("warehouse.hit_ratio", "ratio"),
    ("warehouse.record_s", "s"),
    ("warehouse.records", "count"),
    ("warehouse.model_evals", "count"),
    ("conformance.oracle_setup_s", "s"),
    ("conformance.fuzz_s", "s"),
    ("conformance.eval_s", "s"),
    ("conformance.pairs", "count"),
    ("conformance.generate_s", "s"),
    ("conformance.coverage_s", "s"),
    ("conformance.shrink_s", "s"),
    ("formal.encode_s", "s"),
    ("formal.eval_s", "s"),
    ("formal.prove_s", "s"),
    ("formal.certify_s", "s"),
    ("formal.unsupported", "count"),
    ("serve.roundtrip_s", "s"),
    ("serve.requests", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: one-time work: these metrics read the traced set-up, not the runs
SETUP_LAYERS = frozenset({"kernels.compile", "nn.train", "synth.reductions"})
SETUP_COUNTS = frozenset({"kernels.compiles", "synth.designs"})

#: time the tracer adds itself; excluded from the overhead comparison
SHADOW_LAYERS = ("kernels.shadow", "trace.shadow_bookkeeping")

#: copies of multiply self time, kept for ratios; not attributed twice
DERIVED_LAYERS = ("kernels.shadowed_multiply", "multipliers.fallback")


class Phase:
    """Self seconds per layer and event counts of one phase."""

    def __init__(self) -> None:
        self.seconds: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()


class Tracer:
    """Times layer entry points; see the module docstring.

    With ``shadow=True`` every default-path ``Multiplier.multiply`` is
    re-run through the design's compiled kernel; :attr:`shadow_checks`
    counts the comparisons and :attr:`shadow_mismatches` the batches that
    were not bit-identical.
    """

    def __init__(self, *, shadow: bool = False):
        self.shadow = shadow
        self.phases = {"setup": Phase(), "run": Phase()}
        self.phase = "setup"
        self.shadow_checks = 0
        self.shadow_mismatches = 0
        self._paused = False
        self._stack: list[float] = []
        self._installed: list[tuple[object, str, object, bool]] = []
        self._thread = threading.get_ident()

    @property
    def current(self) -> Phase:
        return self.phases[self.phase]

    def _close(self, layer: str, elapsed: float) -> float:
        """Pop the innermost frame; returns its self time."""
        own = elapsed - self._stack.pop()
        self.current.seconds[layer] += own
        if self._stack:
            self._stack[-1] += elapsed
        return own

    def timed(self, layer: str, original, *, calls=None, after=None, errors=()):
        """Wrap ``original`` so its self time lands in ``layer``.

        ``calls`` names a counter bumped once per call; ``after(args,
        result)`` returns extra ``{counter: increment}``; exceptions of the
        ``errors`` types are counted as ``<layer>.errors`` and re-raised.
        """
        tracer = self

        if inspect.iscoroutinefunction(original):
            # one request in flight at a time: the synchronous wrapped calls
            # other tasks make while it awaits nest inside its frame

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                tracer._stack.append(0.0)
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(layer, time.perf_counter() - start)
                    if calls:
                        tracer.current.counts[calls] += 1

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused or threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except errors:
                tracer.current.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer._close(layer, time.perf_counter() - start)
                if calls:
                    tracer.current.counts[calls] += 1
            if after is not None:
                tracer.current.counts.update(after(args, result))
            return result

        return wrapper

    def _multiply_wrapper(self, original, as_operands, kernel_for, kernel_count):
        """``Multiplier.multiply`` with element counts, interpreted-fallback
        time and the compiled-kernel shadow."""
        tracer = self

        @functools.wraps(original)
        def multiply(model, a, b, *, compiled=None):
            if threading.get_ident() != tracer._thread:
                return original(model, a, b, compiled=compiled)
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(model, a, b, compiled=compiled)
            finally:
                own = tracer._close("multipliers.multiply", time.perf_counter() - start)
            counts = tracer.current.counts
            counts["multipliers.multiply_calls"] += 1
            counts["multipliers.elems"] += int(np.size(result))
            if tracer.shadow and compiled is None:
                tracer._shadow(
                    model, a, b, result, own, as_operands, kernel_for, kernel_count
                )
            return result

        return multiply

    def _shadow(self, model, a, b, result, own, as_operands, kernel_for, kernel_count):
        """Re-run one product batch on the compiled kernel and compare.

        The wrappers pause meanwhile, so the lookup's fingerprinting is
        not charged to the program; a lookup that compiled is charged to
        ``kernels.compile``, the kernel evaluation to ``kernels.shadow`` and
        the rest to the tracer's own bookkeeping.
        """
        self._stack.append(0.0)
        self._paused = True
        start = time.perf_counter()
        try:
            cached = kernel_count()
            kernel = kernel_for(model)
            compile_seconds = time.perf_counter() - start if kernel_count() > cached else 0.0
            x, y = as_operands(a, b, model.bitwidth)
            tick = time.perf_counter()
            if x.ndim == 0:
                shadow = kernel(x.reshape(1), y.reshape(1))[0]
            else:
                shadow = kernel(x, y)
            evaluation = time.perf_counter() - tick
        finally:
            self._paused = False
            self._close("trace.shadow_bookkeeping", time.perf_counter() - start)
        seconds = self.current.seconds
        seconds["trace.shadow_bookkeeping"] -= evaluation + compile_seconds
        seconds["kernels.shadow"] += evaluation
        seconds["kernels.shadowed_multiply"] += own
        if compile_seconds:
            seconds["kernels.compile"] += compile_seconds
            self.current.counts["kernels.compiles"] += 1
        if kernel.kind == "interpreted":
            seconds["multipliers.fallback"] += own
        self.shadow_checks += 1
        if not np.array_equal(shadow, result):
            self.shadow_mismatches += 1

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every ``repro`` module attribute bound to ``original`` at
        ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, attr, original, True))
                    setattr(module, attr, wrapper)

    def _replace_method(self, owner, attr, wrap) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Install every wrapper; imports the wrapped layers first."""

        def module(name):
            # by module path: package attributes such as ``repro.jpeg.psnr``
            # name the function, not the submodule
            return importlib.import_module(f"repro.{name}")

        module("experiments")  # binds the names it imports before the scan
        parallel, metrics = module("analysis.parallel"), module("analysis.metrics")
        cache = module("analysis.cache")
        coverage, fuzz = module("conformance.coverage"), module("conformance.fuzz")
        oracles = module("conformance.oracles")
        bounds, encode = module("formal.bounds"), module("formal.encode")
        equiv = module("formal.equiv")
        dct, huffman = module("jpeg.dct"), module("jpeg.huffman")
        images, psnr, quant = module("jpeg.images"), module("jpeg.psnr"), module("jpeg.quant")
        compiler, netlist = module("kernels.compiler"), module("kernels.netlist")
        base, registry = module("multipliers.base"), module("multipliers.registry")
        cnn, evaluate = module("nn.cnn"), module("nn.evaluate")
        client, cost = module("serve.client"), module("synth.cost")
        store = module("warehouse.store")

        as_operands, kernel_for = base.as_operands, compiler.kernel_for
        unsupported = dict(errors=(encode.UnsupportedDesignError,))
        functions = [
            (parallel.draw_uniform_block, "analysis.sample",
             dict(calls="analysis.blocks")),
            (metrics.accumulate_chunk, "analysis.accumulate", {}),
            (base.as_operands, "multipliers.validate", {}),
            (registry.build, "multipliers.build", {}),
            # content addressing: a design's fingerprint and its hash
            (registry.fingerprint, "multipliers.fingerprint", {}),
            (cache.cache_key, "multipliers.fingerprint", {}),
            (compiler.compile_kernel, "kernels.compile", dict(calls="kernels.compiles")),
            (compiler.kernel_for, "kernels.lookup", dict(calls="kernels.lookups")),
            (images.test_image, "jpeg.image", {}),
            (dct.forward_dct, "jpeg.dct", {}),
            (dct.inverse_dct, "jpeg.dct", {}),
            (quant.quantize, "jpeg.quant", {}),
            (quant.dequantize, "jpeg.quant", {}),
            (psnr.psnr, "jpeg.psnr", {}),
            (huffman.encode_blocks, "jpeg.entropy_encode",
             dict(after=lambda args, data: {"jpeg.bits": 8 * len(data)})),
            (huffman.decode_blocks, "jpeg.entropy_decode", {}),
            (evaluate.trained_cnn_setup, "nn.train", {}),
            (evaluate.float_cnn_accuracy, "nn.logits", {}),
            (cost.reductions, "synth.reductions", dict(calls="synth.designs")),
            (store.open_warehouse, "warehouse.open", {}),
            # serializing result rows for ``record_run`` happens before the call
            (store.metrics_fields, "warehouse.record", {}),
            (fuzz.fuzz, "conformance.fuzz", {}),
            (fuzz.generate_batch, "conformance.generate", {}),
            (fuzz.shrink_pair, "conformance.shrink", {}),
            (encode.encode_model, "formal.encode", {}),
            (equiv.prove_equivalence, "formal.prove", unsupported),
            (bounds.certify_worst_error, "formal.certify", unsupported),
        ]
        for original, layer, options in functions:
            self._replace(original, self.timed(layer, original, **options))

        def method(layer, **options):
            return lambda original: self.timed(layer, original, **options)

        methods = [
            (metrics.Accumulator, "finalize", method("analysis.finalize")),
            (netlist.NetlistKernel, "evaluate_words", method("kernels.netlist_eval")),
            (encode.Encoding, "eval_pairs", method("formal.eval")),
            (cnn.FixedPointCnn, "logits", method("nn.logits", calls="nn.logits_calls")),
            (store.Warehouse, "latest", method(
                "warehouse.lookup", calls="warehouse.lookups",
                after=lambda args, row: {"warehouse.hits": int(row is not None)},
            )),
            (store.Warehouse, "latest_metrics", method("warehouse.lookup")),
            (store.Warehouse, "record_run",
             method("warehouse.record", calls="warehouse.records")),
            (oracles.DifferentialOracle, "__init__", method("conformance.oracle_setup")),
            (oracles.DifferentialOracle, "evaluate", method(
                "conformance.eval",
                after=lambda args, out: {"conformance.pairs": int(np.size(args[1]))},
            )),
            (coverage.CoverageMap, "update", method("conformance.coverage")),
            (coverage.CoverageMap, "newly_covered", method("conformance.coverage")),
            (client.InProcessClient, "multiply",
             method("serve.roundtrip", calls="serve.requests")),
            (base.Multiplier, "multiply",
             lambda original: self._multiply_wrapper(
                 original, as_operands, kernel_for, compiler.cached_kernel_count
             )),
        ]
        for owner, attr, wrap in methods:
            self._replace_method(owner, attr, wrap)

    def uninstall(self) -> None:
        """Restore every original attribute, newest first."""
        while self._installed:
            owner, attr, original, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    tracer: Tracer, runs: int, traced_wall: float, run_s: float, *, replay: bool
) -> dict:
    """The per-layer metrics of a traced run, as ``{name: value}``.

    Run-phase values are per run (totals over the ``runs`` traced runs
    divided by ``runs``); set-up layers read the one traced set-up.
    ``traced_wall`` is the summed wall time of the traced runs, ``run_s``
    the untraced median run time; ``replay`` marks the workload whose
    multiplies count as ``warehouse.model_evals``.
    """
    run, setup = tracer.phases["run"], tracer.phases["setup"]
    values = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            layer = name[: -len("_s")]
            phase, per = (setup, 1) if layer in SETUP_LAYERS else (run, runs)
            values[name] = phase.seconds[layer] / per
        elif unit == "count":
            phase, per = (setup, 1) if name in SETUP_COUNTS else (run, runs)
            values[name] = phase.counts[name] / per
    values["multipliers.ns_per_elem"] = 1e9 * _ratio(
        run.seconds["multipliers.multiply"], run.counts["multipliers.elems"]
    )
    values["kernels.shadow_ratio"] = _ratio(
        run.seconds["kernels.shadow"], run.seconds["kernels.shadowed_multiply"]
    )
    values["warehouse.hit_ratio"] = _ratio(
        run.counts["warehouse.hits"], run.counts["warehouse.lookups"]
    )
    values["warehouse.model_evals"] = (
        values["multipliers.multiply_calls"] if replay else 0.0
    )
    values["formal.unsupported"] = (
        run.counts["formal.prove.errors"] + run.counts["formal.certify.errors"]
    ) / runs
    attributed = sum(
        seconds for layer, seconds in run.seconds.items() if layer not in DERIVED_LAYERS
    )
    shadow_wall = sum(run.seconds[layer] for layer in SHADOW_LAYERS)
    values["trace.coverage"] = _ratio(attributed, traced_wall)
    values["trace.overhead"] = _ratio((traced_wall - shadow_wall) / runs, run_s) - 1.0
    return {name: values[name] for name, _ in PER_LAYER}
