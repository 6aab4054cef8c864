"""The benchmark's five workloads.

Each workload makes its inputs from the benchmark seed, does its one-time
work in :meth:`Workload.setup` and one unit of timed work in
:meth:`Workload.run`.  A run returns its outputs per item, each item's
wall-time spans and the amount of work it did, so ``run.py`` takes
correctness, latency and throughput from the same runs.  Workloads whose
items are long lap the workload's :class:`clock.Clock` between items, so
a change in the host's speed within a run is tracked.

The program is called through module attributes (``conformance.fuzz``,
never a name imported into this file), so the traced run's wrappers see
the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

import clock
from repro import conformance, experiments, formal, kernels, nn, paper
from repro.analysis import designspace
from repro.jpeg import codec, images
from repro.multipliers import base, registry
from repro.synth import cost

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
#: scratch space inside the checkout, ignored by git and removed on close
SCRATCH = HERE.parent / ".perfbench_tmp"

#: the committed references cover the default seed and one hold-out seed
DEFAULT_SEED = 2020
HOLDOUT_SEED = 7

#: the first registry id of every multiplier family
FAMILY_IDS = (
    "accurate", "realm16-t0", "calm", "implm-ea", "mbm-t0", "alm-maa-m3",
    "alm-soa-m3", "intalp-l2", "am1-nb13", "am2-nb13", "drum-k8", "ssm-m10",
    "essm8", "scaletrim-t3-c2", "dnnco-l4",
)
TABLE1_FIELDS = ("bias", "mean_error", "peak_min", "peak_max", "variance", "peak_certified")
CNN_FIELDS = (
    "accuracy", "accuracy_drop", "logit_distortion", "area_reduction",
    "power_reduction", "float_reference", "pareto",
)


@dataclasses.dataclass
class Run:
    """One timed run: outputs per item, the ``(start, end)`` wall-time
    spans of each item, work done."""

    results: dict
    items: list
    work: float


class Probe:
    """Times and counts every call of ``owner.attr`` until :meth:`close`.

    ``key(args)`` groups calls into one item; without it each call is its
    own item.  ``lap()`` is called after each call.  Workloads install
    probes before any tracer wrapper, so the traced wrappers nest inside
    them.
    """

    def __init__(self, owner, attr, key=None, lap=None):
        self.owner, self.attr = owner, attr
        self.original = original = vars(owner)[attr]
        self.spans: dict = {}
        self.calls: dict = {}

        @functools.wraps(original)
        def probe(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                item = key(args) if key else len(self.spans)
                self.spans.setdefault(item, []).append((start, time.perf_counter()))
                self.calls[item] = self.calls.get(item, 0) + 1
                if lap is not None:
                    lap()

        setattr(owner, attr, probe)

    def take(self) -> list[list]:
        """Item spans since the last take; resets the calls too."""
        spans = list(self.spans.values())
        self.spans, self.calls = {}, {}
        return spans

    def close(self) -> None:
        setattr(self.owner, self.attr, self.original)


def load_reference(workload: str) -> dict:
    """Committed outputs per seed (``{"2020": {...}}``), or ``{}``."""
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def normalized(results: dict) -> dict:
    """``results`` as the JSON references store them."""
    return json.loads(json.dumps(results))


@contextlib.contextmanager
def compiled_kernels():
    """Route default-path multiplies through the compiled kernels."""
    os.environ["REPRO_COMPILED"] = "1"
    try:
        yield
    finally:
        del os.environ["REPRO_COMPILED"]


def cold_caches() -> None:
    """Empty the caches the program fills on first use (``functools``
    caches and compiled kernels), so a set-up pays its one-time work."""
    cleared = set()
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for value in list(vars(module).values()):
            while not hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if hasattr(value, "cache_clear") and id(value) not in cleared:
                cleared.add(id(value))
                value.cache_clear()
    kernels.clear_kernel_cache()


def buildable(name: str, bitwidth: int) -> bool:
    try:
        registry.build(name, bitwidth)
    except ValueError:
        return False
    return True


def golden_mismatches(names) -> int:
    """Designs whose products on the committed golden operands changed."""
    golden = json.loads((REFERENCE / "golden.json").read_text())
    a, b = np.array(golden["a"]), np.array(golden["b"])
    return sum(
        registry.build(name).multiply(a, b).tolist() != golden["products"][name]
        for name in names
    )


class Workload:
    """One benchmark workload; see the module docstring."""

    name = ""
    #: what one item is, the unit of work and the name of its throughput
    item = unit = throughput = ""
    #: the traced run re-runs multiplies on the compiled kernels
    shadow = False
    #: traced runs; fixed, so per-layer counts repeat exactly
    trace_runs = 1

    def __init__(self, seed: int, *, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.clock = clock.Clock()
        #: off in traced runs, whose wall time the tracer must explain
        self.lapping = True

    def lap(self) -> None:
        """An item boundary: let the clock calibrate."""
        if self.lapping:
            self.clock.lap()

    def setup(self) -> None:
        """One-time work: builds, compiles, training, fills and a warm-up."""

    def before_run(self) -> None:
        """Untimed preparation of the next run."""

    def run(self) -> Run:
        raise NotImplementedError

    def designs(self) -> list[str]:
        """Registry ids whose golden products are checked."""
        raise NotImplementedError

    def reference(self) -> dict | None:
        """The committed outputs of this seed; tiny sizes have none."""
        return None if self.tiny else load_reference(self.name).get(str(self.seed))

    def expected(self) -> dict:
        """The per-item outputs every run must return."""
        reference = self.reference()
        if reference is not None:
            return reference
        # no reference for this seed: the same computation on the compiled
        # kernels, which conformance holds bit-identical to the models
        with compiled_kernels():
            return normalized(self.run().results)

    def mismatches(self, results: dict, expected: dict) -> int:
        """Items of one run that differ from ``expected``."""
        return sum(
            results.get(item) != expected.get(item)
            for item in set(results) | set(expected)
        )

    def close(self) -> None:
        """Undo what the workload installed or wrote."""


class Table1(Workload):
    """Table I: every design characterized on uniform 16-bit operands."""

    name, item, unit, throughput = "table1", "design", "pairs", "mc_pairs_per_s"
    shadow = True
    trace_runs = 2

    def __init__(self, seed: int, *, tiny: bool = False):
        super().__init__(seed, tiny=tiny)
        self.ids = registry.TABLE1_IDS[:3] if tiny else registry.TABLE1_IDS
        self.samples = 1 << 10 if tiny else 1 << 17

    def setup(self) -> None:
        # builds every design (the factor quadrature) and warms the engine
        experiments.table1_errors(1 << 10, self.ids, self.seed)

    def run(self) -> Run:
        spans = []

        def progress(event):
            if event["event"] == "design":
                end = time.perf_counter()
                spans.append([(end - event["seconds"], end)])
                self.lap()

        rows = experiments.table1_errors(
            self.samples, self.ids, self.seed, progress=progress
        )
        results = {row["name"]: [row[field] for field in TABLE1_FIELDS] for row in rows}
        return Run(results, spans, self.samples * len(self.ids))

    def designs(self) -> list[str]:
        return list(self.ids)


class Jpeg(Workload):
    """Table II: the three test images through the Table II multipliers.

    Table II has no smaller form, so ``tiny`` runs it whole.
    """

    name, item, unit, throughput = "jpeg", "image x multiplier roundtrip", "px", "jpeg_pixels_per_s"
    shadow = True
    QUALITY = 50

    def __init__(self, seed: int, *, tiny: bool = False):
        super().__init__(seed)
        self.roundtrips = Probe(codec, "roundtrip_psnr", lap=self.lap)
        self.pixels = 0

    def setup(self) -> None:
        # builds the designs and warms the codec on one row of blocks
        strip = images.test_image(paper.TABLE2_IMAGES[0], seed=self.seed)[:8]
        for name in paper.TABLE2_MULTIPLIERS:
            codec.roundtrip_psnr(registry.build(name), strip, self.QUALITY)
        pixels = sum(
            images.test_image(image, seed=self.seed).size for image in paper.TABLE2_IMAGES
        )
        self.pixels = pixels * len(paper.TABLE2_MULTIPLIERS)

    def run(self) -> Run:
        self.roundtrips.take()
        rows = experiments.table2_jpeg(self.QUALITY, self.seed)
        results = {
            f"{row['image']}/{name}": [row[name], row[f"{name}_bpp"]]
            for row in rows
            for name in paper.TABLE2_MULTIPLIERS
        }
        return Run(results, self.roundtrips.take(), self.pixels)

    def designs(self) -> list[str]:
        return list(paper.TABLE2_MULTIPLIERS)

    def close(self) -> None:
        self.roundtrips.close()


class Cnn(Workload):
    """The CNN accuracy-vs-area study over one design per family."""

    name, item, unit, throughput = "cnn", "design", "img", "cnn_images_per_s"
    shadow = True

    def __init__(self, seed: int, *, tiny: bool = False):
        super().__init__(seed, tiny=tiny)
        self.ids = ("accurate", "drum-k8") if tiny else FAMILY_IDS
        self.logits = Probe(
            nn.FixedPointCnn, "logits", key=lambda args: args[0].multiplier.name,
            lap=self.lap,
        )
        self.images = 0

    def setup(self) -> None:
        # training, the synthesis cost rows and a small forward pass per design
        data, params = nn.trained_cnn_setup(self.seed)
        for name in self.ids:
            cost.reductions(name)
            nn.FixedPointCnn(params, registry.build(name)).logits(data.test_x[:2])
        self.images = len(data.test_y) * len(self.ids)

    def run(self) -> Run:
        self.logits.take()
        rows = experiments.cnn_study(self.ids, self.seed, warehouse=False)
        results = {row["name"]: [row[field] for field in CNN_FIELDS] for row in rows}
        return Run(results, self.logits.take(), self.images)

    def designs(self) -> list[str]:
        return list(self.ids)

    def close(self) -> None:
        self.logits.close()


class Conform(Workload):
    """A conformance slice: one design per family fuzzed on every layer,
    then proved equivalent and certified at 8 bits."""

    # the two halves of a design's check are two commands for a user
    # (``repro conform``, ``repro formal``), so each is an item; designs
    # that do not build at 8 bits have no formal item
    name, unit, throughput = "conform", "designs", "conform_designs_per_s"
    item = "a design's fuzz campaign, or its 8-bit proof and certificate"
    FORMAL_BITS = 8

    def __init__(self, seed: int, *, tiny: bool = False):
        super().__init__(seed, tiny=tiny)
        self.ids = ("calm", "drum-k8") if tiny else FAMILY_IDS
        self.budget = 1 << 13 if tiny else 1 << 17
        self.formal_ids = [name for name in self.ids if buildable(name, self.FORMAL_BITS)]

    def setup(self) -> None:
        for name in self.ids:
            registry.build(name)
        # one small batch through every layer, in-process serve included
        pairs = np.arange(1, 33, dtype=np.int64)
        conformance.DifferentialOracle(self.ids[0]).evaluate(pairs, pairs[::-1].copy())

    def run(self) -> Run:
        results, spans = {}, []
        for name in self.ids:
            start = time.perf_counter()
            campaign = conformance.fuzz(name, self.budget, self.seed)
            spans.append([(start, time.perf_counter())])
            self.lap()
            start = time.perf_counter()
            results[name] = {
                "divergences": int(campaign.total_divergences),
                "full_cover": bool(campaign.full_cover),
                "pairs": int(campaign.pairs),
                "rounds": int(campaign.rounds),
                **self._formal(name),
            }
            if name in self.formal_ids:
                spans.append([(start, time.perf_counter())])
            self.lap()
        return Run(results, spans, len(self.ids))

    def _formal(self, name: str) -> dict:
        if name not in self.formal_ids:
            return {"prove": "unbuildable", "certify": "unbuildable"}
        try:
            proof = formal.prove_equivalence(name, self.FORMAL_BITS)
            prove = {leg.leg: leg.status for leg in proof.legs}
        except formal.UnsupportedDesignError:
            prove = "unsupported"
        try:
            bounds = formal.certify_worst_error(name, self.FORMAL_BITS)
            certify = "exact" if bounds.exact and bounds.replayed else "inexact"
        except formal.UnsupportedDesignError:
            certify = "unsupported"
        return {"prove": prove, "certify": certify}

    def designs(self) -> list[str]:
        return list(self.ids)

    def expected(self) -> dict:
        """Zero divergences and full coverage at any seed, the formal
        verdicts (which do not depend on the seed), and the pairs and
        rounds of the seed's committed reference when there is one."""
        verdicts = load_reference(self.name)[str(DEFAULT_SEED)]
        seeded = self.reference() or {}
        expected = {}
        for name in self.ids:
            want = {
                "divergences": 0,
                "full_cover": True,
                "prove": verdicts[name]["prove"],
                "certify": verdicts[name]["certify"],
            }
            if name in seeded:
                want.update(pairs=seeded[name]["pairs"], rounds=seeded[name]["rounds"])
            expected[name] = want
        return expected

    def mismatches(self, results: dict, expected: dict) -> int:
        return sum(
            any(results.get(name, {}).get(key) != value for key, value in want.items())
            for name, want in expected.items()
        )


class Replay(Workload):
    """Table I, the Fig. 4 sweep and the CNN study re-rendered from a
    warehouse filled during set-up.

    ``fill=False`` starts every run from an empty store instead, which
    the check must reject: the rows are then computed, not served.
    """

    name, item, unit, throughput = "replay", "table re-render", "rows", "replay_rows_per_s"
    trace_runs = 3
    SAMPLES = 1 << 12
    TABLES = ("table1", "fig4", "cnn")

    def __init__(self, seed: int, *, tiny: bool = False, fill: bool = True):
        super().__init__(seed, tiny=tiny)
        self.fill = fill
        self.renders = 1 if tiny else 4
        self.table1_ids = registry.TABLE1_IDS[:4] if tiny else registry.TABLE1_IDS
        self.cnn_ids = ("accurate", "realm16-t0") if tiny else (
            "accurate", "realm16-t0", "drum-k8", "ssm-m10"
        )
        self.evals = Probe(base.Multiplier, "multiply", key=lambda args: args[0].name)
        self.reference_design = registry.build("accurate").name
        self.directory = None
        self.filled = None

    def setup(self) -> None:
        self._remove_store()
        SCRATCH.mkdir(exist_ok=True)
        self.directory = pathlib.Path(tempfile.mkdtemp(prefix="replay-", dir=SCRATCH))
        if self.fill:
            self.filled = {table: self._render(table)["rows"] for table in self.TABLES}
            shutil.copyfile(self.directory / "warehouse.db", self.directory / "filled.db")

    def before_run(self) -> None:
        # every run starts from the set-up's store, so the database size
        # does not drift from run to run
        store = self.directory / "warehouse.db"
        if self.fill:
            shutil.copyfile(self.directory / "filled.db", store)
        else:
            store.unlink(missing_ok=True)

    def _render(self, table: str) -> dict:
        self.evals.take()
        if table == "table1":
            rows = experiments.table1_errors(
                self.SAMPLES, self.table1_ids, self.seed, warehouse=self.directory
            )
            served = {row["name"]: [row[field] for field in TABLE1_FIELDS] for row in rows}
        elif table == "fig4":
            points = designspace.sweep(
                self.table1_ids, samples=self.SAMPLES, seed=self.seed,
                source="paper", warehouse=self.directory,
            )
            served = {
                point.name: [point.area_reduction, point.power_reduction,
                             point.mean_error, point.peak_error]
                for point in points
            }
        else:
            rows = experiments.cnn_study(self.cnn_ids, self.seed, warehouse=self.directory)
            served = {row["name"]: [row[field] for field in CNN_FIELDS] for row in rows}
        # cnn_study recomputes the accurate reference logits even when every
        # row is reused; any other multiply is a row computed, not served
        evaluations = sum(
            calls for design, calls in self.evals.calls.items()
            if design != self.reference_design
        )
        return {"rows": served, "model_evals": evaluations}

    def run(self) -> Run:
        results, spans, rows = {}, [], 0
        for index in range(self.renders):
            for table in self.TABLES:
                start = time.perf_counter()
                rendered = self._render(table)
                spans.append([(start, time.perf_counter())])
                results[f"{table}#{index}"] = rendered
                rows += len(rendered["rows"])
        return Run(results, spans, rows)

    def designs(self) -> list[str]:
        return list(self.table1_ids) + list(self.cnn_ids)

    def expected(self) -> dict:
        """Every re-render serves the committed rows of this seed (else
        the rows the fill computed) without evaluating a model."""
        rows = self.reference() or normalized(self.filled or {})
        return {
            f"{table}#{index}": {"rows": rows.get(table), "model_evals": 0}
            for index in range(self.renders)
            for table in self.TABLES
        }

    def _remove_store(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def close(self) -> None:
        self.evals.close()
        self._remove_store()
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


WORKLOADS = {
    workload.name: workload for workload in (Table1, Jpeg, Cnn, Conform, Replay)
}
