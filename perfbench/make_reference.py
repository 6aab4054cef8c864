"""Regenerate the benchmark's committed references.

    python3 perfbench/make_reference.py [workload ...]

Writes ``reference/<workload>.json`` with every item's outputs at the
default and the hold-out seed, and ``reference/golden.json`` with every
design's products on fixed operands.  Table I, Table II and the CNN study
are written only when their run on the compiled kernels agrees bit for bit.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from repro.multipliers import registry  # noqa: E402

#: golden operands: these corners crossed with each other, then random pairs
CORNERS = (0, 1, 2, 3, 255, 256, 32767, 32768, 65534, 65535)


def golden() -> dict:
    rng = np.random.default_rng(0)
    a = np.concatenate([np.repeat(CORNERS, len(CORNERS)), rng.integers(0, 1 << 16, 64)])
    b = np.concatenate([np.tile(CORNERS, len(CORNERS)), rng.integers(0, 1 << 16, 64)])
    products = {
        name: registry.build(name).multiply(a, b).tolist()
        for name in registry.REGISTRY
        if workloads.buildable(name, 16)
    }
    return {"a": a.tolist(), "b": b.tolist(), "products": products}


def outputs(name: str, seed: int) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    try:
        workloads.cold_caches()
        workload.setup()
        if name == "replay":
            return workloads.normalized(workload.filled)
        results = workloads.normalized(workload.run().results)
        if name in ("table1", "jpeg", "cnn"):
            with workloads.compiled_kernels():
                if workloads.normalized(workload.run().results) != results:
                    sys.exit(f"{name} at seed {seed}: the compiled kernels disagree")
        return results
    finally:
        workload.close()


def main(names) -> None:
    for variable in run.HERMETIC:
        os.environ.pop(variable, None)
    workloads.REFERENCE.mkdir(exist_ok=True)
    (workloads.REFERENCE / "golden.json").write_text(json.dumps(golden()) + "\n")
    for name in names or workloads.WORKLOADS:
        reference = {
            str(seed): outputs(name, seed)
            for seed in (workloads.DEFAULT_SEED, workloads.HOLDOUT_SEED)
        }
        path = workloads.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main(sys.argv[1:])
