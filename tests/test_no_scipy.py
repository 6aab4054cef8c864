"""The package runs without SciPy: NumPy is its only run-time dependency.

SciPy stays a test dependency (``tests/test_factors.py`` keeps
``dblquad`` as the oracle of the factor quadrature), and pytest imports
``scipy.integrate`` itself to resolve the ``IntegrationWarning`` filter
in ``pyproject.toml``.  So the check runs in a fresh interpreter whose
first import finder refuses every ``scipy`` module.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.multipliers import registry

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

PROBE = """
import importlib.abc
import sys

sys.path.insert(0, {src!r})


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())


def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


import repro
import repro.cli
from repro.core.factors import compute_factors_mse
from repro.extensions.divider import compute_divider_factors
from repro.multipliers import registry

assert not loaded(), loaded()
built = 0
for name in registry.names():
    for bitwidth in (8, 16):
        try:
            registry.build(name, bitwidth)
        except ValueError:
            continue
        built += 1
compute_factors_mse(16)
compute_divider_factors(8)
assert repro.cli.main(["divide", "50000", "37", "--m", "8"]) == 0
assert not loaded(), loaded()
print("built", built)
"""


def test_package_runs_without_scipy():
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "REPRO_WAREHOUSE_DIR", "REPRO_TELEMETRY_DIR")
    }
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=SRC)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "REALM-div8: 50000 / 37 = " in done.stdout
    assert int(done.stdout.split()[-1]) == _buildable()


def _buildable() -> int:
    """Registry ids buildable at 8 and 16 bits, counted in this process."""
    count = 0
    for name in registry.names():
        for bitwidth in (8, 16):
            try:
                registry.build(name, bitwidth)
            except ValueError:
                continue
            count += 1
    return count
