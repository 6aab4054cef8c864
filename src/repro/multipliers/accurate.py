"""Accurate reference multiplier.

This is the paper's baseline: an exact unsigned integer multiplier
(implemented in hardware as a Wallace tree; see
:mod:`repro.circuits.wallace` for the structural model used for the
area/power reference of Table I).
"""

from __future__ import annotations

import numpy as np

from .base import Multiplier

__all__ = ["AccurateMultiplier"]


class AccurateMultiplier(Multiplier):
    """Exact ``N x N -> 2N`` unsigned multiplication."""

    family = "Accurate"

    def _approximate(self, v: np.ndarray) -> np.ndarray:
        """Every operand as it is: the product form with no error."""
        return v

    def _multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b
