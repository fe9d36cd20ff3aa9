"""Shared rule of the golden gates: what decides a float's last bits.

A golden file records the numeric stack it was captured on.  Its exact
``==`` comparison runs only where :func:`numeric_stack` matches that record;
:func:`assert_close` (``rel 1e-9``, the tolerance of ``perfbench``'s
references) runs everywhere.
"""

from __future__ import annotations

import math
import platform
from typing import Dict

import numpy as np
import scipy


def numeric_stack() -> Dict[str, object]:
    """What decides the last bits of the floats: library builds and CPU kernels."""
    stack: Dict[str, object] = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    try:
        config = np.show_config(mode="dicts")
        stack["blas"] = config["Build Dependencies"]["blas"].get("version")
        stack["simd"] = sorted(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        pass
    return stack


def assert_close(actual, expected, where="") -> None:
    """Structural equality with floats compared to ``rel 1e-9``."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12), (
            where,
            actual,
            expected,
        )
    else:
        assert actual == expected, (where, actual, expected)
