"""The optional compiled kernel core: correctness + overflow contract.

Skipped wholesale when the extension has not been built — the
pure-python wheel must pass the suite without it (`python -m
repro.core._native_build` builds it in place).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.native import NATIVE, native_available

pytestmark = pytest.mark.skipif(not native_available(),
                                reason="compiled core not built")


def test_split_count_scaled_matches_python():
    rng = np.random.default_rng(0)
    for _ in range(200):
        loads = [int(rng.integers(1, 10 ** 6))
                 for _ in range(int(rng.integers(1, 20)))]
        num = int(rng.integers(1, 10 ** 6))
        den = int(rng.integers(1, 10 ** 4))
        expected = sum(-((-P * den) // num) for P in loads)
        assert NATIVE.split_count_scaled(loads, num, den) == expected


def test_split_count_scaled_negative_loads():
    # scaled binary-search terms can be <= 0; floor semantics must match
    loads = [-7, 0, 7]
    num, den = 3, 2
    expected = sum(-((-P * den) // num) for P in loads)
    assert NATIVE.split_count_scaled(loads, num, den) == expected


def test_split_count_scaled_overflow_raises():
    with pytest.raises(OverflowError):
        NATIVE.split_count_scaled([2 ** 70], 3, 2)
    with pytest.raises(OverflowError):
        # product overflows even though inputs fit int64
        NATIVE.split_count_scaled([2 ** 62], 3, 2 ** 10)


def test_env_gate_disables_native():
    import os
    import subprocess
    import sys
    code = (
        "from repro.core.native import native_available\n"
        "assert not native_available()\n"
    )
    env = dict(os.environ, REPRO_DISABLE_NATIVE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, ["src", os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   cwd=os.path.dirname(os.path.dirname(
                       os.path.abspath(__file__))))


def test_borders_golden_with_native():
    # the compiled split_count must be invisible: identical to the
    # pure-Fraction reference across a random sweep
    from repro.approx.borders import (smallest_feasible_border,
                                      split_count)
    from repro.core.fastmath import use_fast_paths
    rng = np.random.default_rng(2)
    for _ in range(60):
        loads = [int(rng.integers(1, 500))
                 for _ in range(int(rng.integers(8, 24)))]
        T = Fraction(int(rng.integers(1, 300)), int(rng.integers(1, 7)))
        m = int(rng.integers(1, 30))
        budget = m * int(rng.integers(1, 4))
        fast_count = split_count(loads, T)
        fast_border = smallest_feasible_border(loads, m, budget)
        with use_fast_paths(False):
            assert split_count(loads, T) == fast_count
            assert smallest_feasible_border(loads, m, budget) == fast_border
