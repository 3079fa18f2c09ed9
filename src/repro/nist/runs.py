"""NIST test 3: The Runs Test.

Counts the total number of runs (maximal blocks of identical consecutive
bits) and checks whether that count is consistent with a random sequence,
given the observed proportion of ones.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nist.common import BitsLike, TestResult, erfc, to_bits

__all__ = ["runs_test", "count_runs"]


def _runs_result(n: int, ones: int, v_obs: int) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    pi = ones / n
    tau = 2.0 / math.sqrt(n)
    pretest_passed = abs(pi - 0.5) < tau
    if not pretest_passed:
        p_value = 0.0
        statistic = float("inf")
    else:
        numerator = abs(v_obs - 2.0 * n * pi * (1.0 - pi))
        denominator = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
        statistic = numerator / denominator if denominator > 0 else float("inf")
        p_value = erfc(statistic) if math.isfinite(statistic) else 0.0
    return TestResult(
        name="Runs Test",
        statistic=statistic,
        p_value=p_value,
        details={
            "n": n,
            "ones": ones,
            "runs": v_obs,
            "proportion": pi,
            "pretest_passed": pretest_passed,
            "tau": tau,
        },
    )


def count_runs(bits: BitsLike) -> int:
    """Total number of runs in the sequence (V_n(obs) in the NIST spec)."""
    arr = to_bits(bits)
    if arr.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(arr.astype(np.int8)))) + 1


def runs_test(bits: BitsLike) -> TestResult:
    """Run the runs test.

    The test is only meaningful when the frequency test passes; following the
    NIST spec, if the proportion of ones deviates from 1/2 by at least
    ``2/sqrt(n)`` the P-value is reported as 0.0 (the sequence fails without
    evaluating the runs statistic).

    Returns
    -------
    TestResult
        ``details`` contains ``ones``, ``runs`` and the pre-test proportion
        check outcome.
    """
    arr = to_bits(bits)
    n = arr.size
    if n == 0:
        raise ValueError("runs test requires a non-empty sequence")
    return _runs_result(n, int(arr.sum()), count_runs(arr))
