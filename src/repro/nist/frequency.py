"""NIST test 1: The Frequency (Monobit) Test.

Checks whether the proportion of ones in the sequence is close to 1/2, as
expected for a truly random sequence.  This is the most basic test; NIST
recommends running it first since all subsequent tests presume it passes.
"""

from __future__ import annotations

import math

from repro.nist.common import BitsLike, TestResult, erfc, to_bits

__all__ = ["frequency_test"]


def _frequency_result(n: int, ones: int) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    partial_sum = 2 * ones - n
    s_obs = abs(partial_sum) / math.sqrt(n)
    p_value = erfc(s_obs / math.sqrt(2.0))
    return TestResult(
        name="Frequency (Monobit) Test",
        statistic=s_obs,
        p_value=p_value,
        details={
            "n": n,
            "ones": ones,
            "zeros": n - ones,
            "partial_sum": partial_sum,
        },
    )


def frequency_test(bits: BitsLike) -> TestResult:
    """Run the frequency (monobit) test.

    The partial sum ``S_n`` of the ±1-mapped sequence is normalised to
    ``s_obs = |S_n| / sqrt(n)`` and the P-value is ``erfc(s_obs / sqrt(2))``.

    Parameters
    ----------
    bits:
        The bit sequence under test.  NIST recommends ``n >= 100``; shorter
        sequences are accepted (the hardware designs of the paper use
        ``n = 128``) but the approximation degrades.

    Returns
    -------
    TestResult
        ``details`` contains ``n``, ``ones``, ``zeros`` and ``partial_sum``.
    """
    arr = to_bits(bits)
    n = arr.size
    if n == 0:
        raise ValueError("frequency test requires a non-empty sequence")
    return _frequency_result(n, int(arr.sum()))
