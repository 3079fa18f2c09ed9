"""NIST test 11: The Serial Test.

Checks the uniformity of overlapping ``m``-bit patterns across the sequence
via the ψ² statistics of three consecutive pattern lengths.  The paper's
hardware block provides the raw pattern counts ν (for m, m−1 and m−2 bits);
the software computes ψ², the differences ∇ψ² and ∇²ψ² and compares them
with critical values.
"""

from __future__ import annotations

import numpy as np

from repro.nist.common import (
    BitsLike,
    TestResult,
    igamc,
    pattern_counts,
    psi_squared_from_counts,
    to_bits,
)

__all__ = ["serial_test"]


def _validate(n: int, m: int) -> None:
    if m < 2:
        raise ValueError("serial test requires m >= 2")
    if n < (1 << m):
        raise ValueError(f"sequence too short (n={n}) for pattern length m={m}")


def _serial_result(
    n: int, m: int, counts_m: np.ndarray, counts_m1: np.ndarray, counts_m2: np.ndarray
) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry.

    ``counts_m2`` are the cyclic ``(m-2)``-bit pattern counts; for ``m == 2``
    that is the single count ``[n]`` and ψ²_0 is 0 by definition.
    """
    psi_m = psi_squared_from_counts(counts_m, n)
    psi_m1 = psi_squared_from_counts(counts_m1, n)
    psi_m2 = psi_squared_from_counts(counts_m2, n) if m > 2 else 0.0
    # Numerical guard, as for the approximate-entropy χ²: a difference that
    # is zero in exact arithmetic can round a few ulps below zero (∇²ψ² =
    # -1.4e-14 on an ordinary 120-bit sequence), which igamc rejects.
    del1 = max(psi_m - psi_m1, 0.0)
    del2 = max(psi_m - 2.0 * psi_m1 + psi_m2, 0.0)
    p_value1 = igamc(2 ** (m - 2), del1 / 2.0)
    p_value2 = igamc(2 ** (m - 3), del2 / 2.0)
    return TestResult(
        name="Serial Test",
        statistic=del1,
        p_value=p_value1,
        p_values=[p_value1, p_value2],
        details={
            "n": n,
            "m": m,
            "psi_m": psi_m,
            "psi_m1": psi_m1,
            "psi_m2": psi_m2,
            "del1": del1,
            "del2": del2,
            "counts_m": counts_m.tolist(),
            "counts_m1": counts_m1.tolist(),
            "counts_m2": counts_m2.tolist(),
        },
    )


def serial_test(bits: BitsLike, m: int = 4) -> TestResult:
    """Run the serial test with pattern length ``m``.

    Parameters
    ----------
    bits:
        The bit sequence under test.
    m:
        Pattern length; the paper uses m = 4 (so the hardware maintains the
        16 four-bit, 8 three-bit and 4 two-bit cyclic pattern counters listed
        in Table II).  NIST requires ``m < floor(log2 n) - 2``.

    Returns
    -------
    TestResult
        Two P-values (for ∇ψ²_m and ∇²ψ²_m); ``details`` contains the pattern
        counts and all ψ² values.
    """
    arr = to_bits(bits)
    n = arr.size
    _validate(n, m)
    return _serial_result(
        n,
        m,
        pattern_counts(arr, m, cyclic=True),
        pattern_counts(arr, m - 1, cyclic=True),
        pattern_counts(arr, m - 2, cyclic=True),
    )
