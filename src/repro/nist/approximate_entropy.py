"""NIST test 12: The Approximate Entropy Test.

Compares the frequencies of overlapping ``m``-bit and ``(m+1)``-bit patterns;
for a random sequence the approximate entropy ApEn(m) is close to ln 2.  The
paper shares the hardware pattern counters with the serial test (its "unified
implementation" trick) since both tests need the same cyclic 3-/4-bit pattern
counts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nist.common import BitsLike, TestResult, igamc, pattern_counts, phi_from_counts, to_bits

__all__ = ["approximate_entropy_test", "phi_statistic"]


def phi_statistic(bits: BitsLike, m: int) -> float:
    """NIST's φ^(m) = Σ_i (ν_i / n) · ln(ν_i / n) over cyclic m-bit patterns.

    φ^(0) is defined as 0 when m == 0 would make every window identical; the
    NIST spec only ever evaluates φ for m >= 1, plus the convention
    φ^(0) = −ln 2 is not needed here because the test uses m >= 1.
    """
    arr = to_bits(bits)
    n = arr.size
    if m == 0:
        return 0.0
    return phi_from_counts(pattern_counts(arr, m, cyclic=True), n)


def _validate(n: int, m: int) -> None:
    if m < 1:
        raise ValueError("approximate entropy test requires m >= 1")
    if n < m + 2:
        raise ValueError(f"sequence too short (n={n}) for block length m={m}")


def _apen_result(n: int, m: int, counts_m: np.ndarray, counts_m1: np.ndarray) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    phi_m = phi_from_counts(counts_m, n)
    phi_m1 = phi_from_counts(counts_m1, n)
    apen = phi_m - phi_m1
    chi_squared = 2.0 * n * (math.log(2.0) - apen)
    # Numerical guard: for strongly non-random inputs ApEn can marginally
    # exceed ln 2 due to floating point, making chi_squared slightly negative.
    chi_squared = max(chi_squared, 0.0)
    p_value = igamc(2 ** (m - 1), chi_squared / 2.0)
    return TestResult(
        name="Approximate Entropy Test",
        statistic=chi_squared,
        p_value=p_value,
        details={
            "n": n,
            "m": m,
            "phi_m": phi_m,
            "phi_m1": phi_m1,
            "apen": apen,
            "counts_m": counts_m.tolist(),
            "counts_m1": counts_m1.tolist(),
        },
    )


def approximate_entropy_test(bits: BitsLike, m: int = 3) -> TestResult:
    """Run the approximate entropy test with block length ``m``.

    Parameters
    ----------
    bits:
        The bit sequence under test.
    m:
        Block length; the paper uses m = 3 so that the needed 3-bit and 4-bit
        pattern counts coincide with the serial test's counters (Table II).

    Returns
    -------
    TestResult
        ``details`` contains φ^(m), φ^(m+1), ApEn and the χ² statistic.
    """
    arr = to_bits(bits)
    n = arr.size
    _validate(n, m)
    return _apen_result(
        n,
        m,
        pattern_counts(arr, m, cyclic=True),
        pattern_counts(arr, m + 1, cyclic=True),
    )
