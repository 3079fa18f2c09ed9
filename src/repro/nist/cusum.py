"""NIST test 13: The Cumulative Sums (Cusum) Test.

Tracks the random walk defined by the ±1-mapped sequence and checks whether
its maximal excursion from zero is too large (or too small) for a random
sequence.  The test is run in two modes: forward (mode 0) and backward
(mode 1, the sequence reversed).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _special

from repro.nist.common import BitsLike, TestResult, to_bits

__all__ = [
    "cumulative_sums_test",
    "cusum_p_value",
    "largest_accepted_excursion",
    "random_walk_extremes",
]


def random_walk_extremes(bits: BitsLike) -> tuple[int, int, int]:
    """Return ``(S_max, S_min, S_final)`` of the ±1 random walk.

    These are exactly the three values the paper's hardware block provides to
    the software for the cumulative-sums test (Table II).
    """
    arr = to_bits(bits)
    walk = np.cumsum(2 * arr.astype(np.int64) - 1)
    if walk.size == 0:
        return 0, 0, 0
    return int(walk.max()), int(walk.min()), int(walk[-1])


def cusum_p_value(z: int, n: int) -> float:
    """P-value of the cusum test given the maximal excursion ``z``.

    Implements the double sum of equation (2.13.1)/(2.13.2) of NIST
    SP 800-22 using the standard normal CDF.  The summation bounds follow the
    NIST reference implementation's convention (integer division truncated
    towards zero) so that the published worked examples are reproduced to
    the last printed digit; for realistic sequence lengths the choice of
    truncation is numerically irrelevant.
    """
    if n <= 0:
        raise ValueError("sequence length n must be positive")
    if z <= 0:
        # A zero excursion can only happen for the degenerate n = 0 case; for
        # any non-empty sequence the first step already gives |S_1| = 1.
        return 0.0
    # The Φ evaluations dominate the software verdict cost at fleet scale
    # (healthy walks make the k ranges O(n / z) ≈ O(sqrt(n)) terms long), so
    # they run vectorised; the accumulation stays a sequential loop in the
    # original term order so every P-value is bit-identical to the scalar
    # reference implementation, last digit included.
    sqrt_n = math.sqrt(n)
    total = 1.0
    start = int((-n / z + 1) / 4)
    stop = int((n / z - 1) / 4)
    k = np.arange(start, stop + 1, dtype=np.int64)
    for term in _normal_cdf_values((4 * k + 1) * z / sqrt_n) - _normal_cdf_values(
        (4 * k - 1) * z / sqrt_n
    ):
        total -= float(term)
    start = int((-n / z - 3) / 4)
    k = np.arange(start, stop + 1, dtype=np.int64)
    for term in _normal_cdf_values((4 * k + 3) * z / sqrt_n) - _normal_cdf_values(
        (4 * k + 1) * z / sqrt_n
    ):
        total += float(term)
    return min(max(total, 0.0), 1.0)


@lru_cache(maxsize=64)
def largest_accepted_excursion(n: int, alpha: float) -> int:
    """Largest integer excursion z whose P-value is still >= ``alpha``.

    The P-value is the survival probability of the maximal excursion, so it
    falls with z; the acceptance boundary is found by bisection over
    [1, n] with :func:`cusum_p_value` itself.
    """
    low, high = 1, n
    if cusum_p_value(high, n) >= alpha:
        return high
    while low < high:
        mid = (low + high + 1) // 2
        if cusum_p_value(mid, n) >= alpha:
            low = mid
        else:
            high = mid - 1
    return low


def _normal_cdf_values(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF Φ, elementwise — the same ``0.5·erfc(-x/√2)``
    doubles :func:`repro.nist.common.normal_cdf` produces one at a time."""
    return 0.5 * _special.erfc(-x / math.sqrt(2.0))


def cumulative_sums_test(bits: BitsLike, mode: int = 0) -> TestResult:
    """Run the cumulative-sums test.

    Parameters
    ----------
    bits:
        The bit sequence under test.
    mode:
        0 for the forward walk, 1 for the backward walk (sequence reversed).

    Returns
    -------
    TestResult
        ``details`` contains the walk extremes ``s_max``/``s_min``/``s_final``
        of the *forward* walk (the hardware-provided values) together with
        the excursion ``z`` used for the reported mode.
    """
    arr = to_bits(bits)
    n = arr.size
    if n == 0:
        raise ValueError("cumulative sums test requires a non-empty sequence")
    if mode not in (0, 1):
        raise ValueError("mode must be 0 (forward) or 1 (backward)")
    return _cusum_result(n, mode, *random_walk_extremes(arr))


def _cusum_result(n: int, mode: int, s_max: int, s_min: int, s_final: int) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    if mode == 0:
        z = max(abs(s_max), abs(s_min))
    else:
        # Backward excursion from the forward-walk summary values: the
        # reversed walk's partial sums are S_final - S_j for j = 0..n-1, and
        # S_0 = 0 is among them, so its maximal absolute excursion is
        # max(S_final - min(S_min, 0), max(S_max, 0) - S_final).
        z = max(s_final - min(s_min, 0), max(s_max, 0) - s_final)
    p_value = cusum_p_value(z, n)
    return TestResult(
        name=f"Cumulative Sums Test (mode {mode})",
        statistic=float(z),
        p_value=p_value,
        details={
            "n": n,
            "mode": mode,
            "s_max": s_max,
            "s_min": s_min,
            "s_final": s_final,
            "z": z,
        },
    )
