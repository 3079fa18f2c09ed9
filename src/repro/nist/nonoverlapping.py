"""NIST test 7: The Non-overlapping Template Matching Test.

Counts non-overlapping occurrences of an ``m``-bit aperiodic template within
each of ``N`` blocks and compares the counts against their theoretical mean
and variance with a χ² statistic.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.nist.common import (
    BitsLike,
    TestResult,
    bits_from_int,
    bits_to_int,
    igamc,
    template_block_hits,
    to_bits,
)

__all__ = [
    "non_overlapping_template_test",
    "count_non_overlapping",
    "aperiodic_templates",
    "DEFAULT_TEMPLATE_9",
]

#: Default 9-bit template used throughout the library (000000001), matching
#: the first aperiodic template of length 9 in the NIST template list.
DEFAULT_TEMPLATE_9: tuple = (0, 0, 0, 0, 0, 0, 0, 0, 1)


def _is_aperiodic(template: Sequence[int]) -> bool:
    """A template is aperiodic when no proper shift of it matches itself."""
    m = len(template)
    for shift in range(1, m):
        if all(template[i] == template[i + shift] for i in range(m - shift)):
            return False
    return True


def aperiodic_templates(m: int) -> List[tuple]:
    """Enumerate all aperiodic (non-periodic) templates of length ``m``.

    These are the templates NIST uses for the non-overlapping template test.
    The enumeration is exhaustive over all 2^m patterns, so it is only meant
    for small ``m`` (the test uses m = 9 or 10).
    """
    if m <= 0:
        raise ValueError("template length must be positive")
    result = []
    for value in range(1 << m):
        template = tuple(int(b) for b in bits_from_int(value, m))
        if _is_aperiodic(template):
            result.append(template)
    return result


def count_non_overlapping(block: BitsLike, template: Sequence[int]) -> int:
    """Count non-overlapping occurrences of ``template`` in ``block``.

    The search window advances by one position after a mismatch and jumps by
    the template length ``m`` after a match (the NIST scanning rule, and what
    the hardware's shared shift register implements for this test).
    """
    arr = to_bits(block)
    tmpl = np.asarray(template, dtype=np.uint8)
    m = tmpl.size
    count = 0
    i = 0
    limit = arr.size - m
    while i <= limit:
        if np.array_equal(arr[i : i + m], tmpl):
            count += 1
            i += m
        else:
            i += 1
    return count


def non_overlapping_template_test(
    bits: BitsLike,
    template: Sequence[int] = DEFAULT_TEMPLATE_9,
    num_blocks: int = 8,
) -> TestResult:
    """Run the non-overlapping template matching test.

    Parameters
    ----------
    bits:
        The bit sequence under test.
    template:
        The aperiodic template B (default: the 9-bit ``000000001``).
    num_blocks:
        Number of blocks ``N`` the sequence is split into (NIST recommends
        ``N = 8``); the block length is ``M = n // N``.

    Returns
    -------
    TestResult
        ``details`` contains the per-block counts (the W_i of Table II) and
        the theoretical mean/variance.
    """
    arr = to_bits(bits)
    template, block_length = _validate(arr.size, template, num_blocks)
    counts = []
    for i in range(num_blocks):
        block = arr[i * block_length : (i + 1) * block_length]
        counts.append(count_non_overlapping(block, template))
    return _non_overlapping_result(arr.size, template, num_blocks, block_length, counts)


def _block_counts(
    window_values: Callable[[int], np.ndarray],
    row_bits: Callable[[int], np.ndarray],
    rows: int,
    template: tuple,
    num_blocks: int,
    block_length: int,
) -> np.ndarray:
    """Non-overlapping occurrences of ``template`` per block, ``(rows, num_blocks)``.

    For an aperiodic template — the only kind NIST uses — no two
    occurrences can overlap, so the greedy non-overlapping count equals the
    number of matching windows, read off the shared ``m``-bit window values
    (``window_values(m)``, one row per sequence; also used by the
    overlapping test and the pattern counters).  A periodic template runs
    the reference greedy scan over each row's bits (``row_bits(row)``).
    """
    m = len(template)
    if _is_aperiodic(template):
        return template_block_hits(
            window_values(m), bits_to_int(template), num_blocks, block_length, m
        )
    return np.array(
        [
            [
                count_non_overlapping(
                    row_bits(row)[i * block_length : (i + 1) * block_length], template
                )
                for i in range(num_blocks)
            ]
            for row in range(rows)
        ],
        dtype=np.int64,
    ).reshape(rows, num_blocks)


def _validate(n: int, template: Sequence[int], num_blocks: int):
    template = tuple(int(b) for b in template)
    m = len(template)
    if m <= 1:
        raise ValueError("template must be at least 2 bits long")
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    block_length = n // num_blocks
    if block_length < m:
        raise ValueError(
            f"block length M={block_length} is shorter than the template (m={m})"
        )
    return template, block_length


def _non_overlapping_result(
    n: int, template: tuple, num_blocks: int, block_length: int, counts: List[int]
) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    m = len(template)
    counts_arr = np.array(counts, dtype=np.float64)
    mean = (block_length - m + 1) / (1 << m)
    variance = block_length * (1.0 / (1 << m) - (2.0 * m - 1.0) / (1 << (2 * m)))
    if variance <= 0:
        raise ValueError("non-positive theoretical variance; block too short")
    chi_squared = float(np.sum((counts_arr - mean) ** 2 / variance))
    p_value = igamc(num_blocks / 2.0, chi_squared / 2.0)
    return TestResult(
        name="Non-overlapping Template Matching Test",
        statistic=chi_squared,
        p_value=p_value,
        details={
            "n": n,
            "template": template,
            "template_length": m,
            "num_blocks": num_blocks,
            "block_length": block_length,
            "counts": counts,
            "mean": mean,
            "variance": variance,
        },
    )
