"""NIST test 4: Test for the Longest Run of Ones in a Block.

Splits the sequence into blocks of ``M`` bits, records the longest run of
ones in each block, buckets the blocks into categories and compares the
category frequencies against the theoretical probabilities with a χ² test.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nist.common import BitsLike, TestResult, chunk, igamc, to_bits

__all__ = [
    "longest_run_test",
    "longest_run_of_ones",
    "LONGEST_RUN_TABLES",
    "category_index",
]

#: NIST-tabulated parameters: block length M -> (K, category v-values, pi).
#: Categories: a block whose longest run of ones is <= v[0] falls in class 0,
#: == v[i] in class i for interior classes, >= v[K] in class K.
LONGEST_RUN_TABLES: Dict[int, Tuple[int, List[int], List[float]]] = {
    8: (3, [1, 2, 3, 4], [0.2148, 0.3672, 0.2305, 0.1875]),
    128: (5, [4, 5, 6, 7, 8, 9], [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]),
    512: (5, [6, 7, 8, 9, 10, 11], [0.1170, 0.2460, 0.2523, 0.1755, 0.1027, 0.1124]),
    1000: (5, [7, 8, 9, 10, 11, 12], [0.1307, 0.2437, 0.2452, 0.1714, 0.1002, 0.1088]),
    10000: (6, [10, 11, 12, 13, 14, 15, 16], [0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727]),
}


def longest_run_of_ones(bits: BitsLike) -> int:
    """Length of the longest run of consecutive ones in the sequence."""
    arr = to_bits(bits)
    longest = 0
    current = 0
    for bit in arr:
        if bit:
            current += 1
            if current > longest:
                longest = current
        else:
            current = 0
    return longest


def category_index(longest: int, v_values: Sequence[int]) -> int:
    """Map a longest-run value to its category index for the χ² statistic."""
    if longest <= v_values[0]:
        return 0
    if longest >= v_values[-1]:
        return len(v_values) - 1
    return int(longest - v_values[0])


def recommended_block_length(n: int) -> int:
    """NIST-recommended block length for a sequence of ``n`` bits.

    The paper constrains block lengths to the tabulated values that are
    powers of two (8, 128, 512); this helper follows the NIST minimum-length
    recommendation and is used as the default by :func:`longest_run_test`.
    """
    if n < 128:
        raise ValueError("longest-run test requires at least 128 bits")
    if n < 6272:
        return 8
    if n < 750000:
        return 128
    return 10000


def longest_run_test(bits: BitsLike, block_length: int | None = None) -> TestResult:
    """Run the longest-run-of-ones-in-a-block test.

    Parameters
    ----------
    bits:
        The bit sequence under test (at least 128 bits).
    block_length:
        Block length ``M``; must be one of the NIST-tabulated values
        (8, 128, 512, 1000, 10000).  Defaults to the NIST recommendation for
        the sequence length.

    Returns
    -------
    TestResult
        ``details`` contains the per-category block counts (the ν_runs,i of
        Table II) and the theoretical probabilities π_i.
    """
    arr = to_bits(bits)
    n = arr.size
    if block_length is None:
        block_length = recommended_block_length(n)
    _validate_block_length(n, block_length)
    blocks = chunk(arr, block_length)
    k, v_values, _pi = LONGEST_RUN_TABLES[block_length]
    categories = np.zeros(k + 1, dtype=np.int64)
    for block in blocks:
        categories[category_index(longest_run_of_ones(block), v_values)] += 1
    return _longest_run_result(n, block_length, categories)


def _validate_block_length(n: int, block_length: int) -> None:
    if block_length not in LONGEST_RUN_TABLES:
        raise ValueError(
            f"block_length must be one of {sorted(LONGEST_RUN_TABLES)}, got {block_length}"
        )
    if block_length > n:
        raise ValueError(f"block_length M={block_length} exceeds sequence length n={n}")


def _longest_run_result(n: int, block_length: int, categories: np.ndarray) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    k, v_values, pi = LONGEST_RUN_TABLES[block_length]
    num_blocks = int(categories.sum())
    expected = num_blocks * np.array(pi)
    chi_squared = float(np.sum((categories - expected) ** 2 / expected))
    p_value = igamc(k / 2.0, chi_squared / 2.0)
    return TestResult(
        name="Longest Run of Ones in a Block",
        statistic=chi_squared,
        p_value=p_value,
        details={
            "n": n,
            "block_length": block_length,
            "num_blocks": num_blocks,
            "k": k,
            "v_values": list(v_values),
            "categories": categories.tolist(),
            "pi": list(pi),
        },
    )
