"""NIST test 2: Frequency Test within a Block.

Splits the sequence into ``N`` non-overlapping blocks of ``M`` bits and
checks whether the proportion of ones within each block is close to 1/2.
"""

from __future__ import annotations

import numpy as np

from repro.nist.common import BitsLike, TestResult, chunk, igamc, to_bits

__all__ = ["block_frequency_test"]


def _validate(n: int, block_length: int) -> None:
    if block_length <= 0:
        raise ValueError("block_length must be positive")
    if block_length > n:
        raise ValueError(f"block_length M={block_length} exceeds sequence length n={n}")


def _block_frequency_result(n: int, block_length: int, ones_per_block: np.ndarray) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    num_blocks = int(ones_per_block.size)
    proportions = ones_per_block / block_length
    chi_squared = 4.0 * block_length * float(np.sum((proportions - 0.5) ** 2))
    p_value = igamc(num_blocks / 2.0, chi_squared / 2.0)
    return TestResult(
        name="Frequency Test within a Block",
        statistic=chi_squared,
        p_value=p_value,
        details={
            "n": n,
            "block_length": block_length,
            "num_blocks": num_blocks,
            "ones_per_block": ones_per_block.tolist(),
            "discarded_bits": n - num_blocks * block_length,
        },
    )


def block_frequency_test(bits: BitsLike, block_length: int = 128) -> TestResult:
    """Run the frequency test within a block.

    Parameters
    ----------
    bits:
        The bit sequence under test.
    block_length:
        Block length ``M``.  The hardware designs of the paper constrain
        ``M`` to powers of two (so block boundaries can be read off the
        global bit counter); the reference implementation accepts any
        positive ``M`` not exceeding the sequence length.

    Returns
    -------
    TestResult
        The statistic is χ² = 4 M Σ (π_i − 1/2)²; ``details`` contains the
        per-block ones counts (the ε_i of Table II).
    """
    arr = to_bits(bits)
    n = arr.size
    _validate(n, block_length)
    blocks = chunk(arr, block_length)
    ones_per_block = np.array([int(b.sum()) for b in blocks], dtype=np.int64)
    return _block_frequency_result(n, block_length, ones_per_block)
