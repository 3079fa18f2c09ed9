"""NIST test 8: The Overlapping Template Matching Test.

Counts *overlapping* occurrences of an ``m``-bit all-ones template within
each block, buckets the blocks into K+1 categories by occurrence count and
compares the category frequencies against theoretical probabilities derived
from the compound-Poisson approximation.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.nist.common import (
    BitsLike,
    TestResult,
    bits_to_int,
    igamc,
    template_block_hits,
    to_bits,
)

__all__ = [
    "overlapping_template_test",
    "count_overlapping",
    "overlapping_probabilities",
    "DEFAULT_TEMPLATE_ONES_9",
]

#: Default template for the overlapping test: nine consecutive ones.
DEFAULT_TEMPLATE_ONES_9: tuple = (1,) * 9


def count_overlapping(block: BitsLike, template: Sequence[int]) -> int:
    """Count overlapping occurrences of ``template`` in ``block``.

    Unlike the non-overlapping scan, the window always advances by a single
    bit position, so occurrences may share bits.
    """
    arr = to_bits(block)
    tmpl = np.asarray(template, dtype=np.uint8)
    m = tmpl.size
    count = 0
    for i in range(arr.size - m + 1):
        if np.array_equal(arr[i : i + m], tmpl):
            count += 1
    return count


def _pr(u: int, eta: float) -> float:
    """Probability of ``u`` overlapping occurrences (NIST's Pr(u, eta))."""
    if u == 0:
        return math.exp(-eta)
    total = 0.0
    for ell in range(1, u + 1):
        log_term = (
            -eta
            - u * math.log(2)
            + ell * math.log(eta)
            - math.lgamma(ell + 1)
            + math.lgamma(u)
            - math.lgamma(ell)
            - math.lgamma(u - ell + 1)
        )
        total += math.exp(log_term)
    return total


def overlapping_probabilities(block_length: int, template_length: int, k: int = 5) -> List[float]:
    """Category probabilities π_0..π_K for the overlapping template test.

    Computed from the compound-Poisson approximation with
    λ = (M − m + 1) / 2^m and η = λ / 2; the final category absorbs the
    remaining probability mass.  For the NIST reference parameters
    (M = 1032, m = 9) this reproduces the tabulated values of SP 800-22 to
    within rounding.
    """
    lam = (block_length - template_length + 1) / (1 << template_length)
    if lam <= 0:
        raise ValueError("block too short for the given template")
    eta = lam / 2.0
    pi = [_pr(u, eta) for u in range(k)]
    pi.append(1.0 - sum(pi))
    return pi


def overlapping_template_test(
    bits: BitsLike,
    template: Sequence[int] = DEFAULT_TEMPLATE_ONES_9,
    block_length: int = 1032,
    k: int = 5,
) -> TestResult:
    """Run the overlapping template matching test.

    Parameters
    ----------
    bits:
        The bit sequence under test.
    template:
        The template B (default: nine consecutive ones).
    block_length:
        Block length ``M``.  NIST uses 1032; the paper's hardware designs use
        the power of two 1024, for which the category probabilities are
        recomputed exactly by :func:`overlapping_probabilities`.
    k:
        Number of non-terminal categories K (default 5, i.e. categories
        0, 1, 2, 3, 4 and >= 5).

    Returns
    -------
    TestResult
        ``details`` contains the per-category block counts (the ν_temp,i of
        Table II) and the probabilities π_i used.
    """
    arr = to_bits(bits)
    n = arr.size
    template, num_blocks = _validate(n, template, block_length)
    categories = np.zeros(k + 1, dtype=np.int64)
    for i in range(num_blocks):
        block = arr[i * block_length : (i + 1) * block_length]
        occurrences = count_overlapping(block, template)
        categories[min(occurrences, k)] += 1
    return _overlapping_result(n, template, block_length, num_blocks, k, categories)


def _block_categories(
    values: np.ndarray, template: tuple, block_length: int, num_blocks: int, k: int
) -> np.ndarray:
    """Blocks per occurrence category (0 .. k-1, and >= k), ``(rows, k + 1)``.

    ``values`` are the rows' ``m``-bit window values; a block's overlapping
    occurrences are its windows equal to the template.
    """
    m = len(template)
    rows = values.shape[0]
    occurrences = template_block_hits(
        values, bits_to_int(template), num_blocks, block_length, m
    )
    np.minimum(occurrences, k, out=occurrences)
    occurrences += np.arange(rows, dtype=occurrences.dtype)[:, np.newaxis] * (k + 1)
    return np.bincount(occurrences.ravel(), minlength=rows * (k + 1)).reshape(rows, k + 1)


def _validate(n: int, template: Sequence[int], block_length: int):
    template = tuple(int(b) for b in template)
    if block_length < len(template):
        raise ValueError("block_length must be at least the template length")
    num_blocks = n // block_length
    if num_blocks < 1:
        raise ValueError("sequence too short for a single block")
    return template, num_blocks


def _overlapping_result(
    n: int, template: tuple, block_length: int, num_blocks: int, k: int, categories: np.ndarray
) -> TestResult:
    """Decision math shared by the reference and the engine's batch entry."""
    m = len(template)
    pi = overlapping_probabilities(block_length, m, k)
    expected = num_blocks * np.array(pi)
    chi_squared = float(np.sum((categories - expected) ** 2 / expected))
    p_value = igamc(k / 2.0, chi_squared / 2.0)
    return TestResult(
        name="Overlapping Template Matching Test",
        statistic=chi_squared,
        p_value=p_value,
        details={
            "n": n,
            "template": template,
            "template_length": m,
            "block_length": block_length,
            "num_blocks": num_blocks,
            "k": k,
            "categories": categories.tolist(),
            "pi": pi,
        },
    )
