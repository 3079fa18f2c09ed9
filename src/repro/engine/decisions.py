"""Verdicts of the five light NIST tests (1, 2, 3, 4 and 13) from critical values.

The paper's 16-bit software never evaluates ``erfc``/``igamc`` at runtime:
it compares the integer statistics read off the shared hardware counters
against critical values prepared at design time
(:mod:`repro.sw.critical_values`).  The engine decides the same way.  Each
``batch_*`` runner reads a :class:`~repro.engine.context.BatchContext`'s
statistics and returns a :class:`StatisticColumn`, whose ``failing(alpha)``
compares the statistic against a table built once per (test, n, α,
parameters), whose ``p_values()`` evaluates the scalar reference's
formula elementwise, operation for operation, only when called, and whose
``result(row)`` builds one row's :class:`~repro.nist.common.TestResult`
with the reference's own decision helper, fed that row's statistics.

Each table is derived from the P-value function the reference uses, so a
verdict is ``p < alpha`` by construction: the largest accepted |S_n|
(frequency), an accepted V_n interval per ones count that passes the
pretest (runs), the largest accepted excursion z (cusum) and the χ²
critical value (block frequency on the exact integer Σ(2ε − M)², longest
run on the reference's float χ²).  Cusum's series and ``igamc`` are not
provably monotone at ulp level, so a row whose statistic lies in a narrow
guard band around its critical value takes its exact P-value.  Frequency
needs no band: consecutive |S_n| move ``erfc``'s argument by
1/sqrt(2n), far more than its rounding error, so the bisection over the
column's own formula finds the exact threshold.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import special as _special

from repro.engine.packed import BITS_PER_WORD, _row_tiles
from repro.nist.block_frequency import _block_frequency_result
from repro.nist.block_frequency import _validate as _validate_block_frequency
from repro.nist.common import TestResult, igamc
from repro.nist.cusum import _cusum_result, cusum_p_value, largest_accepted_excursion
from repro.nist.frequency import _frequency_result
from repro.nist.longest_run import (
    LONGEST_RUN_TABLES,
    _longest_run_result,
    _validate_block_length,
    recommended_block_length,
)
from repro.nist.runs import _runs_result
from repro.sw.critical_values import chi_squared_critical

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.context import BatchContext

__all__ = [
    "StatisticColumn",
    "batch_block_frequency",
    "batch_cumulative_sums",
    "batch_frequency",
    "batch_longest_run",
    "batch_runs",
]

#: Tables kept per kind, one per (n, α, parameters) in use.
_TABLES = 64


class StatisticColumn(NamedTuple):
    """One light test's verdicts over a batch.

    ``failing(alpha)`` is True where a row's P-value is below ``alpha``;
    ``p_values()`` is every row's P-value and ``result(row)`` one row's
    :class:`TestResult`, both bit-identical to the reference.
    """

    failing: Callable[[float], np.ndarray]
    p_values: Callable[[], np.ndarray]
    result: Callable[[int], TestResult]


def _banded_failing(
    statistic: np.ndarray,
    low: float,
    high: float,
    alpha: float,
    exact_p_values: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Pass at or below ``low``, fail at or above ``high``; rows strictly
    between take ``exact_p_values(rows) < alpha``."""
    failing = statistic >= high
    near = ((statistic > low) ^ failing).nonzero()[0]
    if near.size:
        failing[near] = exact_p_values(near) < alpha
    return failing


@lru_cache(maxsize=_TABLES)
def _chi_squared_band(
    degrees_of_freedom: int, alpha: float, error: float = 0.0
) -> Tuple[float, float]:
    """χ² bounds a relative 1e-9 (or more) around the critical value: every
    χ² within a relative ``error`` of a value at or below the first has
    ``igamc(df / 2, χ² / 2) >= alpha``, and at or above the second below it."""
    critical = chi_squared_critical(alpha, degrees_of_freedom)
    width = 1e-9 * critical
    shape = degrees_of_freedom / 2.0
    while not (
        igamc(shape, max(critical - width, 0.0) * (1.0 + error) / 2.0)
        >= alpha
        > igamc(shape, (critical + width) * (1.0 - error) / 2.0)
    ):
        width *= 2.0
    return critical - width, critical + width


# ------------------------------------------------------------- test 1
def _frequency_p_values(n: int, excess: np.ndarray) -> np.ndarray:
    return _special.erfc(excess / math.sqrt(n) / math.sqrt(2.0))


@lru_cache(maxsize=_TABLES)
def _frequency_critical(n: int, alpha: float) -> int:
    """Largest |S_n| in [0, n] whose P-value is still >= ``alpha`` (-1 when
    none is), by bisection with the column's own P-value formula."""
    low, high = -1, n
    while low < high:
        mid = (low + high + 1) // 2
        if _frequency_p_values(n, np.array([mid]))[0] >= alpha:
            low = mid
        else:
            high = mid - 1
    return low


def batch_frequency(batch: "BatchContext") -> StatisticColumn:
    """Test 1 from |S_n| = |2·ones − n|."""
    n = batch.n
    if n == 0:
        raise ValueError("frequency test requires a non-empty sequence")
    ones = batch.ones()
    excess = np.abs(2 * ones - n)
    return StatisticColumn(
        lambda alpha: excess > _frequency_critical(n, alpha),
        lambda: _frequency_p_values(n, excess),
        lambda row: _frequency_result(n, int(ones[row])),
    )


# ------------------------------------------------------------- test 2
def _block_frequency_p_values(ones_per_block: np.ndarray, block_length: int) -> np.ndarray:
    # (π_i − ½)² in one float slab, updated in place: the reference's
    # operations in the reference's order.  Row sums over the C-contiguous
    # last axis run the same pairwise summation the reference runs on a row.
    deviations = np.divide(ones_per_block, block_length)
    deviations -= 0.5
    np.square(deviations, out=deviations)
    chi_squared = 4.0 * block_length * np.sum(deviations, axis=1)
    return _special.gammaincc(ones_per_block.shape[1] / 2.0, chi_squared / 2.0)


def batch_block_frequency(batch: "BatchContext", block_length: int = 128) -> StatisticColumn:
    """Test 2 from Σ(2ε_i − M)², exact in integers."""
    _validate_block_frequency(batch.n, block_length)
    ones_per_block = batch.block_sums(block_length)
    num_blocks = ones_per_block.shape[1]
    # Σ(2ε − M)² = 4·(Σε² − M·Σε) + N·M², both sums over cache-sized row tiles.
    statistic = np.empty(ones_per_block.shape[0], dtype=np.int64)
    for tile in _row_tiles(*ones_per_block.shape):
        blocks = ones_per_block[tile]
        squares = np.einsum("ij,ij->i", blocks, blocks, dtype=np.int64)
        statistic[tile] = squares - block_length * blocks.sum(axis=1, dtype=np.int64)
    statistic *= 4
    statistic += num_blocks * block_length * block_length
    # The reference's float χ² strays from Σ(2ε − M)² / M by a relative
    # (4M + N + 16)·2⁻⁵² at most.
    error = (4 * block_length + num_blocks + 16) * 2.0**-52

    def failing(alpha: float) -> np.ndarray:
        low, high = _chi_squared_band(num_blocks, alpha, error)
        return _banded_failing(
            statistic,
            low * block_length,
            high * block_length,
            alpha,
            lambda rows: _block_frequency_p_values(ones_per_block[rows], block_length),
        )

    return StatisticColumn(
        failing,
        lambda: _block_frequency_p_values(ones_per_block, block_length),
        lambda row: _block_frequency_result(batch.n, block_length, ones_per_block[row]),
    )


# ------------------------------------------------------------- test 3
def _runs_p_values(n: int, ones: np.ndarray, runs: np.ndarray) -> np.ndarray:
    pi = ones / n
    center = 2.0 * n * pi * (1.0 - pi)
    denominator = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = np.where(denominator > 0, np.abs(runs - center) / denominator, np.inf)
    # erfc(inf) is exactly the 0.0 the scalar reference reports.
    return np.where(np.abs(pi - 0.5) < 2.0 / math.sqrt(n), _special.erfc(statistic), 0.0)


@lru_cache(maxsize=_TABLES)
def _runs_table(n: int, alpha: float) -> Tuple[int, np.ndarray, np.ndarray]:
    """``(offset, low, high)``: ones count ``offset + i`` accepts V_n in
    ``[low[i], high[i]]``.

    The entries cover the ones counts that pass the pretest, between two
    empty intervals that every other ones count is clipped onto.  For one
    ones count the P-value falls with the distance of V_n from its center,
    by far more than an ulp per step, so both ends of the interval lie
    among a few integers around ``center ± erfcinv(α)·denominator``.
    """
    reach = 2.0 * math.sqrt(n) + 1  # the pretest window, in ones, with a margin
    counts = np.arange(max(math.floor(n / 2 - reach), 0), min(math.ceil(n / 2 + reach), n) + 1)
    ones = counts[np.abs(counts / n - 0.5) < 2.0 / math.sqrt(n)][:, np.newaxis]
    pi = ones / n
    center = 2.0 * n * pi * (1.0 - pi)
    half = _special.erfcinv(alpha) * (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))
    edges = np.floor(np.hstack([center - half, center + half]))
    grid = (edges[:, :, np.newaxis] + np.arange(-3, 4)).reshape(len(ones), -1)
    accepted = _runs_p_values(n, ones, grid) >= alpha
    low = np.where(accepted, grid, n + 1).min(axis=1).astype(np.int64)
    high = np.where(accepted, grid, 0).max(axis=1).astype(np.int64)
    return int(ones[0, 0]) - 1, np.pad(low, 1, constant_values=n + 1), np.pad(high, 1)


def batch_runs(batch: "BatchContext") -> StatisticColumn:
    """Test 3 from (ones, V_n), with the frequency pretest folded in."""
    n = batch.n
    if n == 0:
        raise ValueError("runs test requires a non-empty sequence")
    ones, runs = batch.ones(), batch.num_runs()

    def failing(alpha: float) -> np.ndarray:
        offset, low, high = _runs_table(n, alpha)
        index = ones - offset
        return (runs < low.take(index, mode="clip")) | (runs > high.take(index, mode="clip"))

    return StatisticColumn(
        failing,
        lambda: _runs_p_values(n, ones, runs),
        lambda row: _runs_result(n, int(ones[row]), int(runs[row])),
    )


# ------------------------------------------------------------- test 4
@lru_cache(maxsize=_TABLES)
def _longest_run_codes(
    block_length: int, num_blocks: int
) -> Tuple[List[np.ndarray], np.ndarray, int, np.ndarray]:
    """``(codes, shifts, mask, expected)``: each class count is a bit field
    of an int64 word, and ``codes[w][v]`` is word ``w``'s one-hot field for a
    block whose longest run is ``v``, so the sum of a row's codes holds all
    its counts; ``expected`` is the reference's N·π."""
    k, v_values, pi = LONGEST_RUN_TABLES[block_length]
    width = num_blocks.bit_length()
    classes = np.clip(np.arange(block_length + 1) - v_values[0], 0, k)
    word, field = np.divmod(classes, 63 // width)
    codes = [np.where(word == w, np.left_shift(1, width * field), 0) for w in range(word[-1] + 1)]
    return codes, width * np.arange(63 // width), (1 << width) - 1, num_blocks * np.array(pi)


def batch_longest_run(
    batch: "BatchContext", block_length: Optional[int] = None
) -> StatisticColumn:
    """Test 4 from the per-block longest runs: the reference's float χ²."""
    n = batch.n
    if block_length is None:
        block_length = recommended_block_length(n)
    _validate_block_length(n, block_length)
    k, v_values, _pi = LONGEST_RUN_TABLES[block_length]
    per_block = batch.block_longest_one_runs(block_length)
    codes, shifts, mask, expected = _longest_run_codes(block_length, per_block.shape[1])
    counts = np.empty((per_block.shape[0], len(codes), shifts.size), dtype=np.int64)
    for tile in _row_tiles(*per_block.shape):
        for index, word in enumerate(codes):
            totals = word.take(per_block[tile]).sum(axis=1)
            counts[tile, index] = (totals[:, np.newaxis] >> shifts) & mask
    categories = counts.reshape(len(counts), -1)[:, : k + 1]
    chi_squared = ((categories - expected) ** 2 / expected).sum(axis=1)

    def p_values(rows: slice | np.ndarray = slice(None)) -> np.ndarray:
        return _special.gammaincc(k / 2.0, chi_squared[rows] / 2.0)

    def result(row: int) -> TestResult:
        # The reference's class counts: longest runs clipped into [v_0, v_K].
        classes = np.clip(per_block[row] - v_values[0], 0, k)
        categories = np.bincount(classes, minlength=k + 1).astype(np.int64)
        return _longest_run_result(n, block_length, categories)

    return StatisticColumn(
        lambda alpha: _banded_failing(chi_squared, *_chi_squared_band(k, alpha), alpha, p_values),
        p_values,
        result,
    )


# ------------------------------------------------------------- test 13
def _cusum_p_values(n: int, z: np.ndarray) -> np.ndarray:
    distinct, inverse = np.unique(z, return_inverse=True)
    column = np.array([cusum_p_value(value, n) for value in distinct.tolist()])
    return column[inverse.reshape(-1)]


def batch_cumulative_sums(batch: "BatchContext", mode: int = 0) -> StatisticColumn:
    """Test 13 from the excursion z of the forward (0) or backward (1) walk.

    ``failing`` screens every row with the walk brackets
    (:meth:`~repro.engine.context.BatchContext.walk_brackets`).  z grows
    with S_max and falls with S_min, so the brackets bound it: a row whose
    upper bound is at or below the guard band passes, one whose lower bound
    is at or above it fails, and only the rows in between take their exact
    extremes (walked on those rows alone) and, inside the band, their exact
    P-value.  ``p_values`` walks every row exactly.
    """
    n = batch.n
    if n == 0:
        raise ValueError("cumulative sums test requires a non-empty sequence")
    if mode not in (0, 1):
        raise ValueError("mode must be 0 (forward) or 1 (backward)")

    def excursion(s_max: np.ndarray, s_min: np.ndarray, s_final: np.ndarray) -> np.ndarray:
        # max(|S_max|, |S_min|) equals max(S_max, -S_min) since S_max >= S_min.
        if mode == 0:
            return np.maximum(s_max, -s_min)
        # The backward walk starts from S_0 = 0 (see repro.nist.cusum).
        return np.maximum(s_final - np.minimum(s_min, 0), np.maximum(s_max, 0) - s_final)

    def failing(alpha: float) -> np.ndarray:
        # The guard band is the three excursions around the largest accepted z.
        critical = largest_accepted_excursion(n, alpha)
        low, high = critical - 2, critical + 2

        def banded(z: np.ndarray) -> np.ndarray:
            return _banded_failing(z, low, high, alpha, lambda rows: _cusum_p_values(n, z[rows]))

        if critical <= BITS_PER_WORD:
            # A bracket (up to a word wide) spans the whole accepted range,
            # so nearly every row would be refined: walk them all.
            return banded(excursion(*batch.walk_extremes()))
        max_low, max_high, min_low, min_high, s_final = batch.walk_brackets()
        rejected = excursion(max_low, min_high, s_final) >= high
        band = ((excursion(max_high, min_low, s_final) > low) ^ rejected).nonzero()[0]
        if band.size:
            rejected[band] = banded(excursion(*batch.walk_extremes(band)))
        return rejected

    def result(row: int) -> TestResult:
        return _cusum_result(n, mode, *(int(column[row]) for column in batch.walk_extremes()))

    return StatisticColumn(
        failing,
        lambda: _cusum_p_values(n, excursion(*batch.walk_extremes())),
        result,
    )
