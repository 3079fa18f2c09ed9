"""Columnar decisions for the five light NIST tests (1, 2, 3, 4 and 13).

The paper's 16-bit software never evaluates ``erfc``/``igamc`` per sequence
at runtime: it compares the small integer statistics read off the shared
hardware counters against precomputed critical values
(:mod:`repro.sw.critical_values`).  This module is the engine's counterpart
of that split.  Each ``batch_*`` runner reads the integer statistics a
:class:`~repro.engine.context.BatchContext` already holds and returns one
P-value column for the whole batch:

* frequency (|S_n|), runs ((ones, V_n)), block frequency (block sums) and
  longest run (class-count rows from one offset ``bincount``) evaluate their
  scalar reference's formula elementwise, operation for operation, with the
  same ``scipy.special`` ufuncs, so every P-value is bit-identical;
* cusum costs O(n/z) Φ terms per row, so it goes through a bounded memo
  keyed on ``(n, z)`` that calls the unchanged scalar
  :func:`~repro.nist.cusum.cusum_p_value`.  The memo is bit-identical by
  construction and plays the role of the paper's precomputed tables: a
  fleet of healthy devices of one design revisits the same few hundred
  excursions every round.  It covers cusum alone because the other four
  formulas cost a handful of ufunc calls per batch, less than the lookups.

:func:`repro.engine.batch.run_batch` turns a column into per-row
:class:`~repro.nist.common.TestResult` objects only when a caller reads
them, through the test's scalar context runner.  Parity with the
``repro.nist`` references is asserted by ``tests/test_columnar_decisions.py``.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np
from scipy import special as _special

import repro.obs as obs
from repro.nist.block_frequency import _validate as _validate_block_frequency
from repro.nist.cusum import cusum_p_value
from repro.nist.longest_run import (
    LONGEST_RUN_TABLES,
    _validate_block_length,
    recommended_block_length,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.context import BatchContext

__all__ = [
    "CUSUM_MEMO",
    "DecisionMemo",
    "batch_block_frequency",
    "batch_cumulative_sums",
    "batch_frequency",
    "batch_longest_run",
    "batch_runs",
]

_MEMO_TOTAL = obs.counter(
    "repro_engine_decision_memo_total",
    "Decision-memo lookups of distinct statistics per batch, by test and outcome.",
    labels=("test", "outcome"),
)

_ZERO = np.int64(0)

#: Entries the cusum memo keeps.  A 1024-device ``n65536_light`` round has
#: ~430 distinct excursions, so this holds several designs' working sets.
_CUSUM_MEMO_CAPACITY = 8192


class DecisionMemo:
    """Bounded, thread-safe memo of P-values keyed on ``(n, statistic)``.

    The lock is held only around dict reads and writes, never across the
    P-value computation: two threads missing the same key both compute it
    and store the same double, so the writes are idempotent.  When the memo
    is full the oldest entries are evicted first.
    """

    def __init__(
        self, test_id: str, compute: Callable[[int, int], float], capacity: int
    ) -> None:
        self.test_id = test_id
        self.capacity = capacity
        self._compute = compute
        self._values: Dict[Tuple[int, int], float] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def p_values(self, statistics: np.ndarray, n: int) -> np.ndarray:
        """P-value of every entry of ``statistics`` at sequence length ``n``."""
        distinct, inverse = np.unique(statistics, return_inverse=True)
        keys = [(n, value) for value in distinct.tolist()]
        with self._lock:
            found = [self._values.get(key) for key in keys]
        missing = {
            key: self._compute(key[1], n)
            for key, value in zip(keys, found)
            if value is None
        }
        if missing:
            with self._lock:
                self._values.update(missing)
                while len(self._values) > self.capacity:
                    del self._values[next(iter(self._values))]
            _MEMO_TOTAL.inc(len(missing), test=self.test_id, outcome="miss")
        if len(missing) < len(keys):
            _MEMO_TOTAL.inc(len(keys) - len(missing), test=self.test_id, outcome="hit")
        column = np.array(
            [missing[key] if value is None else value for key, value in zip(keys, found)],
            dtype=np.float64,
        )
        return column[inverse.reshape(-1)]


#: The process-wide cusum memo.  The mode only selects which excursion z a
#: row has; the P-value is a function of ``(n, z)`` alone, so both modes
#: share entries.
CUSUM_MEMO = DecisionMemo("nist.cumulative_sums", cusum_p_value, _CUSUM_MEMO_CAPACITY)


def batch_frequency(batch: "BatchContext") -> np.ndarray:
    """Test 1 from |S_n|: ``erfc(|2·ones − n| / √n / √2)`` per row."""
    n = batch.n
    if n == 0:
        raise ValueError("frequency test requires a non-empty sequence")
    s_obs = np.abs(2 * batch.ones() - n) / math.sqrt(n)
    return _special.erfc(s_obs / math.sqrt(2.0))


def batch_block_frequency(batch: "BatchContext", block_length: int = 128) -> np.ndarray:
    """Test 2 from the block sums: χ² = 4M·Σ(π_i − ½)², then ``igamc``."""
    n = batch.n
    _validate_block_frequency(n, block_length)
    ones_per_block = batch.block_sums(block_length)
    num_blocks = ones_per_block.shape[1]
    # (π_i − ½)² in one float slab, updated in place: the reference's
    # operations in the reference's order.
    deviations = np.divide(ones_per_block, block_length)
    deviations -= 0.5
    np.square(deviations, out=deviations)
    # Row sums over the C-contiguous last axis run the same pairwise
    # summation the scalar reference runs on one row.
    chi_squared = 4.0 * block_length * np.sum(deviations, axis=1)
    return _special.gammaincc(num_blocks / 2.0, chi_squared / 2.0)


def batch_runs(batch: "BatchContext") -> np.ndarray:
    """Test 3 from (ones, V_n), with the frequency pretest folded in."""
    n = batch.n
    if n == 0:
        raise ValueError("runs test requires a non-empty sequence")
    pi = batch.ones() / n
    tau = 2.0 / math.sqrt(n)
    pretest_passed = np.abs(pi - 0.5) < tau
    numerator = np.abs(batch.num_runs() - 2.0 * n * pi * (1.0 - pi))
    denominator = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = np.where(denominator > 0, numerator / denominator, np.inf)
    # erfc(inf) is exactly the 0.0 the scalar reference reports.
    return np.where(pretest_passed, _special.erfc(statistic), 0.0)


def batch_longest_run(
    batch: "BatchContext", block_length: Optional[int] = None
) -> np.ndarray:
    """Test 4 from the per-block longest runs, classed with one ``bincount``."""
    n = batch.n
    if block_length is None:
        block_length = recommended_block_length(n)
    _validate_block_length(n, block_length)
    k, v_values, pi = LONGEST_RUN_TABLES[block_length]
    per_block = batch.block_longest_one_runs(block_length)
    rows, num_blocks = per_block.shape
    # Class index of every block, offset by its row's bincount range, in
    # one int64 slab.  Numpy-scalar bounds keep np.clip off its Python-int
    # range check (two np.iinfo constructions per call).
    indices = per_block - v_values[0]
    np.clip(indices, _ZERO, np.int64(k), out=indices)
    indices += np.arange(rows, dtype=np.int64)[:, np.newaxis] * (k + 1)
    categories = np.bincount(indices.ravel(), minlength=rows * (k + 1)).reshape(
        rows, k + 1
    )
    expected = num_blocks * np.array(pi)
    chi_squared = np.sum((categories - expected) ** 2 / expected, axis=1)
    return _special.gammaincc(k / 2.0, chi_squared / 2.0)


def batch_cumulative_sums(batch: "BatchContext", mode: int = 0) -> np.ndarray:
    """Test 13 from the excursion z, through :data:`CUSUM_MEMO`."""
    n = batch.n
    if n == 0:
        raise ValueError("cumulative sums test requires a non-empty sequence")
    if mode not in (0, 1):
        raise ValueError("mode must be 0 (forward) or 1 (backward)")
    s_max, s_min, s_final = batch.walk_extremes()
    if mode == 0:
        z = np.maximum(np.abs(s_max), np.abs(s_min))
    else:
        z = np.maximum(s_final - s_min, s_max - s_final)
    return CUSUM_MEMO.p_values(z, n)
