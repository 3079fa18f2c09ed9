"""Shared-statistic batches: the software analogue of the paper's counters.

The paper's central resource-sharing idea is that the hardware block derives
the common sub-statistics of a bit sequence (ones count, run boundaries,
block sums, cyclic pattern counters) *once* and feeds every on-the-fly test
from the same registers.  :class:`BatchContext` reproduces that in
software: it lazily computes and memoizes every derived statistic the
statistical tests draw from, for a batch of equal-length sequences, so a
suite run touches each bit O(1) times instead of once per test.  The
batch holds one representation of its bits, the packed words of a
:class:`~repro.engine.packed.PackedMatrix`, and every statistic runs on
the 64-bits-per-word kernels of :mod:`repro.engine.packed`; the few
consumers that need per-bit access (the run arrays, odd block-sum
geometries) read a transient unpack that is never cached.

A lone sequence is a one-row batch.  Every statistic is integer-valued,
so a test that computes its decision statistic from batch values produces
*bit-identical* results to the reference implementation that re-scans the
raw bits (asserted by ``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.engine import packed as _packed
from repro.engine.packed import PackedMatrix, pack_matrix
from repro.nist.common import BitsLike

__all__ = ["BatchContext"]

_KERNEL_CALLS = obs.counter(
    "repro_packed_kernel_invocations_total",
    "Packed (64-bits-per-word) kernel dispatches from BatchContext, by kernel.",
    labels=("kernel",),
)


class BatchContext:
    """Shared statistics of a batch of equal-length sequences.

    The batch holds exactly one representation of its bits: a
    :class:`~repro.engine.packed.PackedMatrix`.  A ``(num_sequences, n)``
    bit matrix (or a sequence of equal-length bit arrays) is packed once
    by :func:`~repro.engine.packed.pack_matrix`, which rejects anything
    that is not 2-D or holds a value other than 0 and 1; a prepacked
    matrix is used as is.

    Every statistic is computed lazily with one vectorised pass over the
    packed words and cached; a consumer of one sequence reads its row of
    the shared arrays.  Window values,
    pattern counts and block-value histograms come from
    :func:`~repro.engine.packed.window_values`.  The per-row run arrays and
    block sums of geometries without a word kernel
    (:func:`~repro.engine.packed.supports_block_ones`) read a transient
    unpack that is not kept.
    """

    def __init__(self, matrix: Union[np.ndarray, PackedMatrix, Sequence[BitsLike]]):
        self._packed = matrix if isinstance(matrix, PackedMatrix) else pack_matrix(matrix)
        self._ones: Optional[np.ndarray] = None
        self._last_bits: Optional[np.ndarray] = None
        self._walk_extremes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._walk_brackets: Optional[Tuple[np.ndarray, ...]] = None
        self._num_runs: Optional[np.ndarray] = None
        self._runs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._block_sums: Dict[int, np.ndarray] = {}
        self._block_longest: Dict[int, np.ndarray] = {}
        self._pattern_counts: Dict[int, np.ndarray] = {}
        self._window_values: Dict[int, np.ndarray] = {}
        self._block_value_counts: Dict[int, np.ndarray] = {}

    def packed(self) -> PackedMatrix:
        """The packed words of the batch."""
        return self._packed

    def row_bits(self, row: int) -> np.ndarray:
        """One sequence's uint8 bits, unpacking only that row."""
        return self._packed.row(row)

    @property
    def num_sequences(self) -> int:
        return self._packed.num_rows

    @property
    def n(self) -> int:
        return self._packed.n

    # ------------------------------------------------------------- statistics
    def ones(self) -> np.ndarray:
        if self._ones is None:
            _KERNEL_CALLS.inc(kernel="ones_count")
            self._ones = _packed.ones_count(self._packed)
        return self._ones

    def last_bits(self) -> np.ndarray:
        """The final bit of every sequence (uint8, no unpack on packed input).

        Raises ``ValueError`` on empty sequences, which have no last bit.
        """
        if self._last_bits is None:
            _KERNEL_CALLS.inc(kernel="last_bits")
            self._last_bits = _packed.last_bits(self._packed)
        return self._last_bits

    def walk_extremes(
        self, rows: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(S_max, S_min, S_final)`` per row; all zero for empty sequences.

        With ``rows`` (indices), the extremes of just those rows: walked on
        those rows' words alone and not kept while they are fewer than the
        batch's rows, else read off the whole batch's walk, which is kept.
        """
        some_rows = rows is not None and len(rows) < self.num_sequences
        if some_rows and self._walk_extremes is None and self.n:
            _KERNEL_CALLS.inc(kernel="walk_extremes")
            return _packed.walk_extremes(PackedMatrix(self._packed.words[rows], self.n))
        if self._walk_extremes is None:
            if self.n == 0:
                zeros = np.zeros(self.num_sequences, dtype=np.int64)
                self._walk_extremes = (zeros, zeros.copy(), zeros.copy())
            else:
                _KERNEL_CALLS.inc(kernel="walk_extremes")
                self._walk_extremes = _packed.walk_extremes(self._packed)
        if rows is None:
            return self._walk_extremes
        s_max, s_min, s_final = self._walk_extremes
        return s_max[rows], s_min[rows], s_final[rows]

    def walk_brackets(self) -> Tuple[np.ndarray, ...]:
        """``(max_low, max_high, min_low, min_high, S_final)`` per row.

        Brackets ``max_low <= S_max <= max_high`` and ``min_low <= S_min <=
        min_high`` from the walk's word-boundary heights
        (:func:`~repro.engine.packed.walk_bounds`), at most 64 wide, with
        ``S_final`` exact.  Once the exact extremes are walked the brackets
        are those extremes, zero wide.
        """
        if self._walk_extremes is not None or self.n == 0:
            s_max, s_min, s_final = self.walk_extremes()
            return s_max, s_max, s_min, s_min, s_final
        if self._walk_brackets is None:
            _KERNEL_CALLS.inc(kernel="walk_bounds")
            self._walk_brackets = _packed.walk_bounds(self._packed)
        return self._walk_brackets

    def num_runs(self) -> np.ndarray:
        """Runs per row (transitions + 1); an empty sequence has no runs."""
        if self._num_runs is None:
            if self.n == 0:
                self._num_runs = np.zeros(self.num_sequences, dtype=np.int64)
            else:
                _KERNEL_CALLS.inc(kernel="transition_counts")
                self._num_runs = _packed.transition_counts(self._packed) + 1
        return self._num_runs

    def runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, bit value, length)`` of every run of every row, in order.

        A run starts at each row's first bit and wherever a bit differs from
        its predecessor, so no run crosses rows of the flattened matrix.
        """
        if self._runs is None:
            matrix = self._packed.unpack()
            rows, n = matrix.shape
            starts = np.ones((rows, n), dtype=bool)
            np.not_equal(matrix[:, 1:], matrix[:, :-1], out=starts[:, 1:])
            first = np.flatnonzero(starts)
            values = matrix.ravel()[first].astype(np.int64)
            self._runs = (first // max(n, 1), values, np.diff(first, append=rows * n))
        return self._runs

    def block_sums(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_sums:
            if _packed.supports_block_ones(block_length, self.n):
                _KERNEL_CALLS.inc(kernel="block_ones")
                self._block_sums[block_length] = _packed.block_ones(
                    self._packed, block_length
                )
            else:
                num_blocks = self.n // block_length
                trimmed = self._packed.unpack()[:, : num_blocks * block_length]
                self._block_sums[block_length] = trimmed.reshape(
                    self.num_sequences, num_blocks, block_length
                ).sum(axis=2, dtype=np.int64)
        return self._block_sums[block_length]

    def block_longest_one_runs(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_longest:
            _KERNEL_CALLS.inc(kernel="block_longest_one_runs")
            self._block_longest[block_length] = _packed.block_longest_one_runs(
                self._packed, block_length
            )
        return self._block_longest[block_length]

    def block_value_counts(self, block_length: int) -> np.ndarray:
        """Histogram of the non-overlapping ``block_length``-bit block values
        (FIPS poker): block ``i``'s value is window ``i * block_length``."""
        if block_length not in self._block_value_counts:
            if self.n // block_length:
                values = self._windows(block_length)[:, ::block_length]
            else:
                values = np.zeros((self.num_sequences, 0), dtype=np.int64)
            self._block_value_counts[block_length] = self._bincount_rows(
                values, 1 << block_length
            )
        return self._block_value_counts[block_length]

    def pattern_counts(self, m: int) -> np.ndarray:
        """Occurrences of every cyclic overlapping ``m``-bit pattern, per row.

        Follows :func:`repro.nist.common.pattern_counts` with ``cyclic=True``:
        ``m == 0`` counts ``n`` empty patterns, and an empty sequence counts
        none.  The serial and approximate-entropy tests share one counter
        set, as the paper's hardware does: once a wider count ``c_k`` is
        cached, the ``m``-bit counts are its exact marginal sums over the
        trailing ``k - m`` bits (each cyclic ``m``-bit window is the prefix
        of exactly one cyclic ``k``-bit window), so asking for the widest
        count first costs one bincount pass for every width.
        """
        counts = self._pattern_counts.get(m)
        if counts is None:
            wider = [k for k in self._pattern_counts if k > m]
            if m >= 0 and wider:
                k = min(wider)
                counts = (
                    self._pattern_counts[k]
                    .reshape(self.num_sequences, 1 << m, 1 << (k - m))
                    .sum(axis=2)
                )
            else:
                counts = self._count_patterns(m)
            self._pattern_counts[m] = counts
        return counts

    def _count_patterns(self, m: int) -> np.ndarray:
        rows = self.num_sequences
        if m < 0:
            raise ValueError("pattern length m must be non-negative")
        if m == 0:
            return np.full((rows, 1), self.n, dtype=np.int64)
        if self.n == 0:
            return np.zeros((rows, 1 << m), dtype=np.int64)
        if m > self.n:
            raise ValueError(f"pattern length m={m} exceeds sequence length n={self.n}")
        # Only the template tests read a width's windows twice; a pattern
        # count reuses cached windows but does not keep its own.
        windows = self._window_values.get(m)
        counts = self._bincount_rows(self._windows(m) if windows is None else windows, 1 << m)
        if m > 1:
            # The cyclic convention adds the m-1 windows wrapping from the
            # tail into the head: the windows of the narrow 2(m-1)-bit seam,
            # not of a full extended copy.
            seam = _packed.wrap_seam(self._packed, m - 1)
            counts += self._bincount_rows(_packed.window_values(seam, m), 1 << m)
        return counts

    def window_values(self, m: int) -> np.ndarray:
        """MSB-first value of every (non-cyclic) ``m``-bit window, per row."""
        if m not in self._window_values:
            self._window_values[m] = self._windows(m)
        return self._window_values[m]

    def _windows(self, m: int) -> np.ndarray:
        _KERNEL_CALLS.inc(kernel="window_values")
        return _packed.window_values(self._packed, m)

    def _bincount_rows(self, values: np.ndarray, num_bins: int) -> np.ndarray:
        """Per-row bincount: one flat bincount with row offsets per row tile,
        so each tile's index cast stays in cache."""
        counts = np.empty((values.shape[0], num_bins), dtype=np.int64)
        for tile in _packed._row_tiles(values.shape[0], values.shape[1]):
            block = values[tile]
            offsets = np.arange(block.shape[0], dtype=np.intp)[:, np.newaxis] * num_bins
            flat = np.bincount((block + offsets).ravel(), minlength=block.shape[0] * num_bins)
            counts[tile] = flat.reshape(-1, num_bins)
        return counts
