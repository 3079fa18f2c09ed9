"""Shared-statistic contexts: the software analogue of the paper's counters.

The paper's central resource-sharing idea is that the hardware block derives
the common sub-statistics of a bit sequence (ones count, run boundaries,
block sums, cyclic pattern counters) *once* and feeds every on-the-fly test
from the same registers.  :class:`SequenceContext` reproduces that in
software: :class:`BatchContext` lazily computes and memoizes every derived
statistic the statistical tests draw from, for a batch of equal-length
sequences, so a suite run touches each bit O(1) times instead of once per
test.  The shared statistics run on the 64-bits-per-word kernels of
:mod:`repro.engine.packed` over the packed words; a lazy uint8 view of the
matrix serves the statistics (and block geometries) without a word kernel.

:class:`SequenceContext` is one row of a batch: the views returned by
:meth:`BatchContext.context` read their row out of the shared result, and a
context built from a lone sequence is a one-row batch.

Every statistic is integer-valued, so a test that computes its decision
statistic from context values produces *bit-identical* P-values to the
reference implementation that re-scans the raw bits (asserted by
``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.engine import packed as _packed
from repro.engine.packed import PackedMatrix, pack_matrix
from repro.nist.common import BitsLike, to_bits

__all__ = ["SequenceContext", "BatchContext"]

_KERNEL_CALLS = obs.counter(
    "repro_packed_kernel_invocations_total",
    "Packed (64-bits-per-word) kernel dispatches from BatchContext, by kernel.",
    labels=("kernel",),
)

#: A preseeded block-statistic source: given a block length, return the
#: ``(num_sequences, num_blocks)`` statistic array, or ``None`` to decline
#: (the context then falls back to its own kernels).
BlockProvider = Callable[[int], Optional[np.ndarray]]


class SupportsWindowContext(Protocol):
    """Anything that can serve its trailing window as a :class:`BatchContext`.

    The structural type of :class:`repro.engine.streaming.StreamingContext`
    and :class:`~repro.engine.streaming.StreamingBatchContext`; spelled as a
    protocol so this module never imports the streaming layer it underpins.
    """

    def window_context(self, nbits: Optional[int] = None) -> "BatchContext":
        ...


def _window_weights(m: int) -> np.ndarray:
    """MSB-first bit weights of an ``m``-bit window."""
    return 1 << np.arange(m - 1, -1, -1)


def _matrix_window_values(matrix: np.ndarray, m: int) -> np.ndarray:
    """Integer value of every overlapping ``m``-bit window, per row.

    ``matrix`` has shape ``(rows, length)``; the result has shape
    ``(rows, length - m + 1)``.  Computed with the MSB-first Horner rule
    ``value = value * 2 + bit`` applied in place so the hot loop touches one
    narrow accumulator array instead of allocating a temporary per offset.
    """
    rows, length = matrix.shape
    num_windows = length - m + 1
    if num_windows <= 0:
        raise ValueError(f"window length m={m} exceeds sequence length n={length}")
    dtype = np.int32 if m <= 15 else np.int64
    values = np.zeros((rows, num_windows), dtype=dtype)
    for offset in range(m):
        np.left_shift(values, 1, out=values)
        values += matrix[:, offset : offset + num_windows]
    return values


def _matrix_block_longest_one_runs(matrix: np.ndarray, block_length: int) -> np.ndarray:
    """Longest run of ones inside each ``block_length``-bit block, per row.

    Works on the flattened zero-padded block matrix: a zero column appended
    to every block guarantees runs of ones never cross block (or row)
    boundaries, so one global run-length scan labels every block at once.
    """
    rows, length = matrix.shape
    num_blocks = length // block_length
    blocks = matrix[:, : num_blocks * block_length].reshape(rows * num_blocks, block_length)
    padded = np.zeros((rows * num_blocks, block_length + 1), dtype=np.int8)
    padded[:, :block_length] = blocks
    flat = np.concatenate([[0], padded.ravel()])
    edges = np.diff(flat.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    longest = np.zeros(rows * num_blocks, dtype=np.int64)
    if starts.size:
        np.maximum.at(longest, starts // (block_length + 1), ends - starts)
    return longest.reshape(rows, num_blocks)


class SequenceContext:
    """Shared statistics of one bit sequence: a row view of a batch.

    Tests draw their raw statistics (the values the paper's hardware counters
    would hold) from the context; each statistic is derived at most once per
    sequence and shared by every test that needs it — e.g. the serial and
    approximate-entropy tests share the 3-/4-bit cyclic pattern counters, the
    two template tests share the 9-bit window values, and the frequency,
    runs and FIPS monobit tests share the ones count.

    Every statistic reads its row out of a :class:`BatchContext`, which
    memoizes it: a context built from raw bits wraps them as a one-row
    batch, so a lone sequence runs on exactly the kernels a fleet batch does.

    Parameters
    ----------
    bits:
        Any :data:`~repro.nist.common.BitsLike` bit-sequence representation.
    """

    def __init__(self, bits: BitsLike, *, _batch: Optional["BatchContext"] = None, _row: int = 0):
        if _batch is None:
            _batch = BatchContext(to_bits(bits)[np.newaxis, :])
        self._batch = _batch
        self._row = _row
        # Resolved lazily: on a packed batch the uint8 row is only unpacked
        # when a statistic without a packed kernel asks for raw bits.
        self._bits: Optional[np.ndarray] = None
        self._runs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._rows: Dict[Tuple[object, ...], np.ndarray] = {}

    def _row_of(self, statistic: str, *args: object) -> np.ndarray:
        """This row of a :class:`BatchContext` statistic, memoized so that
        repeated reads return the same array."""
        key = (statistic, args)
        if key not in self._rows:
            self._rows[key] = getattr(self._batch, statistic)(*args)[self._row]
        return self._rows[key]

    # ------------------------------------------------------------- basics
    @property
    def bits(self) -> np.ndarray:
        """The raw uint8 0/1 array (for tests without a shared statistic).

        On a packed-only batch this unpacks just this context's row, so one
        scalar-path test cannot force the whole batch matrix into memory.
        """
        if self._bits is None:
            self._bits = self._batch.row_bits(self._row)
        return self._bits

    @property
    def n(self) -> int:
        """Sequence length."""
        return self._batch.n

    def last_bit(self) -> int:
        """The final bit of the sequence (without unpacking a packed batch)."""
        if self.n == 0:
            raise ValueError("empty sequence has no last bit")
        return int(self._batch.last_bits()[self._row])

    @property
    def ones(self) -> int:
        """Total number of ones (the hardware's frequency counter)."""
        return int(self._batch.ones()[self._row])

    @property
    def zeros(self) -> int:
        """Total number of zeros."""
        return self.n - self.ones

    # ------------------------------------------------------------- walks / runs
    def walk_extremes(self) -> Tuple[int, int, int]:
        """``(S_max, S_min, S_final)`` of the ±1 random walk (cusum test)."""
        s_max, s_min, s_final = self._batch.walk_extremes()
        return int(s_max[self._row]), int(s_min[self._row]), int(s_final[self._row])

    def num_runs(self) -> int:
        """Total number of runs (V_n(obs) of the runs test)."""
        return int(self._batch.num_runs()[self._row])

    def runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-run ``(bit values, run lengths)`` arrays, in sequence order."""
        if self._runs is None:
            rows, values, lengths = self._batch.runs()
            start, stop = np.searchsorted(rows, [self._row, self._row + 1])
            self._runs = (values[start:stop], lengths[start:stop])
        return self._runs

    def run_length_histogram(self, cap: int = 6) -> Dict[int, Dict[int, int]]:
        """``{bit: {capped length: count}}`` with lengths >= ``cap`` pooled.

        The FIPS runs test reads this directly; the capped layout matches
        :func:`repro.fips.battery._run_lengths`.
        """
        values, lengths = self.runs()
        histogram = {
            0: {length: 0 for length in range(1, cap + 1)},
            1: {length: 0 for length in range(1, cap + 1)},
        }
        capped = np.minimum(lengths, cap)
        for value in (0, 1):
            counts = np.bincount(capped[values == value], minlength=cap + 1)
            for length in range(1, cap + 1):
                histogram[value][length] = int(counts[length]) if length < counts.size else 0
        return histogram

    def longest_run(self) -> int:
        """Length of the longest run of identical bits (FIPS long-run test)."""
        _, lengths = self.runs()
        return int(lengths.max()) if lengths.size else 0

    # ------------------------------------------------------------- block stats
    def block_sums(self, block_length: int) -> np.ndarray:
        """Ones count of each full ``block_length``-bit block (int64)."""
        return self._row_of("block_sums", block_length)

    def block_longest_one_runs(self, block_length: int) -> np.ndarray:
        """Longest run of ones within each full block (longest-run test)."""
        return self._row_of("block_longest_one_runs", block_length)

    def block_value_counts(self, block_length: int) -> np.ndarray:
        """Histogram of non-overlapping block values (FIPS poker test)."""
        return self._row_of("block_value_counts", block_length)

    # ------------------------------------------------------------- pattern stats
    def pattern_counts(self, m: int) -> np.ndarray:
        """Occurrences of every cyclic overlapping ``m``-bit pattern (2^m entries)."""
        return self._row_of("pattern_counts", m)

    def window_values(self, m: int) -> np.ndarray:
        """Integer value of every (non-cyclic) ``m``-bit window (template tests)."""
        return self._row_of("window_values", m)


class BatchContext:
    """Shared statistics of a batch of equal-length sequences.

    Every statistic is computed lazily with one vectorised pass over the
    ``(num_sequences, n)`` bit matrix and cached; per-sequence contexts
    created with :meth:`context` read their row from the shared arrays.

    The cheap shared statistics (ones, block ones, runs, longest run per
    block, walk extremes) run on the 64-bits-per-word
    :mod:`repro.engine.packed` kernels over a memoized packed view of the
    matrix.  Block lengths those kernels do not cover
    (:func:`~repro.engine.packed.supports_block_ones`,
    :func:`~repro.engine.packed.supports_block_longest_one_runs`), the
    pattern and window counters, the per-row run arrays and the
    block-value histogram read the lazy uint8 :attr:`matrix` view instead.
    The constructor also accepts a prepacked
    :class:`~repro.engine.packed.PackedMatrix` directly, in which case the
    uint8 matrix is only materialised if a statistic needs it.
    """

    @staticmethod
    def as_matrix(sequences: Union[np.ndarray, Sequence[BitsLike]]) -> np.ndarray:
        """Normalise ``sequences`` to a validated 2-D uint8 bit matrix.

        A uint8 array that already has the right shape — e.g. one produced
        by :meth:`~repro.trng.source.EntropySource.generate_matrix` — is
        passed through without copying, so source blocks flow into the
        engine with no intermediate :class:`BitSequence` materialisation.
        """
        matrix = np.ascontiguousarray(sequences, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D (num_sequences, n) bit matrix")
        if matrix.size and int(matrix.max()) > 1:
            raise ValueError("bit matrix must contain only 0 and 1 values")
        return matrix

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray]) -> "BatchContext":
        """Batch context over equal-length source blocks (1-D uint8 arrays)."""
        return cls(np.vstack([np.atleast_1d(block) for block in blocks]))

    def __init__(self, matrix: Union[np.ndarray, PackedMatrix, Sequence[BitsLike]]):
        if isinstance(matrix, PackedMatrix):
            # Prepacked input (e.g. the fleet scheduler's round matrix):
            # the uint8 view is only materialised if a non-packed statistic
            # asks for it (or the packer retained its source matrix).
            self._packed: Optional[PackedMatrix] = matrix
            self._matrix: Optional[np.ndarray] = matrix.source
            self._n = matrix.n
            self._num_sequences = matrix.num_rows
        else:
            matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
            if matrix.ndim != 2:
                raise ValueError("BatchContext expects a 2-D (num_sequences, n) bit matrix")
            self._matrix = matrix
            self._packed = None
            self._num_sequences, self._n = matrix.shape
        self._ones: Optional[np.ndarray] = None
        self._last_bits: Optional[np.ndarray] = None
        self._walk_extremes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._num_runs: Optional[np.ndarray] = None
        self._runs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._block_sums: Dict[int, np.ndarray] = {}
        self._block_longest: Dict[int, np.ndarray] = {}
        self._pattern_counts: Dict[int, np.ndarray] = {}
        self._window_values: Dict[int, np.ndarray] = {}
        self._block_value_counts: Dict[int, np.ndarray] = {}
        self._block_sums_provider: Optional[BlockProvider] = None
        self._block_longest_provider: Optional[BlockProvider] = None

    @classmethod
    def from_streaming(
        cls, stream: SupportsWindowContext, nbits: Optional[int] = None
    ) -> "BatchContext":
        """The trailing window of a streaming context, as a batch context.

        The bridge the tentpole names: ``run_batch`` and the cheap-test
        registry run unchanged on the rolled window, because the streaming
        side hands back a regular :class:`BatchContext` preseeded with its
        incrementally maintained statistics.  Accepts anything exposing
        ``window_context()`` — a ``StreamingContext`` or a
        ``StreamingBatchContext``.
        """
        return stream.window_context(nbits)

    def preseed(
        self,
        *,
        ones: Optional[np.ndarray] = None,
        num_runs: Optional[np.ndarray] = None,
        walk_extremes: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
        last_bits: Optional[np.ndarray] = None,
        block_sums_provider: Optional[BlockProvider] = None,
        block_longest_provider: Optional[BlockProvider] = None,
    ) -> "BatchContext":
        """Seed statistic caches with externally maintained values.

        The streaming contexts roll these statistics incrementally and hand
        them over here so the batch executor never recomputes them.  Seeded
        arrays must match the batch shape; block providers are consulted on
        cache miss and may decline (return ``None``) to fall back to the
        regular kernels.  Callers guarantee seeded values equal what the
        context would compute — parity is enforced by the streaming test
        suite, not re-checked here.  Returns ``self`` for chaining.
        """
        expected = (self.num_sequences,)
        for name, value in (("ones", ones), ("num_runs", num_runs), ("last_bits", last_bits)):
            if value is not None and value.shape != expected:
                raise ValueError(f"preseed {name} has shape {value.shape}, expected {expected}")
        if ones is not None:
            self._ones = ones
        if num_runs is not None:
            self._num_runs = num_runs
        if walk_extremes is not None:
            if any(part.shape != expected for part in walk_extremes):
                raise ValueError(f"preseed walk_extremes parts must have shape {expected}")
            self._walk_extremes = walk_extremes
        if last_bits is not None:
            self._last_bits = last_bits
        if block_sums_provider is not None:
            self._block_sums_provider = block_sums_provider
        if block_longest_provider is not None:
            self._block_longest_provider = block_longest_provider
        return self

    @property
    def matrix(self) -> np.ndarray:
        """The ``(num_sequences, n)`` uint8 bit matrix (unpacked on demand)."""
        if self._matrix is None:
            self._matrix = self._packed.unpack()
        return self._matrix

    def packed(self) -> PackedMatrix:
        """The memoized packed-word view of the matrix (packed on demand)."""
        if self._packed is None:
            self._packed = pack_matrix(self._matrix, keep_source=True)
        return self._packed

    def packed_only(self) -> Optional[PackedMatrix]:
        """The packed view when the uint8 matrix is *not* materialised.

        Chunked consumers (the batched heavy kernels) use this to unpack
        row windows on the fly instead of forcing the full matrix; returns
        ``None`` when the uint8 matrix already exists (then slicing it is
        free).
        """
        if self._matrix is None:
            return self._packed
        return None

    def row_bits(self, row: int) -> np.ndarray:
        """One sequence's uint8 bits, unpacking only that row when packed."""
        if self._matrix is not None:
            return self._matrix[row]
        return self._packed.row(row)

    @property
    def num_sequences(self) -> int:
        return int(self._num_sequences)

    @property
    def n(self) -> int:
        return int(self._n)

    def context(self, row: int) -> SequenceContext:
        """A per-sequence context backed by this batch's shared statistics."""
        if not 0 <= row < self.num_sequences:
            raise IndexError(f"row {row} out of range for batch of {self.num_sequences}")
        return SequenceContext(None, _batch=self, _row=row)

    def contexts(self) -> Tuple[SequenceContext, ...]:
        """One batch-backed context per sequence."""
        return tuple(self.context(i) for i in range(self.num_sequences))

    # ------------------------------------------------------------- statistics
    def ones(self) -> np.ndarray:
        if self._ones is None:
            _KERNEL_CALLS.inc(kernel="ones_count")
            self._ones = _packed.ones_count(self.packed())
        return self._ones

    def last_bits(self) -> np.ndarray:
        """The final bit of every sequence (uint8, no unpack on packed input).

        Raises ``ValueError`` on empty sequences, which have no last bit.
        """
        if self._last_bits is None:
            _KERNEL_CALLS.inc(kernel="last_bits")
            self._last_bits = _packed.last_bits(self.packed())
        return self._last_bits

    def walk_extremes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(S_max, S_min, S_final)`` per row; all zero for empty sequences."""
        if self._walk_extremes is None:
            if self.n == 0:
                zeros = np.zeros(self.num_sequences, dtype=np.int64)
                self._walk_extremes = (zeros, zeros.copy(), zeros.copy())
            else:
                _KERNEL_CALLS.inc(kernel="walk_extremes")
                self._walk_extremes = _packed.walk_extremes(self.packed())
        return self._walk_extremes

    def num_runs(self) -> np.ndarray:
        """Runs per row (transitions + 1); an empty sequence has no runs."""
        if self._num_runs is None:
            if self.n == 0:
                self._num_runs = np.zeros(self.num_sequences, dtype=np.int64)
            else:
                _KERNEL_CALLS.inc(kernel="transition_counts")
                self._num_runs = _packed.transition_counts(self.packed()) + 1
        return self._num_runs

    def runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, bit value, length)`` of every run of every row, in order.

        A run starts at each row's first bit and wherever a bit differs from
        its predecessor, so no run crosses rows of the flattened matrix.
        """
        if self._runs is None:
            matrix = self.matrix
            rows, n = matrix.shape
            starts = np.ones((rows, n), dtype=bool)
            np.not_equal(matrix[:, 1:], matrix[:, :-1], out=starts[:, 1:])
            first = np.flatnonzero(starts)
            values = matrix.ravel()[first].astype(np.int64)
            self._runs = (first // max(n, 1), values, np.diff(first, append=rows * n))
        return self._runs

    def block_sums(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_sums:
            if self._block_sums_provider is not None:
                provided = self._block_sums_provider(block_length)
                if provided is not None:
                    self._block_sums[block_length] = provided
                    return provided
            if _packed.supports_block_ones(block_length, self.n):
                _KERNEL_CALLS.inc(kernel="block_ones")
                self._block_sums[block_length] = _packed.block_ones(
                    self.packed(), block_length
                )
            else:
                num_blocks = self.n // block_length
                trimmed = self.matrix[:, : num_blocks * block_length]
                self._block_sums[block_length] = trimmed.reshape(
                    self.num_sequences, num_blocks, block_length
                ).sum(axis=2, dtype=np.int64)
        return self._block_sums[block_length]

    def block_longest_one_runs(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_longest:
            if self._block_longest_provider is not None:
                provided = self._block_longest_provider(block_length)
                if provided is not None:
                    self._block_longest[block_length] = provided
                    return provided
            if _packed.supports_block_longest_one_runs(block_length, self.n):
                _KERNEL_CALLS.inc(kernel="block_longest_one_runs")
                self._block_longest[block_length] = _packed.block_longest_one_runs(
                    self.packed(), block_length
                )
            else:
                self._block_longest[block_length] = _matrix_block_longest_one_runs(
                    self.matrix, block_length
                )
        return self._block_longest[block_length]

    def block_value_counts(self, block_length: int) -> np.ndarray:
        if block_length not in self._block_value_counts:
            num_blocks = self.n // block_length
            trimmed = self.matrix[:, : num_blocks * block_length].astype(np.int64)
            values = trimmed.reshape(
                self.num_sequences, num_blocks, block_length
            ) @ _window_weights(block_length)
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
        counts = self._bincount_rows(self.window_values(m), 1 << m)
        if m > 1:
            # The cyclic convention adds the m-1 windows wrapping from the
            # tail into the head; their values come from the narrow
            # (rows, 2(m-1)) seam matrix instead of a full extended copy.
            seam = np.concatenate(
                [self.matrix[:, -(m - 1) :], self.matrix[:, : m - 1]], axis=1
            )
            counts = counts + self._bincount_rows(_matrix_window_values(seam, m), 1 << m)
        return counts

    def window_values(self, m: int) -> np.ndarray:
        if m not in self._window_values:
            self._window_values[m] = _matrix_window_values(self.matrix, m)
        return self._window_values[m]

    def _bincount_rows(self, values: np.ndarray, num_bins: int) -> np.ndarray:
        """Per-row bincount via one flat bincount with row offsets."""
        rows = values.shape[0]
        dtype = np.int32 if rows * num_bins < (1 << 31) else np.int64
        offsets = np.arange(rows, dtype=dtype)[:, np.newaxis] * num_bins
        flat = np.bincount(
            (values.astype(dtype, copy=False) + offsets).ravel(),
            minlength=rows * num_bins,
        )
        return flat.reshape(rows, num_bins).astype(np.int64)
