"""Packed bit-planes: 64-bits-per-word kernels for the shared statistics.

The paper's hardware derives its shared sub-statistics with word-parallel
logic over the raw bit stream; the software engine historically spent a full
``uint8`` byte per bit, so every statistic paid 8x the memory traffic the
hardware would.  This module closes that gap: a bit matrix is packed row by
row into ``uint64`` words (:func:`pack_matrix`) and the cheap shared
statistics — ones count, per-block ones, transition count, longest run of
ones per block, random-walk extremes — are computed directly on the words
with popcount and shift/mask arithmetic, touching 1/8th of the bytes.

Bit order
---------
Words use a *little* bit order end to end: stream bit ``j`` of a row lives
at bit position ``j % 64`` of word ``j // 64`` (``np.packbits(...,
bitorder="little")`` viewed as little-endian ``uint64``).  The payoff is
that bit adjacency survives packing — ``word >> 1`` aligns stream bit
``j + 1`` with stream bit ``j`` — so transitions and run lengths reduce to
shift/XOR/AND word ops, stitched across word boundaries explicitly.  Rows
whose length is not a multiple of 64 are zero-padded at the top of the last
word; every kernel masks those tail bits out, and :class:`PackedMatrix`
validates on construction that the padding really is zero.

Packed words are the engine's one bit representation.  Every kernel is
integer-exact and produces *bit-identical* values to the scalar references
in :mod:`repro.nist` and to plain numpy over the unpacked bits (asserted by
``tests/test_packed.py``), so packing never changes a P-value.

The popcount primitive uses :func:`numpy.bitwise_count` where available
(numpy >= 2.0) and falls back to a byte lookup table on older numpy.

numpy idioms on the hot path
----------------------------
Every round runs these kernels over ~64 Mbit, so a slow numpy idiom costs
more than the arithmetic around it.  Three rules hold throughout:

* Table gathers use :func:`numpy.take`.  ``lut[chunks]`` with a uint16
  index array first casts every index to ``intp``; ``np.take(lut, chunks)``
  gathers from the narrow indices directly (95 vs 241 us on a tile of
  16 rows x 4096 chunks, 2-core x86 host, numpy 2.4).
* Sums over a short trailing axis (a few words per block) are unrolled
  column adds (:func:`sum_short_axis`); a numpy reduction over a length-2
  axis pays its per-slice overhead on every output element.
* No slab temporaries: a kernel or decision that transforms a
  ``(rows, blocks)`` array does so in place (``out=``, ``+=``) rather than
  allocating a fresh array per operation.  The operations and their order
  stay those of the scalar references, so values stay bit-identical.
"""

from __future__ import annotations

import operator
import threading
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

# The byte-level (MSB-first, right-zero-padded tail) siblings of the word
# packers below: the single interchange convention every capture file and
# integer codec in the library shares.  Defined in :mod:`repro.nist.common`
# (the dependency-free bottom layer) and re-exported here so both packing
# families have one documented home.
from repro.nist.common import pack_bits, unpack_bits

__all__ = [
    "BITS_PER_WORD",
    "PackedMatrix",
    "pack_matrix",
    "bit_tile_rows",
    "unpack_matrix",
    "unpack_rows",
    "window_values",
    "wrap_seam",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "sum_short_axis",
    "ones_count",
    "block_ones",
    "supports_block_ones",
    "transition_counts",
    "block_longest_one_runs",
    "supports_block_longest_one_runs",
    "walk_extremes",
    "walk_bounds",
    "last_bits",
]

#: Bits per packed word.
BITS_PER_WORD = 64

#: Storage dtype of packed words: explicit little-endian so the byte/uint16
#: sub-views used by the kernels line up with stream order on any host.
WORD_DTYPE = np.dtype("<u8")

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Seed of the walk's running extremes, built once: ``np.iinfo`` shows up in
#: the per-batch fixed cost of tiny batches.
_INT32_MIN = int(np.iinfo(np.int32).min)

#: Longest trailing axis :func:`sum_short_axis` adds column by column.
_UNROLL_LIMIT = 8


class PackedMatrix:
    """A ``(rows, n)`` bit matrix packed 64 bits per word.

    Attributes
    ----------
    words:
        ``(rows, ceil(n / 64))`` little-endian ``uint64`` array; stream bit
        ``j`` of a row is bit ``j % 64`` of word ``j // 64``.
    n:
        Bits per row.  Tail bits of the last word (``n % 64`` onwards) are
        zero and are never interpreted by the kernels.

    The words are the only copy of the bits: a per-bit consumer reads a
    transient unpack (:meth:`row`, :func:`unpack_rows`) and drops it.
    """

    __slots__ = ("words", "n")

    def __init__(self, words: np.ndarray, n: int):
        words = np.ascontiguousarray(words, dtype=WORD_DTYPE)
        if words.ndim != 2:
            raise ValueError("PackedMatrix expects a 2-D (rows, words) array")
        if n < 0:
            raise ValueError("bit length n must be non-negative")
        expected_words = (n + BITS_PER_WORD - 1) // BITS_PER_WORD
        if words.shape[1] != expected_words:
            raise ValueError(
                f"{n} bits per row need {expected_words} words, got {words.shape[1]}"
            )
        tail = n % BITS_PER_WORD
        if tail and words.size and np.any(words[:, -1] >> np.uint64(tail)):
            raise ValueError(
                "tail bits beyond n must be zero-padded "
                f"(n = {n} leaves {BITS_PER_WORD - tail} pad bits in the last word)"
            )
        self.words = words
        self.n = int(n)

    @property
    def num_rows(self) -> int:
        return int(self.words.shape[0])

    @property
    def num_words(self) -> int:
        return int(self.words.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed words (1/8th of the uint8 matrix)."""
        return int(self.words.nbytes)

    def unpack(self) -> np.ndarray:
        """The ``(rows, n)`` uint8 bit matrix (a fresh unpack)."""
        return unpack_matrix(self)

    def row(self, index: int) -> np.ndarray:
        """One row as a 1-D uint8 bit array, without unpacking the rest.

        The per-row escape hatch of the batch entries that call a scalar
        reference per row: a batch hands a single sequence to a per-bit
        consumer at ``n`` bytes instead of ``rows * n``.  A negative
        ``index`` counts from the last row, as in a list.
        """
        row = operator.index(index)
        if row < 0:
            row += self.num_rows
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {index} out of range for {self.num_rows} rows")
        return unpack_rows(self, row, row + 1)[0]

    def __repr__(self) -> str:
        return f"PackedMatrix(rows={self.num_rows}, n={self.n}, words={self.num_words})"


def pack_matrix(matrix: np.ndarray) -> PackedMatrix:
    """Pack a ``(rows, n)`` bit matrix into 64-bit words.

    Validates that the input is 2-D and holds only 0 and 1.  Rows are packed
    independently (``np.packbits`` along axis 1, little bit order) and
    right-padded with zero bytes up to a whole number of words.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError("pack_matrix expects a 2-D (rows, n) bit matrix")
    if matrix.size and int(matrix.max()) > 1:
        raise ValueError("bit matrix must contain only 0 and 1 values")
    rows, n = matrix.shape
    num_words = (n + BITS_PER_WORD - 1) // BITS_PER_WORD
    packed_bytes = np.packbits(matrix, axis=1, bitorder="little")
    if packed_bytes.shape[1] < num_words * 8:
        padded = np.zeros((rows, num_words * 8), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    return PackedMatrix(packed_bytes.view(WORD_DTYPE), n)


def unpack_matrix(packed: PackedMatrix) -> np.ndarray:
    """Expand a :class:`PackedMatrix` back to its ``(rows, n)`` uint8 form.

    Exact inverse of :func:`pack_matrix` for every ``n``.
    """
    return unpack_rows(packed, 0, packed.num_rows)


def unpack_rows(packed: PackedMatrix, start: int, stop: int) -> np.ndarray:
    """Expand rows ``start:stop`` of a :class:`PackedMatrix` to uint8 bits.

    The one unpack home: only the requested rows' words are unpacked (tail
    pad bits are dropped by an explicit bit count), so chunked consumers
    (the batched heavy-test kernels) never materialise the full matrix.
    """
    if packed.n == 0:
        return np.zeros((packed.words[start:stop].shape[0], 0), dtype=np.uint8)
    as_bytes = np.ascontiguousarray(packed.words[start:stop]).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=packed.n, bitorder="little")


# ---------------------------------------------------------------------------
# Popcount primitive
# ---------------------------------------------------------------------------

_POP8_LUT: Optional[np.ndarray] = None


def _pop8_lut() -> np.ndarray:
    """256-entry per-byte popcount table (fallback for old numpy)."""
    global _POP8_LUT
    if _POP8_LUT is None:
        _POP8_LUT = np.unpackbits(
            np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
        ).sum(axis=1, dtype=np.uint8)
    return _POP8_LUT


def popcount(values: np.ndarray, *, force_lut: bool = False) -> np.ndarray:
    """Per-element popcount of an unsigned integer array (uint8 result).

    Uses :func:`numpy.bitwise_count` when the running numpy provides it;
    otherwise each element is split into its bytes and summed through a
    256-entry lookup table (``force_lut=True`` exercises the fallback in
    tests regardless of the numpy version).
    """
    if _HAVE_BITWISE_COUNT and not force_lut:
        return np.bitwise_count(values)
    values = np.ascontiguousarray(values)
    itemsize = values.dtype.itemsize
    as_bytes = values.view(np.uint8).reshape(values.shape + (itemsize,))
    # Max popcount per element is 8 * itemsize <= 64: fits uint8.
    return np.take(_pop8_lut(), as_bytes).sum(axis=-1, dtype=np.uint8)


def sum_short_axis(values: np.ndarray) -> np.ndarray:
    """Sum a ``(rows, blocks, k)`` array over its last axis, as int64.

    numpy reductions over a short trailing axis are dominated by per-slice
    overhead; unrolled column adds are several times faster at the block
    lengths the NIST designs use (1-8 words per block).  Longer axes take
    the plain reduction.  Integer sums, so both forms are exact.
    """
    width = values.shape[-1]
    if width > _UNROLL_LIMIT:
        return values.sum(axis=-1, dtype=np.int64)
    total = values[..., 0].astype(np.int64)
    for index in range(1, width):
        total += values[..., index]
    return total


# ---------------------------------------------------------------------------
# Row tiling
# ---------------------------------------------------------------------------

#: 16-bit chunks per row tile of the walk, longest-run and transition
#: kernels.  Their temporaries hold a few int16/int32 values per chunk, so
#: a tile of 2**16 chunks keeps the working set inside L2 instead of
#: streaming matrix-sized temporaries through memory.  A row wider than the
#: budget is a tile of its own; a small batch is a single tile.
_TILE_CHUNKS = 1 << 16


def _tile_rows(width: int) -> int:
    """Rows per tile when each row puts ``width`` chunks through a pass."""
    return max(1, _TILE_CHUNKS // max(1, width))


def bit_tile_rows(n: int) -> int:
    """Rows of ``n`` bits per cache-sized tile, by the walk kernel's rule.

    A row puts ``n // 16`` chunks through the walk, so a tile of
    65536-bit rows is 16 rows: 1 MiB of uint8 bits.  The fleet round's
    fan-out sizes its worker slices by it.
    """
    return _tile_rows(n // 16)


def _row_tiles(rows: int, width: int) -> Iterator[slice]:
    """Row slices of ``_tile_rows(width)`` rows covering ``rows`` rows."""
    step = _tile_rows(width)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


# ---------------------------------------------------------------------------
# Word-level kernels
# ---------------------------------------------------------------------------

# PackedMatrix guarantees the tail bits beyond n are zero (validated at
# construction), so a whole-word popcount needs no tail mask and no .n.
def ones_count(packed: PackedMatrix) -> np.ndarray:  # repro: ignore[PKD002]
    """Per-row ones count — the hardware's frequency counter, 64 bits/op."""
    return popcount(packed.words).sum(axis=1, dtype=np.int64)


def supports_block_ones(block_length: int, n: int) -> bool:
    """True when :func:`block_ones` has a packed kernel for this geometry."""
    if block_length <= 0 or block_length > n:
        return False
    return block_length % BITS_PER_WORD == 0 or block_length in (8, 16, 32)


def block_ones(packed: PackedMatrix, block_length: int) -> np.ndarray:
    """Ones count of each full ``block_length``-bit block, per row (int64).

    Supported geometries (everything the NIST/FIPS parameter space actually
    uses on the hot path): block lengths that are a multiple of 64 reduce to
    a word reshape + popcount; 8/16/32-bit blocks are popcounted on the
    byte/uint16/uint32 sub-views of the words (stream order is preserved by
    the little bit order).  Other block lengths raise ``ValueError`` — the
    caller sums a transient unpack instead.
    """
    n = packed.n
    if not supports_block_ones(block_length, n):
        raise ValueError(f"no packed kernel for block_length={block_length} at n={n}")
    rows = packed.num_rows
    num_blocks = n // block_length
    if block_length % BITS_PER_WORD == 0:
        words_per_block = block_length // BITS_PER_WORD
        usable = packed.words[:, : num_blocks * words_per_block]
        return sum_short_axis(
            popcount(usable).reshape(rows, num_blocks, words_per_block)
        )
    view_dtype = {8: "<u1", 16: "<u2", 32: "<u4"}[block_length]
    units = np.ascontiguousarray(packed.words).view(view_dtype)[:, :num_blocks]
    return popcount(units).astype(np.int64)


def transition_counts(packed: PackedMatrix) -> np.ndarray:
    """Number of positions where bit ``j`` differs from bit ``j+1``, per row.

    Each word is paired with its successor shifted one bit down — the next
    word's first bit moves into the top position — so ``w ^ pairs`` marks
    every differing adjacent pair, word seams included.  Only the last
    word's pairs past the row's end are masked off.  The runs test's
    ``V_n(obs)`` is this + 1.
    """
    rows = packed.num_rows
    counts = np.zeros(rows, dtype=np.int64)
    if packed.n == 0:
        return counts
    words = packed.words
    tail = packed.n - (packed.num_words - 1) * BITS_PER_WORD  # 1..64 bits in last word
    # In the last word only the first tail-1 adjacent pairs are real bits.
    last_mask = np.uint64((1 << (tail - 1)) - 1)
    for tile in _row_tiles(rows, 4 * packed.num_words):
        tile_words = words[tile]
        flips = tile_words >> np.uint64(1)
        flips[:, :-1] |= tile_words[:, 1:] << np.uint64(63)
        flips ^= tile_words
        flips[:, -1] &= last_mask
        counts[tile] = popcount(flips).sum(axis=1, dtype=np.uint32)
    return counts


def last_bits(packed: PackedMatrix) -> np.ndarray:
    """The final stream bit of every row (uint8) without unpacking."""
    if packed.n == 0:
        raise ValueError("empty rows have no last bit")
    word = (packed.n - 1) // BITS_PER_WORD
    offset = np.uint64((packed.n - 1) % BITS_PER_WORD)
    return ((packed.words[:, word] >> offset) & np.uint64(1)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Chunk lookup tables (longest-run merge, walk extremes)
# ---------------------------------------------------------------------------
#
# Sub-word statistics that depend on bit *order* (run lengths, walk
# excursions) are computed per 8- or 16-bit chunk through lookup tables and
# merged across chunks with a short vectorised recurrence — the software
# version of the hardware's carry chains.  Tables are built lazily once.

_CHUNK_LUTS: Dict[int, Dict[str, np.ndarray]] = {}
_CHUNK_LUTS_LOCK = threading.Lock()


def _chunk_luts(bits: int) -> Dict[str, np.ndarray]:
    """Per-chunk int16 tables of 8- or 16-bit chunks: longest, prefix and
    suffix one-runs, and the ±1 walk's max, min and final sum.

    Both sizes are built once, under a lock: the byte tables from the
    bits of every byte, the 16-bit tables by composing their two bytes.
    """
    if not _CHUNK_LUTS:
        with _CHUNK_LUTS_LOCK:
            if not _CHUNK_LUTS:
                byte = _byte_luts()
                _CHUNK_LUTS.update({8: byte, 16: _byte_pair_luts(byte)})
    return _CHUNK_LUTS[bits]


def _byte_luts() -> Dict[str, np.ndarray]:
    """The chunk tables of every byte, from its 8 stream-ordered bits."""
    bits = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1, bitorder="little"
    ).astype(np.int16)
    run = np.zeros(256, dtype=np.int16)
    longest = np.zeros(256, dtype=np.int16)
    for column in bits.T:
        run = (run + 1) * column
        np.maximum(longest, run, out=longest)
    walk = np.cumsum(2 * bits - 1, axis=1, dtype=np.int16)
    return {
        "longest": longest,
        "prefix": np.cumprod(bits, axis=1).sum(axis=1, dtype=np.int16),
        "suffix": np.cumprod(bits[:, ::-1], axis=1).sum(axis=1, dtype=np.int16),
        "walk_max": walk.max(axis=1),
        "walk_min": walk.min(axis=1),
        "walk_sum": walk[:, -1],
    }


def _byte_pair_luts(byte: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The 16-bit chunk tables: chunk v is byte ``v & 255`` then ``v >> 8``."""
    first = {key: np.tile(table, 256) for key, table in byte.items()}
    second = {key: np.repeat(table, 256) for key, table in byte.items()}
    full = np.int16(8)
    return {
        "longest": np.maximum(
            np.maximum(first["longest"], second["longest"]),
            first["suffix"] + second["prefix"],
        ),
        "prefix": first["prefix"] + (first["prefix"] == full) * second["prefix"],
        "suffix": second["suffix"] + (second["suffix"] == full) * first["suffix"],
        "walk_max": np.maximum(first["walk_max"], first["walk_sum"] + second["walk_max"]),
        "walk_min": np.minimum(first["walk_min"], first["walk_sum"] + second["walk_min"]),
        "walk_sum": first["walk_sum"] + second["walk_sum"],
    }


_WALK_FIELDS: Optional[np.ndarray] = None
_RUN_PACK_LUTS: Dict[int, np.ndarray] = {}


def _walk_field_lut() -> np.ndarray:
    """The walk table: each 16-bit chunk's ±1-walk summary in one int16.

    Entry v is ``((walk_max + 1) << 10) | ((walk_min + 16) << 5) | ones``:
    a chunk's walk max lies in [-1, 16], its min in [-16, 1] and its ones
    count in [0, 16], so each field fits 5 bits and one gather per chunk
    yields all three.  Unpacking is a shift and a mask (flat ops, far
    cheaper than a second gather or a uint16 popcount).  Built once from
    the 16-bit chunk tables, under their lock.
    """
    global _WALK_FIELDS
    if _WALK_FIELDS is None:
        luts = _chunk_luts(16)
        with _CHUNK_LUTS_LOCK:
            if _WALK_FIELDS is None:
                ones = (luts["walk_sum"].astype(np.int32) + 16) >> 1
                fields = (
                    ((luts["walk_max"].astype(np.int32) + 1) << 10)
                    | ((luts["walk_min"].astype(np.int32) + 16) << 5)
                    | ones
                )
                _WALK_FIELDS = fields.astype(np.int16)
    return _WALK_FIELDS


def _word_walks(chunks: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """±1-walk summary of full words given as ``(rows, words, 4)`` chunks.

    Returns int16 ``(rows, words)`` arrays ``(high + 1, low + 16, delta)``:
    each word's walk max and min relative to its start, still carrying the
    table's field biases, and its total delta.  One gather through the walk
    table, indexed through a transposed view, lays the chunks out as four
    contiguous planes (one per chunk position); the planes are merged right
    to left, ``high = max(high_c, delta_c + high)``, in place.  The biases
    ride through the merge unchanged because the deltas are unbiased.
    """
    fields = np.take(_walk_field_lut(), chunks.transpose(2, 0, 1))
    highs = fields >> np.int16(10)
    lows = fields >> np.int16(5)
    lows &= np.int16(31)
    # The chunk deltas, in place of the fields: 2 * ones - 16.
    fields &= np.int16(31)
    fields <<= np.int16(1)
    fields -= np.int16(16)
    high, low, delta = highs[3], lows[3], fields[3]
    for index in (2, 1, 0):
        chunk_delta = fields[index]
        high += chunk_delta
        np.maximum(high, highs[index], out=high)
        low += chunk_delta
        np.minimum(low, lows[index], out=low)
        delta += chunk_delta
    return high, low, delta


def _run_pack_lut(bits: int) -> np.ndarray:
    """Chunk one-run lengths packed ``(longest << 10) | (prefix << 5) | suffix``.

    All three lengths of a ``bits``-wide chunk (8 or 16) lie in [0, 16]
    (5 bits each), so the triple fits one int16 gather; ``prefix == bits``
    doubles as the all-ones test the cross-chunk merge needs.
    """
    lut = _RUN_PACK_LUTS.get(bits)
    if lut is None:
        luts = _chunk_luts(bits)
        triple = (
            (luts["longest"].astype(np.int32) << 10)
            | (luts["prefix"].astype(np.int32) << 5)
            | luts["suffix"].astype(np.int32)
        )
        lut = _RUN_PACK_LUTS[bits] = triple.astype(np.int16)
    return lut


# Pure reinterpret-cast of the zero-padded words; callers slice to their
# own geometry, so the view itself never consults .n or masks the tail.
def _chunk_view(packed: PackedMatrix, bits: int) -> np.ndarray:  # repro: ignore[PKD002]
    """The words reinterpreted as stream-ordered ``bits``-wide chunks."""
    dtype = "<u2" if bits == 16 else np.uint8
    return np.ascontiguousarray(packed.words).view(dtype)


def supports_block_longest_one_runs(block_length: int, n: int) -> bool:
    """True when :func:`block_longest_one_runs` reads the blocks straight
    off the words (full blocks whose length is a multiple of 8)."""
    if block_length <= 0 or block_length > n:
        return False
    return block_length % 8 == 0


def block_longest_one_runs(packed: PackedMatrix, block_length: int) -> np.ndarray:
    """Longest run of ones inside each full ``block_length``-bit block.

    Blocks are scanned as 16-bit chunks (8-bit when the block length is not
    a multiple of 16) through the packed run-triple table, then merged left
    to right one chunk column at a time: a run crossing a chunk seam is the
    left chunk's suffix plus the right chunk's prefix, and an all-ones chunk
    extends the carried run whole.  Each merge step touches one chunk per
    block, so rows are tiled by their block count.  Every NIST-tabulated
    block length (8 / 128 / 512 / 1000 / 10000) is a multiple of 8 and read
    off the words; any other length re-packs each block from a transient
    unpack, zero-padded to a byte (a trailing zero ends a run and starts
    none).  With no full block the result is ``(rows, 0)``.
    """
    if block_length <= 0:
        raise ValueError("block_length must be positive")
    rows = packed.num_rows
    num_blocks = packed.n // block_length
    if block_length % 8:
        chunk_bits = 8
        bits = unpack_rows(packed, 0, rows)[:, : num_blocks * block_length]
        blocks = np.packbits(
            bits.reshape(rows, num_blocks, block_length), axis=2, bitorder="little"
        )
    else:
        chunk_bits = 16 if block_length % 16 == 0 else 8
        per_block = block_length // chunk_bits
        chunks = _chunk_view(packed, chunk_bits)[:, : num_blocks * per_block]
        blocks = chunks.reshape(rows, num_blocks, per_block)
    # The merge runs in int16 while a run (at most block_length) fits it.
    merge = np.int16 if block_length < 1 << 15 else np.int32
    triples = _run_pack_lut(chunk_bits).astype(merge, copy=False)
    chunks_per_block = blocks.shape[2]
    chunk_width = merge(chunk_bits)
    result = np.empty((rows, num_blocks), dtype=np.int64)
    for tile in _row_tiles(rows, num_blocks):
        tile_blocks = blocks[tile]
        triple = np.take(triples, tile_blocks[:, :, 0])
        longest = triple >> merge(10)
        trailing = triple & merge(31)
        for index in range(1, chunks_per_block):
            triple = np.take(triples, tile_blocks[:, :, index])
            np.maximum(longest, triple >> merge(10), out=longest)
            prefix = (triple >> merge(5)) & merge(31)
            np.maximum(longest, trailing + prefix, out=longest)
            # An all-ones chunk (prefix == width) carries the run on; any
            # other chunk restarts it at its own suffix.
            trailing *= prefix == chunk_width
            trailing += triple & merge(31)
        result[tile] = longest
    return result


# ---------------------------------------------------------------------------
# Window values (the template shift register)
# ---------------------------------------------------------------------------

#: Byte ``b`` with its bit order reversed: a little-order byte of stream bits
#: becomes MSB-first, the order window values are read in.
_BIT_REVERSE = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1),
    axis=1,
    bitorder="little",
).ravel()

#: Widest window one 32-bit funnel holds at all 8 bit offsets of a byte.
_FUNNEL_WINDOW = 25


def window_values(packed: PackedMatrix, m: int) -> np.ndarray:
    """MSB-first value of every overlapping ``m``-bit window, per row.

    The software form of the paper's template shift register: window ``p``
    of a row is the integer whose bits, most significant first, are stream
    bits ``p .. p + m - 1``; the result has shape ``(rows, n - m + 1)``.
    Row bytes are bit-reversed to MSB-first, every 4 consecutive bytes are
    funnelled into one big-endian uint32 ``big[k]``, and window ``8k + o``
    is ``(big[k] >> (32 - o - m)) & mask`` — 8 strided writes, one per bit
    offset, over cache-sized row tiles.  Values are uint16 for ``m <= 16``
    and uint32 up to ``m = 25``; a wider window is the int64 composition of
    an ``(m - 16)``-bit window and the 16-bit window ``m - 16`` bits later.
    """
    n = packed.n
    num_windows = n - m + 1
    if m < 1:
        raise ValueError("window length m must be positive")
    if num_windows <= 0:
        raise ValueError(f"window length m={m} exceeds sequence length n={n}")
    if m > _FUNNEL_WINDOW:
        values = window_values(packed, m - 16)[:, :num_windows].astype(np.int64)
        values <<= 16
        values |= window_values(packed, 16)[:, m - 16 :]
        return values
    rows = packed.num_rows
    groups = -(-num_windows // 8)
    row_bytes = np.ascontiguousarray(packed.words).view(np.uint8)
    usable = min(groups + 3, row_bytes.shape[1])
    values = np.empty((rows, 8 * groups), dtype=np.uint16 if m <= 16 else np.uint32)
    mask = np.uint32((1 << m) - 1)
    for tile in _row_tiles(rows, groups):
        # Three zero bytes past the last group keep every funnel inside the
        # tile; the windows they reach start past n - m and are sliced off.
        msb = np.zeros((tile.stop - tile.start, groups + 3), dtype=np.uint8)
        np.take(_BIT_REVERSE, row_bytes[tile, :usable], out=msb[:, :usable])
        big = np.ndarray(
            (msb.shape[0], groups), dtype=">u4", buffer=msb, strides=(msb.strides[0], 1)
        ).astype(np.uint32)
        shifted = np.empty_like(big)
        out = values[tile]
        for offset in range(8):
            np.right_shift(big, np.uint32(32 - offset - m), out=shifted)
            np.bitwise_and(shifted, mask, out=out[:, offset::8], casting="unsafe")
    return values[:, :num_windows]


def wrap_seam(packed: PackedMatrix, width: int) -> PackedMatrix:
    """Each row's last ``width`` bits followed by its first ``width`` bits.

    The cyclic convention of the pattern counters extends a row by its own
    head; the ``m - 1`` windows that wrap from the tail into the head are the
    windows of this ``2 * width``-bit seam (``width = m - 1 <= n``), read off
    the row's first and last words.
    """
    n = packed.n
    positions = np.concatenate([np.arange(n - width, n), np.arange(width)])
    shifts = (positions % BITS_PER_WORD).astype(np.uint64)
    bits = (packed.words[:, positions // BITS_PER_WORD] >> shifts) & np.uint64(1)
    return pack_matrix(bits.astype(np.uint8))


def walk_extremes(packed: PackedMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(S_max, S_min, S_final)`` of the ±1 walk, per row (cusum test).

    The walk is reduced 64 bits at a time: each full word contributes its
    total delta and its internal max/min excursion (:func:`_word_walks`,
    one table gather per chunk), so the per-bit cumulative sum becomes a
    64x narrower int32 cumulative sum over word deltas, run over
    cache-sized row tiles.  Tail bits past the last full word are finished
    per bit on the (at most 63-column) remainder.
    """
    n = packed.n
    if n == 0:
        raise ValueError("walk extremes need at least one bit")
    rows = packed.num_rows
    full = n // BITS_PER_WORD
    tail = n % BITS_PER_WORD
    s_max = np.full(rows, _INT32_MIN, dtype=np.int64)
    s_min = np.full(rows, -_INT32_MIN, dtype=np.int64)
    s_final = np.zeros(rows, dtype=np.int64)
    if full:
        chunks = _chunk_view(packed, 16)
        for tile in _row_tiles(rows, n // 16):
            body = chunks[tile, : 4 * full]
            high, low, delta = _word_walks(body.reshape(body.shape[0], full, 4))
            before = np.cumsum(delta, axis=1, dtype=np.int32)
            s_final[tile] = before[:, -1]
            # Walk height before each word; the extremes drop the table's
            # field biases (+1 on the max, +16 on the min) once per row.
            before -= delta
            s_max[tile] = (before + high).max(axis=1) - 1
            s_min[tile] = (before + low).min(axis=1) - 16
    if tail:
        tail_word = packed.words[:, full, np.newaxis]
        shifts = np.arange(tail, dtype=np.uint64)
        tail_bits = ((tail_word >> shifts) & np.uint64(1)).astype(np.int64)
        tail_walk = np.cumsum(2 * tail_bits - 1, axis=1) + s_final[:, np.newaxis]
        np.maximum(s_max, tail_walk.max(axis=1), out=s_max)
        np.minimum(s_min, tail_walk.min(axis=1), out=s_min)
        s_final = tail_walk[:, -1]
    return s_max, s_min, s_final


#: Words per group of :func:`walk_bounds`: the walk's heights are summed in
#: int16 inside a group and in int32 over group totals.
_BOUNDS_GROUP = 16


def walk_bounds(
    packed: PackedMatrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Brackets of the ±1 walk's extremes from its word-boundary heights.

    Returns int64 ``(max_low, max_high, min_low, min_high, s_final)`` per
    row, with ``max_low <= S_max <= max_high``, ``min_low <= S_min <=
    min_high`` and ``s_final`` exact.  The heights after each word are
    points of the walk, so their max and min are the inner bounds.  Inside
    word ``w`` the walk stays within ``[before_w - zeros_w, before_w +
    ones_w]``, so the outer bounds are the max and min of those ends over
    the words, and each bracket is at most 64 wide.  The pass is a popcount
    and a prefix sum over words, without the table gathers of
    :func:`walk_extremes`.

    Heights are kept halved, ``c_w = sum(ones - 32)`` over the words up to
    ``w``, so that ``before_w + ones_w = c_{w-1} + c_w + 32``.  Full words
    are taken in groups of 16: one int16 plane per position in the group
    holds the halved heights relative to the group's start, summed plane by
    plane, and the int32 cumulative sum runs over the group totals only (a
    sixteenth of the words).  Words past the last full group, and the tail
    word with its own length, are stepped one column at a time.
    """
    n = packed.n
    if n == 0:
        raise ValueError("walk bounds need at least one bit")
    rows = packed.num_rows
    groups = n // (BITS_PER_WORD * _BOUNDS_GROUP)
    grouped = groups * _BOUNDS_GROUP
    half = BITS_PER_WORD // 2
    max_low = np.full(rows, _INT32_MIN, dtype=np.int64)
    max_high = np.full(rows, _INT32_MIN, dtype=np.int64)
    min_low = np.full(rows, -_INT32_MIN, dtype=np.int64)
    min_high = np.full(rows, -_INT32_MIN, dtype=np.int64)
    s_final = np.zeros(rows, dtype=np.int64)
    # A tile's int16 planes take 32 bytes per group, 512 KiB at 2^14 groups
    # (256 rows of 65,536 bits); each tile makes ~100 numpy calls.
    for tile in _row_tiles(rows, 4 * groups) if groups else ():
        words = packed.words[tile, :grouped].reshape(-1, groups, _BOUNDS_GROUP)
        planes = popcount(words.transpose(2, 0, 1)).astype(np.int16, order="C")
        planes -= np.int16(half)
        high, low = planes[0].copy(), planes[0].copy()
        reach_high, reach_low = planes[0].copy(), planes[0].copy()
        pair = np.empty_like(high)
        for index in range(1, _BOUNDS_GROUP):
            np.add(planes[index - 1], planes[index], out=planes[index])
            np.maximum(high, planes[index], out=high)
            np.minimum(low, planes[index], out=low)
            np.add(planes[index - 1], planes[index], out=pair)
            np.maximum(reach_high, pair, out=reach_high)
            np.minimum(reach_low, pair, out=reach_low)
        totals = np.cumsum(planes[-1], axis=1, dtype=np.int32)
        starts = totals - planes[-1]
        s_final[tile] = 2 * totals[:, -1]
        max_low[tile] = 2 * (starts + high).max(axis=1)
        min_high[tile] = 2 * (starts + low).min(axis=1)
        starts *= 2
        max_high[tile] = (starts + reach_high).max(axis=1) + half
        min_low[tile] = (starts + reach_low).min(axis=1) - half
    for word in range(grouped, packed.num_words):
        length = min(BITS_PER_WORD, n - word * BITS_PER_WORD)
        ones = popcount(packed.words[:, word]).astype(np.int64)
        np.maximum(max_high, s_final + ones, out=max_high)
        np.minimum(min_low, s_final + ones - length, out=min_low)
        s_final += 2 * ones - length
        np.maximum(max_low, s_final, out=max_low)
        np.minimum(min_high, s_final, out=min_high)
    return max_low, max_high, min_low, min_high, s_final
