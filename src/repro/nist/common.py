"""Shared utilities for the reference NIST SP 800-22 implementations.

The helpers in this module are used by the individual test modules and by
other parts of the library (the hardware model uses :func:`to_bits` for its
input streams, the software routines use :func:`igamc` indirectly through the
precomputed critical values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np
from scipy import special as _special

__all__ = [
    "BitsLike",
    "BitSequence",
    "TestResult",
    "to_bits",
    "pack_bits",
    "unpack_bits",
    "bits_from_bytes",
    "bits_from_int",
    "bits_to_int",
    "igamc",
    "erfc",
    "normal_cdf",
    "pattern_counts",
    "template_block_hits",
    "phi_from_counts",
    "psi_squared",
    "psi_squared_from_counts",
    "berlekamp_massey",
    "binary_matrix_rank",
    "chunk",
]

#: Types accepted wherever a bit sequence is expected.
BitsLike = Union["BitSequence", Sequence[int], np.ndarray, str, bytes, bytearray]


def to_bits(bits: BitsLike) -> np.ndarray:
    """Normalise any supported bit-sequence representation to a uint8 array.

    Accepted inputs:

    * a :class:`BitSequence`,
    * a numpy array or Python sequence of 0/1 integers (or booleans),
    * a string of ``'0'``/``'1'`` characters (whitespace ignored),
    * ``bytes``/``bytearray`` — unpacked MSB-first, 8 bits per byte.

    Raises
    ------
    ValueError
        If any element is not 0 or 1, or the input type is unsupported.
    """
    if isinstance(bits, BitSequence):
        return bits.bits
    if isinstance(bits, np.ndarray) and bits.dtype == np.uint8 and bits.ndim == 1:
        # Zero-copy fast path for source blocks: a 1-D uint8 array is the
        # native stream representation, so it is validated and passed
        # through as-is instead of round-tripping through int64.
        if bits.size and int(bits.max()) > 1:
            raise ValueError("bit sequence must contain only 0 and 1 values")
        return bits
    if isinstance(bits, str):
        cleaned = "".join(bits.split())
        if cleaned and set(cleaned) - {"0", "1"}:
            raise ValueError("bit string may only contain '0' and '1'")
        return np.frombuffer(cleaned.encode("ascii"), dtype=np.uint8) - ord("0")
    if isinstance(bits, (bytes, bytearray)):
        return bits_from_bytes(bits)
    arr = np.asarray(bits)
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    arr = arr.astype(np.int64, copy=False)
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("bit sequence must contain only 0 and 1 values")
    return arr.astype(np.uint8)


# ---------------------------------------------------------------------------
# Byte-level packing (the single stream/file tail convention)
# ---------------------------------------------------------------------------
#
# Every byte-level bit container in the library — capture files, replayed
# logic-analyser dumps, MSB-first integers — goes through this one helper
# pair instead of hand-rolled ``np.packbits`` calls with divergent tail
# handling.  The convention: bits map to bytes MSB first, a trailing partial
# byte is zero-padded on the *right* (low bits), and an explicit ``count``
# recovers the exact stream on the way back.  (The engine's 64-bit compute
# words in :mod:`repro.engine.packed` deliberately use the opposite, little,
# bit order — that is a compute-kernel layout, not an interchange format.)

def pack_bits(bits: BitsLike) -> np.ndarray:
    """Pack a bit sequence into bytes, MSB of each byte first.

    A trailing partial byte is zero-padded on the right; keep the original
    bit count alongside the bytes (as :meth:`CaptureSource.save
    <repro.trng.capture.CaptureSource.save>` does) and hand it to
    :func:`unpack_bits` for an exact round-trip at any length.
    """
    arr = to_bits(bits)
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.packbits(arr)


def unpack_bits(data: Union[bytes, bytearray, np.ndarray], count: Optional[int] = None) -> np.ndarray:
    """Unpack MSB-first bytes into a uint8 bit array (inverse of :func:`pack_bits`).

    ``count`` keeps only the first ``count`` bits, dropping the zero-pad
    bits of a trailing partial byte; ``None`` keeps all 8 bits per byte.
    """
    raw = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    if count is not None and not 0 <= count <= raw.size * 8:
        raise ValueError(f"count must lie in 0..{raw.size * 8}, got {count}")
    return np.unpackbits(raw, count=count)


def bits_from_bytes(data: Union[bytes, bytearray]) -> np.ndarray:
    """Unpack a byte string into a bit array, MSB of each byte first."""
    return unpack_bits(data)


def bits_from_int(value: int, width: int) -> np.ndarray:
    """Return ``width`` bits of ``value``, most-significant bit first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if width <= 0:
        raise ValueError("width must be positive")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    num_bytes = (width + 7) // 8
    # Integers pad on the *left* (high bits), so drop the leading pad bits
    # rather than unpacking with a right-tail count.
    raw = value.to_bytes(num_bytes, "big")
    return unpack_bits(raw)[num_bytes * 8 - width :].copy()


def bits_to_int(bits: BitsLike) -> int:
    """Interpret a bit sequence as an unsigned integer, MSB first."""
    arr = to_bits(bits)
    if arr.size == 0:
        return 0
    # pack_bits pads the final byte on the right with zeros, so the packed
    # integer is the wanted value shifted left by the pad width.
    value = int.from_bytes(pack_bits(arr).tobytes(), "big")
    return value >> ((-arr.size) % 8)


class BitSequence:
    """An immutable sequence of bits with convenience accessors.

    This is a thin wrapper around a numpy ``uint8`` array; it exists so that
    library users have a single obvious type to pass around, and so that
    common derived quantities (number of ones, ±1 mapping) are available
    without re-deriving them at every call site.
    """

    __slots__ = ("_bits", "_ones")

    def __init__(self, bits: BitsLike):
        arr = to_bits(bits)
        arr.setflags(write=False)
        self._bits = arr
        self._ones: Optional[int] = None

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self._bits.size)

    def __iter__(self):
        return iter(int(b) for b in self._bits)

    def __getitem__(self, index):
        result = self._bits[index]
        if isinstance(index, slice):
            return BitSequence(result)
        return int(result)

    def __eq__(self, other) -> bool:
        if isinstance(other, BitSequence):
            return np.array_equal(self._bits, other._bits)
        try:
            return np.array_equal(self._bits, to_bits(other))
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits.tobytes())

    def __repr__(self) -> str:
        preview = "".join(str(int(b)) for b in self._bits[:32])
        suffix = "..." if len(self) > 32 else ""
        return f"BitSequence(n={len(self)}, bits={preview}{suffix})"

    # -- accessors ---------------------------------------------------------
    @property
    def bits(self) -> np.ndarray:
        """The underlying read-only uint8 array of 0/1 values."""
        return self._bits

    @property
    def n(self) -> int:
        """Sequence length."""
        return int(self._bits.size)

    @property
    def ones(self) -> int:
        """Total number of ones in the sequence (computed once, then cached)."""
        if self._ones is None:
            self._ones = int(self._bits.sum())
        return self._ones

    @property
    def zeros(self) -> int:
        """Total number of zeros in the sequence."""
        return self.n - self.ones

    @property
    def proportion(self) -> float:
        """Fraction of ones."""
        if self.n == 0:
            return 0.0
        return self.ones / self.n

    def as_pm1(self) -> np.ndarray:
        """Map bits to ±1: ``1 -> +1`` and ``0 -> -1`` (NIST's 2ε-1)."""
        return 2 * self._bits.astype(np.int64) - 1

    def to01(self) -> str:
        """Return the sequence as a string of '0'/'1' characters."""
        return "".join(str(int(b)) for b in self._bits)

    def concat(self, other: BitsLike) -> "BitSequence":
        """Return a new sequence with ``other`` appended."""
        return BitSequence(np.concatenate([self._bits, to_bits(other)]))


@dataclass
class TestResult:
    """Outcome of a single statistical test.

    Attributes
    ----------
    name:
        Human-readable test name ("Frequency (Monobit) Test", ...).
    statistic:
        The primary decision statistic (test-specific; e.g. ``s_obs`` for the
        frequency test, χ² for the block-frequency test).
    p_value:
        The primary P-value.
    p_values:
        All P-values produced by the test (some NIST tests produce two or
        more, e.g. the serial and cumulative-sums tests).
    details:
        Test-specific intermediate values, useful for debugging and for the
        HW/SW equivalence checks.
    """

    #: Not a pytest test class, despite the name (prevents collection warnings).
    __test__ = False

    name: str
    statistic: float
    p_value: float
    p_values: List[float] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.p_values:
            self.p_values = [self.p_value]

    def passed(self, alpha: float = 0.01) -> bool:
        """Return True when the randomness hypothesis is accepted at ``alpha``.

        NIST's decision rule: the sequence passes a test when *every*
        P-value produced by the test is at least the level of significance.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        return all(p >= alpha for p in self.p_values)

    @property
    def min_p_value(self) -> float:
        """The smallest P-value produced by the test (drives the decision)."""
        return min(self.p_values)


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def igamc(a: float, x: float) -> float:
    """Complemented incomplete gamma function Q(a, x) as used by NIST."""
    if a <= 0:
        raise ValueError("shape parameter a must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    return float(_special.gammaincc(a, x))


def erfc(x: float) -> float:
    """Complementary error function."""
    return float(_special.erfc(x))


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function Φ(x)."""
    return 0.5 * erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Pattern counting (serial / approximate entropy)
# ---------------------------------------------------------------------------

def pattern_counts(bits: BitsLike, m: int, *, cyclic: bool = True) -> np.ndarray:
    """Count occurrences of every overlapping ``m``-bit pattern.

    Parameters
    ----------
    bits:
        Input bit sequence of length ``n``.
    m:
        Pattern length; ``m == 0`` returns a single count equal to ``n``.
    cyclic:
        When True (the NIST convention for the serial and approximate-entropy
        tests) the sequence is extended by its own first ``m - 1`` bits so
        that exactly ``n`` windows are counted.

    Returns
    -------
    numpy.ndarray
        Array of length ``2**m``; entry ``i`` is the number of occurrences of
        the pattern whose MSB-first integer value is ``i``.
    """
    arr = to_bits(bits).astype(np.int64)
    n = arr.size
    if m < 0:
        raise ValueError("pattern length m must be non-negative")
    if m == 0:
        return np.array([n], dtype=np.int64)
    if n == 0:
        return np.zeros(1 << m, dtype=np.int64)
    if m > n:
        raise ValueError(f"pattern length m={m} exceeds sequence length n={n}")
    if cyclic:
        extended = np.concatenate([arr, arr[: m - 1]]) if m > 1 else arr
        num_windows = n
    else:
        extended = arr
        num_windows = n - m + 1
    weights = 1 << np.arange(m - 1, -1, -1)
    values = np.zeros(num_windows, dtype=np.int64)
    for offset in range(m):
        values += extended[offset : offset + num_windows] * weights[offset]
    return np.bincount(values, minlength=1 << m).astype(np.int64)


def template_block_hits(
    values: np.ndarray, target: int, num_blocks: int, block_length: int, m: int
) -> np.ndarray:
    """Windows equal to ``target`` inside each block, per row.

    ``values`` holds the ``(rows, n - m + 1)`` non-cyclic ``m``-bit window
    values of each row.  Block ``i`` covers bits ``[i*M, (i+1)*M)``, so its
    windows start at ``i*M .. i*M + M - m``: a window crossing the block's
    end is not the block's.  Returns a ``(rows, num_blocks)`` int array,
    the overlapping occurrence count of the template in every block (and,
    for an aperiodic template, its non-overlapping count too).
    """
    rows = values.shape[0]
    span = num_blocks * block_length
    # The last block's windows end at span - m <= n - m, so every window a
    # block owns exists; the tail of ``hits`` past the final window only
    # pads the reshape and is sliced away with the crossing windows.
    hits = np.zeros((rows, span), dtype=bool)
    usable = min(span, values.shape[1])
    np.equal(values[:, :usable], target, out=hits[:, :usable])
    blocks = hits.reshape(rows, num_blocks, block_length)
    return np.count_nonzero(blocks[:, :, : block_length - m + 1], axis=2)


def psi_squared_from_counts(counts: np.ndarray, n: int) -> float:
    """ψ²_m from precomputed cyclic pattern counts (``len(counts) == 2^m``).

    Shared by the reference :func:`psi_squared` and the engine's batch
    serial entry so both produce bit-identical values.
    """
    counts = np.asarray(counts)
    return float(len(counts) / n * np.sum(counts.astype(np.float64) ** 2) - n)


def phi_from_counts(counts: np.ndarray, n: int) -> float:
    """NIST's φ^(m) = Σ (ν_i/n)·ln(ν_i/n) from precomputed cyclic counts.

    Shared by the reference approximate-entropy test and the engine's
    batch entry so both produce bit-identical values.
    """
    counts = np.asarray(counts).astype(np.float64)
    nonzero = counts[counts > 0]
    proportions = nonzero / n
    return float(np.sum(proportions * np.log(proportions)))


def psi_squared(bits: BitsLike, m: int) -> float:
    """NIST's ψ²_m statistic used by the serial test.

    ψ²_m = (2^m / n) Σ ν_i² − n, computed over the cyclically-extended
    sequence.  ψ²_0 and ψ²_{-1} are defined as 0.
    """
    arr = to_bits(bits)
    n = arr.size
    if m <= 0:
        return 0.0
    return psi_squared_from_counts(pattern_counts(arr, m, cyclic=True), n)


# ---------------------------------------------------------------------------
# Linear complexity (Berlekamp–Massey)
# ---------------------------------------------------------------------------

def berlekamp_massey(bits: BitsLike) -> int:
    """Return the linear complexity of a binary sequence.

    Standard Berlekamp–Massey over GF(2); the returned value is the length of
    the shortest LFSR that generates the sequence.
    """
    s = to_bits(bits).astype(np.uint8)
    n = s.size
    if n == 0:
        return 0
    c = np.zeros(n, dtype=np.uint8)
    b = np.zeros(n, dtype=np.uint8)
    c[0] = 1
    b[0] = 1
    L = 0
    m = -1
    for i in range(n):
        # discrepancy
        d = int(s[i])
        if L > 0:
            d ^= int(np.bitwise_and(c[1 : L + 1], s[i - L : i][::-1]).sum() & 1)
        if d == 1:
            t = c.copy()
            shift = i - m
            c[shift : n] ^= b[: n - shift]
            if 2 * L <= i:
                L = i + 1 - L
                m = i
                b = t
    return L


# ---------------------------------------------------------------------------
# Binary matrix rank over GF(2)
# ---------------------------------------------------------------------------

def binary_matrix_rank(matrix: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) via Gaussian elimination."""
    m = np.array(matrix, dtype=np.uint8, copy=True)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = m.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        pivot = None
        for r in range(pivot_row, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[pivot_row, pivot]] = m[[pivot, pivot_row]]
        for r in range(rows):
            if r != pivot_row and m[r, col]:
                m[r, :] ^= m[pivot_row, :]
        pivot_row += 1
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Misc helpers
# ---------------------------------------------------------------------------

def chunk(bits: BitsLike, block_length: int, *, discard_partial: bool = True) -> List[np.ndarray]:
    """Split a bit sequence into consecutive blocks of ``block_length`` bits.

    A trailing partial block is discarded when ``discard_partial`` is True
    (the NIST convention), otherwise it is returned as the final element.
    """
    arr = to_bits(bits)
    if block_length <= 0:
        raise ValueError("block_length must be positive")
    full = arr.size // block_length
    blocks = [arr[i * block_length : (i + 1) * block_length] for i in range(full)]
    if not discard_partial and arr.size % block_length:
        blocks.append(arr[full * block_length :])
    return blocks
