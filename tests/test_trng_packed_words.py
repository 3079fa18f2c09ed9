"""The packed entry ``generate_words`` against the bit entry ``generate_block``.

From equal states, ``generate_words(n)`` must equal ``generate_block(n)``
packed by :func:`repro.engine.packed.pack_matrix`, with zero pad bits, for
every pinned source stream, a dead source and a capture wrapper: at any
starting offset, interleaved with ``next_bit()``, across a pickle or deep
copy taken mid-word and after a ``reset()`` that follows a mid-word block.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.engine.packed import WORD_DTYPE, PackedMatrix, pack_matrix
from repro.trng import CaptureSource, DeadSource, IdealSource
from test_trng_stream_pins import PINNED_STREAMS

FACTORIES = {label: factory for label, (factory, _) in PINNED_STREAMS.items()}
FACTORIES["dead"] = DeadSource
FACTORIES["capture-on-ideal"] = lambda: CaptureSource(IdealSource(seed=49))

#: Request sizes: word-aligned ones take a source's word path, the others
#: its packing fallback.
SIZES = (64, 1, 63, 128, 65, 1000, 4096)


def packed(bits):
    return pack_matrix(np.asarray(bits)[np.newaxis]).words[0]


def assert_words(words, n, expected):
    assert words.dtype == WORD_DTYPE
    assert words.shape == (-(-n // 64),)
    if n % 64:
        assert int(words[-1]) >> (n % 64) == 0
    assert np.array_equal(words, expected)


def cases():
    return sorted(FACTORIES)


@pytest.mark.parametrize("offset", [0, 1, 63, 65, 1000])
@pytest.mark.parametrize("label", cases())
def test_words_equal_packed_block_at_every_offset(label, offset):
    words_side, bits_side = FACTORIES[label](), FACTORIES[label]()
    words_side.generate_block(offset)
    bits_side.generate_block(offset)
    for n in SIZES:
        assert_words(words_side.generate_words(n), n, packed(bits_side.generate_block(n)))


@pytest.mark.parametrize("label", cases())
def test_next_bit_interleaved_between_blocks(label):
    words_side, bits_side = FACTORIES[label](), FACTORIES[label]()
    for step, n in enumerate(SIZES):
        for _ in range(step % 3):
            assert words_side.next_bit() == bits_side.next_bit()
        assert_words(words_side.generate_words(n), n, packed(bits_side.generate_block(n)))


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
@pytest.mark.parametrize("label", cases())
def test_clone_taken_mid_word(label, clone):
    source = FACTORIES[label]()
    source.generate_block(37)
    if clone == "pickle":
        twin = pickle.loads(pickle.dumps(source))
    else:
        twin = copy.deepcopy(source)
    for n in (128, 27, 64):
        assert_words(twin.generate_words(n), n, packed(source.generate_block(n)))


@pytest.mark.parametrize("label", cases())
def test_reset_after_mid_word_block(label):
    source, fresh = FACTORIES[label](), FACTORIES[label]()
    source.generate_block(37)
    source.reset()
    for n in (128, 100):
        assert_words(source.generate_words(n), n, packed(fresh.generate_block(n)))


def test_capture_records_the_words_it_serves():
    capture = CaptureSource(IdealSource(seed=5))
    words = np.concatenate([capture.generate_words(128), capture.generate_words(64)])
    assert capture.captured_bits == 192
    assert np.array_equal(packed(capture.captured().bits), words)


@pytest.mark.parametrize("n", [128, 100])
@pytest.mark.parametrize("label", ["ideal", "ideal-v2", "biased-0.6"])
def test_packed_matrix_is_the_packed_uint8_matrix(label, n):
    matrix = FACTORIES[label]().generate_matrix(5, n, packed=True)
    assert isinstance(matrix, PackedMatrix) and matrix.n == n
    assert np.array_equal(matrix.words, pack_matrix(FACTORIES[label]().generate_matrix(5, n)).words)


def test_ideal_word_dtype_is_the_engine_word_dtype():
    # IdealSource keeps its own copy so its per-call path imports nothing.
    from repro.trng import ideal

    assert ideal._WORD_DTYPE == WORD_DTYPE
    assert IdealSource(seed=3).generate_words(128).dtype == WORD_DTYPE
