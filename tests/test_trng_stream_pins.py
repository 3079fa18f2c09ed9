"""Seeded-stream pins for the simulated entropy sources.

Each source below draws 2**17 bits in uneven splits (1, 63, 1000, 65536
bits, then the rest) and the SHA-256 of the emitted bits is compared with a
recorded digest.  The split-invariance tests in ``test_trng_block_parity``
compare a source with itself; these pins compare it with its own history,
so a rewrite of a source's generation idiom that moves a single bit of any
seeded stream fails here.

The property test covers the identity the ring oscillator's sampler rests
on: for every float64 ``x``, ``(x % 1.0) < 0.5`` and
``(x - floor(x)) < 0.5`` agree.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trng import (
    AgingSource,
    BiasedSource,
    EMInjectionAttack,
    FrequencyInjectionAttack,
    IdealSource,
    RingOscillatorTRNG,
)

TOTAL_BITS = 1 << 17


def ideal_stream_1(seed):
    """An ``IdealSource`` on stream 1 (``Generator.integers(0, 2)``), the
    stream a pickle from before stream versions restores onto."""
    source = IdealSource(seed=seed)
    source.stream_version = 1
    return source

SPLITS = (1, 63, 1000, 65536)

#: label -> (factory, SHA-256 of the 2**17 emitted bits as uint8 bytes).
PINNED_STREAMS = {
    "ideal": (
        lambda: ideal_stream_1(41),
        "927959547b6b7f25718d3ef1c9744ffa436df5a9067acd9d990f2e11a6fea71a",
    ),
    "ideal-v2": (
        lambda: IdealSource(seed=41),
        "bc34c2e32738c3a03ec1b3b51a521176c3d89622c320ce554e9ae7a4ba4dd812",
    ),
    "ring-oscillator-free": (
        lambda: RingOscillatorTRNG(seed=42),
        "8242e088dcac03b91a95358be6f676a1301a6547660c9581dbcf67b29fdddbb0",
    ),
    "freq-injection-locked": (
        lambda: FrequencyInjectionAttack(
            RingOscillatorTRNG(seed=43), lock_strength=1.0, start_bit=0
        ),
        "e3c752d9a39bacd773e6392de0b2119e07b18cf83a891e3dd2af87a6ac00752e",
    ),
    "freq-injection-staged-mid-block": (
        lambda: FrequencyInjectionAttack(
            RingOscillatorTRNG(seed=44), lock_strength=0.9, start_bit=40_000
        ),
        "c2e79a140d56ca61d199d8ddaa2f953e9499e5d62e1c544eb5ae6142125be038",
    ),
    "biased-0.6": (
        lambda: BiasedSource(0.6, seed=45),
        "998823a7a3dd5e0cd46833d9c7c71eedfbcc004d741f9043c40a3de1fa220e78",
    ),
    "aging": (
        lambda: AgingSource(drift_per_bit=1e-6, seed=46),
        "71f52f4a725eebd2479bd7f94902faf118e4ef3607f8c9aa65293759f396821d",
    ),
    "em-injection": (
        lambda: EMInjectionAttack(
            RingOscillatorTRNG(seed=47), coupling=0.85, carrier_period=4,
            start_bit=0, seed=48,
        ),
        "2c12f7e413d6a5a523224c66ba60f70bd3df2c57d94f8b0ba3a1436b2e08fd1c",
    ),
}


def _stream_digest(source) -> str:
    pieces = []
    for size in SPLITS + (TOTAL_BITS - sum(SPLITS),):
        block = np.asarray(source.generate_block(size))
        assert block.dtype == np.uint8 and block.shape == (size,)
        pieces.append(block)
    bits = np.concatenate(pieces)
    assert int(bits.max()) <= 1
    return hashlib.sha256(bits.tobytes()).hexdigest()


@pytest.mark.parametrize("label", sorted(PINNED_STREAMS))
def test_seeded_stream_matches_pin(label):
    factory, digest = PINNED_STREAMS[label]
    assert _stream_digest(factory()) == digest


_SAMPLER_EDGES = (
    0.0, -0.0, 0.5, -0.5, 1.0, -1.0,
    np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(-0.5, 0.0),
    5e-324, -5e-324, 2.2250738585072014e-308, -1e-300,
    2.0 ** 52, 2.0 ** 52 + 1.0, 2.0 ** 53, -(2.0 ** 52) - 1.0, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"),
)


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_phase_sampler_floor_form_matches_modulo(value):
    x = np.array([value, *_SAMPLER_EDGES], dtype=np.float64)
    with np.errstate(invalid="ignore"):
        via_modulo = (x % 1.0) < 0.5
        via_floor = (x - np.floor(x)) < 0.5
    np.testing.assert_array_equal(via_floor, via_modulo)
