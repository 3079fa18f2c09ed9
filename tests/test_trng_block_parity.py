"""Bit-exactness parity tests for the block-native source layer.

Every entropy source must satisfy two stream invariants:

* ``generate_block(n)`` from a given seed equals ``n`` successive
  ``next_bit()`` calls from the same seed (``next_bit`` is a one-bit block);
* the stream is split-invariant — chopping it into blocks of any sizes, or
  interleaving bit-serial and block access, never changes the emitted bits.

The parametrised factories cover every source class in ``repro.trng``
including wrapper chains (attack-on-source, capture-on-source, stacked
wrappers), so a vectorised implementation that silently diverges from the
bit-serial semantics fails here immediately.
"""

import copy
import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import DeviceRegistry
from repro.fleet.durability import decode_state, encode_state
from repro.trng import (
    AgingSource,
    AlternatingSource,
    BiasedSource,
    BurstFailureSource,
    CaptureSource,
    CorrelatedSource,
    DeadSource,
    EMInjectionAttack,
    FrequencyInjectionAttack,
    IdealSource,
    OscillatingBiasSource,
    ReplaySource,
    RingOscillatorTRNG,
    StuckAtSource,
)
from repro.trng.source import EntropySource, SeededSource
from test_trng_stream_pins import ideal_stream_1

FIXTURES = Path(__file__).parent / "fixtures"

#: label -> factory(seed) covering every source class and wrapper chain.
SOURCE_FACTORIES = {
    "ideal": lambda s: IdealSource(seed=s),
    "ideal-v1": ideal_stream_1,
    "biased": lambda s: BiasedSource(0.6, seed=s),
    "correlated": lambda s: CorrelatedSource(0.7, seed=s),
    "oscillating-bias": lambda s: OscillatingBiasSource(0.3, period=97, seed=s),
    "ring-oscillator": lambda s: RingOscillatorTRNG(seed=s),
    "aging": lambda s: AgingSource(drift_per_bit=1e-4, seed=s),
    "stuck-at-1": lambda s: StuckAtSource(1),
    "dead": lambda s: DeadSource(),
    "alternating": lambda s: AlternatingSource((1, 1, 0)),
    "burst-failure": lambda s: BurstFailureSource(burst_rate=0.02, burst_length=7, seed=s),
    "freq-injection-staged": lambda s: FrequencyInjectionAttack(
        RingOscillatorTRNG(seed=s), start_bit=40
    ),
    "em-on-biased": lambda s: EMInjectionAttack(
        BiasedSource(0.6, seed=s), coupling=0.7, carrier_period=4, start_bit=10, seed=s + 1
    ),
    "capture-on-correlated": lambda s: CaptureSource(CorrelatedSource(0.7, seed=s)),
    "replay-looped": lambda s: ReplaySource(IdealSource(seed=s).generate_block(500), loop=True),
    "em-on-attacked-oscillator": lambda s: EMInjectionAttack(
        FrequencyInjectionAttack(RingOscillatorTRNG(seed=s), start_bit=30),
        coupling=0.5, start_bit=5, seed=s + 2,
    ),
    "capture-on-em-attack": lambda s: CaptureSource(
        EMInjectionAttack(IdealSource(seed=s), coupling=0.8, start_bit=20, seed=s + 3)
    ),
}

#: Long enough to cross 1,024-bit block seams and the staged-attack onsets
#: above several times.
N = 2500


def _cases():
    return sorted(SOURCE_FACTORIES.items())


@pytest.mark.parametrize("label,factory", _cases())
def test_block_equals_bitserial(label, factory):
    block = factory(3).generate_block(N)
    source = factory(3)
    serial = np.fromiter((source.next_bit() for _ in range(N)), dtype=np.uint8, count=N)
    assert block.dtype == np.uint8 and block.size == N
    assert np.array_equal(block, serial)


@pytest.mark.parametrize("label,factory", _cases())
def test_stream_is_split_invariant(label, factory):
    whole = factory(3).generate_block(N)
    source = factory(3)
    sizes = (1, 7, 64, 129, 512, 1024)
    chunks = [source.generate_block(k) for k in sizes]
    chunks.append(source.generate_block(N - sum(sizes)))
    assert np.array_equal(whole, np.concatenate(chunks))


@pytest.mark.parametrize("label,factory", _cases())
def test_interleaved_bitserial_and_block_access(label, factory):
    whole = factory(3).generate_block(N)
    source = factory(3)
    pieces = [
        np.fromiter((source.next_bit() for _ in range(13)), dtype=np.uint8, count=13),
        source.generate_block(700),
        np.fromiter((source.next_bit() for _ in range(87)), dtype=np.uint8, count=87),
        source.generate_block(N - 800),
    ]
    assert np.array_equal(whole, np.concatenate(pieces))


@pytest.mark.parametrize("label,factory", _cases())
def test_generate_delegates_to_generate_block(label, factory):
    assert np.array_equal(factory(3).generate(N).bits, factory(3).generate_block(N))


def test_generate_matrix_rows_are_consecutive_stream_chunks():
    matrix = IdealSource(seed=9).generate_matrix(5, 128)
    assert matrix.shape == (5, 128) and matrix.dtype == np.uint8
    assert np.array_equal(matrix.ravel(), IdealSource(seed=9).generate_block(5 * 128))


class TestWrapperLockstep:
    """Wrappers stay in lockstep with their targets across interleaved
    ``next_bit()`` / ``generate_block()`` calls."""

    def test_capture_records_exactly_the_consumer_stream(self):
        capture = CaptureSource(CorrelatedSource(0.7, seed=3))
        seen = [
            np.fromiter((capture.next_bit() for _ in range(10)), dtype=np.uint8, count=10),
            capture.generate_block(90),
            np.fromiter((capture.next_bit() for _ in range(5)), dtype=np.uint8, count=5),
            capture.generate_block(45),
        ]
        seen = np.concatenate(seen)
        assert capture.captured_bits == seen.size
        assert np.array_equal(capture.captured().bits, seen)
        # ... and the consumer stream is exactly the target's own stream.
        assert np.array_equal(seen, CorrelatedSource(0.7, seed=3).generate_block(150))

    def test_attack_wrapper_tracks_staged_onset_across_interleaving(self):
        def build(seed):
            return FrequencyInjectionAttack(RingOscillatorTRNG(seed=seed), start_bit=100)

        whole = build(11).generate_block(400)
        attack = build(11)
        mixed = [np.fromiter((attack.next_bit() for _ in range(97)), dtype=np.uint8, count=97)]
        assert not attack.active  # 97 < start_bit: the lock is still staged
        mixed.append(attack.generate_block(103))
        assert attack.active and attack.target.locked
        mixed.append(attack.generate_block(200))
        assert np.array_equal(whole, np.concatenate(mixed))

    def test_em_attack_interleaving_matches_whole_stream(self):
        def build(seed):
            return EMInjectionAttack(
                BiasedSource(0.55, seed=seed), coupling=0.6, carrier_period=4,
                start_bit=50, seed=seed + 1,
            )

        whole = build(13).generate_block(600)
        attack = build(13)
        mixed = [
            attack.generate_block(30),
            np.fromiter((attack.next_bit() for _ in range(40)), dtype=np.uint8, count=40),
            attack.generate_block(530),
        ]
        assert np.array_equal(whole, np.concatenate(mixed))

    def test_capture_max_bits_truncates_block_recording(self):
        capture = CaptureSource(IdealSource(seed=4), max_bits=64)
        capture.generate_block(100)
        assert capture.captured_bits == 64
        assert np.array_equal(
            capture.captured().bits, IdealSource(seed=4).generate_block(100)[:64]
        )


class TestStreamHook:
    """``_generate_block`` is a source's one stream hook."""

    def test_source_with_neither_hook_raises(self):
        class Hollow(SeededSource):
            pass

        with pytest.raises(TypeError, match="_generate_block"):
            Hollow(seed=1).generate_block(4)

    @pytest.mark.parametrize("base", [EntropySource, SeededSource, AgingSource, IdealSource])
    def test_defining_next_bit_raises(self, base):
        with pytest.raises(TypeError, match="_generate_block"):

            class Inverted(base):
                def next_bit(self):
                    return 1 - super().next_bit()


class TestPositionObservables:
    """Sources with position-dependent observables must not read ahead."""

    def test_aging_age_tracks_consumed_bits(self):
        source = AgingSource(drift_per_bit=1e-4, seed=23)
        for _ in range(40):
            source.next_bit()
        assert source.age_bits == 40

    def test_oscillating_bias_tracks_consumed_bits(self):
        source = OscillatingBiasSource(0.4, period=100, seed=9)
        for _ in range(25):
            source.next_bit()
        assert source.current_bias() == pytest.approx(0.9, abs=1e-6)

    def test_burst_state_visible_bit_by_bit(self):
        source = BurstFailureSource(burst_rate=1.0, burst_length=3, stuck_value=0, seed=1)
        source.next_bit()
        assert source._remaining_burst == 2

    def test_oscillator_lock_mid_stream_reads_no_bits_ahead(self):
        serial = RingOscillatorTRNG(seed=8)
        bits = [serial.next_bit() for _ in range(10)]
        serial.lock(0.9)
        bits += [serial.next_bit() for _ in range(50)]
        blocks = RingOscillatorTRNG(seed=8)
        expected = [blocks.generate_block(10)]
        blocks.lock(0.9)
        expected.append(blocks.generate_block(50))
        assert np.array_equal(bits, np.concatenate(expected))

    def test_replay_remaining_bits_track_consumption(self):
        replay = ReplaySource([1, 0, 1, 1, 0, 0, 1, 0])
        replay.next_bit()
        replay.generate_block(3)
        assert replay.remaining_bits == 4

    def test_replay_block_overrun_raises(self):
        replay = ReplaySource([1, 0, 1, 1], loop=False)
        replay.generate_block(2)
        with pytest.raises(RuntimeError, match="exhausted"):
            replay.generate_block(3)

    def test_wrappers_do_not_read_ahead_of_their_target(self):
        # An EM attack on a finite replay must serve all stored bits
        # bit-serially instead of exhausting the capture by buffering ahead.
        attack = EMInjectionAttack(
            ReplaySource([1, 0, 1, 1, 0, 1, 0, 0]), coupling=0.0, seed=2
        )
        assert [attack.next_bit() for _ in range(8)] == [1, 0, 1, 1, 0, 1, 0, 0]
        # ... and a position-observable target only advances by what the
        # consumer has actually seen.
        aging = AgingSource(drift_per_bit=1e-4, seed=3)
        EMInjectionAttack(aging, coupling=0.5, seed=4).next_bit()
        assert aging.age_bits == 1


class TestIdealStreamPinning:
    """IdealSource reads PCG64 raw words directly; its stream 1 must still be
    ``Generator.integers(0, 2)`` bit for bit, however it is consumed."""

    @staticmethod
    def reference(seed, total):
        return np.random.default_rng(seed).integers(0, 2, size=total).astype(np.uint8)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_splits_and_next_bit_match_integers(self, seed):
        plan = np.random.default_rng(1000 + seed)
        source = ideal_stream_1(seed)
        parts = []
        for _ in range(12):
            if plan.random() < 0.25:
                parts.append(np.array([source.next_bit()], dtype=np.uint8))
            else:
                size = int(plan.choice([0, 1, 2, 3, 63, 65, 1023, plan.integers(0, 3000)]))
                parts.append(source.generate_block(size))
        got = np.concatenate(parts)
        assert np.array_equal(got, self.reference(seed, got.size))

    def test_reset_after_odd_block_restarts_stream(self):
        source = ideal_stream_1(8)
        source.generate_block(7)
        source.reset()
        assert np.array_equal(source.generate_block(101), self.reference(8, 101))

    @pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
    def test_clone_with_pending_half_word_continues_stream(self, clone):
        source = ideal_stream_1(21)
        head = source.generate_block(37)
        assert source._rng.bit_generator.state["has_uint32"] == 1
        if clone == "deepcopy":
            twin = copy.deepcopy(source)
        else:
            twin = pickle.loads(pickle.dumps(source))
        expected = self.reference(21, 37 + 501)
        assert np.array_equal(head, expected[:37])
        assert np.array_equal(twin.generate_block(501), expected[37:])
        assert np.array_equal(source.generate_block(501), expected[37:])

    def test_state_without_pending_flag_recovers_it_from_generator(self):
        # An instance dict that predates the pending-half flag (as an older
        # pickle would restore) takes it from the generator's own state.
        source = ideal_stream_1(4)
        source.generate_block(5)
        state = dict(source.__dict__)
        state.pop("_half_pending", None)
        restored = IdealSource.__new__(IdealSource)
        restored.__setstate__(state)
        assert np.array_equal(restored.generate_block(64), self.reference(4, 69)[5:])

    def test_pickle_from_before_stream_versions_resumes_stream_1(self):
        # Recorded by tests/fixtures/record_v1_ideal.py on a build whose
        # IdealSource had only stream 1, at an odd offset (half-word pending).
        fixture = json.loads((FIXTURES / "v1_ideal_source.json").read_text())
        restored = pickle.loads((FIXTURES / "v1_ideal_source.pickle").read_bytes())
        assert "stream_version" not in vars(restored)
        assert restored.stream_version == 1
        following = restored.generate_block(fixture["next_bits"])
        assert hashlib.sha256(following.tobytes()).hexdigest() == fixture["next_sha256"]
        offset = fixture["offset"]
        expected = self.reference(fixture["seed"], offset + fixture["next_bits"])
        assert np.array_equal(following, expected[offset:])


class TestIdealStreamTwo:
    """Stream 2 is PCG64's raw words in the engine's packed layout: stream
    bit ``j`` is bit ``j % 64`` of raw word ``j // 64``."""

    @staticmethod
    def reference(seed, total):
        raw = np.random.default_rng(seed).bit_generator.random_raw(-(-total // 64))
        return np.unpackbits(raw.astype("<u8").view(np.uint8), bitorder="little")[:total]

    def test_new_sources_use_stream_2(self):
        assert IdealSource(seed=1).stream_version == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_random_splits_and_next_bit_match_raw_words(self, seed):
        plan = np.random.default_rng(2000 + seed)
        source = IdealSource(seed=seed)
        parts = []
        for _ in range(12):
            if plan.random() < 0.25:
                parts.append(np.array([source.next_bit()], dtype=np.uint8))
            else:
                size = int(plan.choice([0, 1, 63, 64, 65, 128, 1023, plan.integers(0, 3000)]))
                parts.append(source.generate_block(size))
        got = np.concatenate(parts)
        assert np.array_equal(got, self.reference(seed, got.size))

    def test_aligned_words_are_the_raw_words(self):
        raw = np.random.default_rng(6).bit_generator.random_raw(32)
        source = IdealSource(seed=6)
        words = source.generate_words(1024)
        assert words.dtype == np.dtype("<u8")
        assert np.array_equal(words, raw[:16])
        assert np.array_equal(source.generate_words(1024), raw[16:])

    def test_registry_snapshot_at_odd_offset_resumes_stream(self):
        registry = DeviceRegistry("n128_light")
        device = registry.register("dev-odd", scenario="healthy-ideal", seed=77)
        head = device.source.generate_block(129)
        state = decode_state(json.loads(json.dumps(encode_state(registry.state_dict()))))
        restored = DeviceRegistry.from_state(state).get("dev-odd").source
        assert restored.stream_version == 2
        expected = self.reference(77, 129 + 1000)
        assert np.array_equal(head, expected[:129])
        assert np.array_equal(restored.generate_block(1000), expected[129:])
        assert np.array_equal(device.source.generate_block(1000), expected[129:])
