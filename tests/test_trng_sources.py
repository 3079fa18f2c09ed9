"""Tests of the entropy-source and attack simulators."""

import numpy as np
import pytest

from repro.nist import frequency_test, runs_test, serial_test
from repro.trng import (
    AgingSource,
    AlternatingSource,
    AttackScenario,
    BiasedSource,
    BurstFailureSource,
    CorrelatedSource,
    DeadSource,
    EMInjectionAttack,
    FrequencyInjectionAttack,
    IdealSource,
    OscillatingBiasSource,
    ProbingAttack,
    RingOscillatorTRNG,
    StuckAtSource,
)


class TestIdealSource:
    def test_generates_requested_length(self):
        assert len(IdealSource(seed=1).generate(100)) == 100

    def test_reproducible_with_seed(self):
        a = IdealSource(seed=5).generate(256)
        b = IdealSource(seed=5).generate(256)
        assert a == b

    def test_different_seeds_differ(self):
        assert IdealSource(seed=1).generate(256) != IdealSource(seed=2).generate(256)

    def test_reset_restarts_stream(self):
        source = IdealSource(seed=9)
        first = source.generate(64)
        source.reset()
        assert source.generate(64) == first

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            IdealSource(seed=1).generate(-1)

    def test_roughly_balanced(self):
        bits = IdealSource(seed=7).generate(10000)
        assert 0.47 < bits.proportion < 0.53

    def test_bitserial_and_vectorised_paths_consistent(self):
        source = IdealSource(seed=13)
        serial = [source.next_bit() for _ in range(64)]
        assert set(serial) <= {0, 1}


class TestBiasedSource:
    def test_bias_respected(self):
        bits = BiasedSource(0.8, seed=1).generate(20000)
        assert 0.77 < bits.proportion < 0.83

    def test_extreme_bias(self):
        assert BiasedSource(1.0, seed=1).generate(100).ones == 100
        assert BiasedSource(0.0, seed=1).generate(100).ones == 0

    def test_invalid_bias(self):
        with pytest.raises(ValueError):
            BiasedSource(1.5)

    def test_detected_by_frequency_test(self):
        bits = BiasedSource(0.6, seed=2).generate(4096)
        assert not frequency_test(bits).passed(0.01)

    def test_name_contains_bias(self):
        assert "0.6" in BiasedSource(0.6).name


class TestCorrelatedSource:
    def test_half_probability_is_balanced(self):
        bits = CorrelatedSource(0.5, seed=3).generate(20000)
        assert 0.47 < bits.proportion < 0.53

    def test_high_repeat_probability_creates_long_runs(self):
        bits = CorrelatedSource(0.95, seed=4).generate(4096)
        assert not runs_test(bits).passed(0.01)

    def test_correlation_invisible_to_frequency_test(self):
        bits = CorrelatedSource(0.9, seed=5).generate(16384)
        assert frequency_test(bits).passed(0.001)

    def test_detected_by_serial_test(self):
        bits = CorrelatedSource(0.8, seed=6).generate(16384)
        assert not serial_test(bits, m=4).passed(0.01)

    def test_reset_clears_memory(self):
        source = CorrelatedSource(0.9, seed=7)
        first = source.generate(128)
        source.reset()
        assert source.generate(128) == first

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            CorrelatedSource(-0.1)


class TestOscillatingBiasSource:
    def test_long_term_balance(self):
        bits = OscillatingBiasSource(0.3, period=1024, seed=8).generate(16384)
        # Over whole periods the average bias cancels.
        assert 0.45 < bits.proportion < 0.55

    def test_current_bias_tracks_position(self):
        source = OscillatingBiasSource(0.4, period=100, seed=9)
        assert source.current_bias() == pytest.approx(0.5)
        for _ in range(25):
            source.next_bit()
        assert source.current_bias() == pytest.approx(0.9, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OscillatingBiasSource(0.6, period=100)
        with pytest.raises(ValueError):
            OscillatingBiasSource(0.1, period=0)


class TestFailureSources:
    def test_stuck_at_values(self):
        assert StuckAtSource(1).generate(50).ones == 50
        assert StuckAtSource(0).generate(50).ones == 0

    def test_stuck_invalid_value(self):
        with pytest.raises(ValueError):
            StuckAtSource(2)

    def test_dead_source_is_zero(self):
        assert DeadSource().generate(100).ones == 0
        assert DeadSource().name == "DeadSource"

    def test_alternating_pattern(self):
        bits = AlternatingSource(pattern=(1, 1, 0)).generate(9)
        assert bits.to01() == "110110110"

    def test_alternating_balanced_but_not_random(self):
        bits = AlternatingSource().generate(4096)
        assert frequency_test(bits).passed(0.01)
        assert not runs_test(bits).passed(0.01)

    def test_alternating_invalid_pattern(self):
        with pytest.raises(ValueError):
            AlternatingSource(pattern=())
        with pytest.raises(ValueError):
            AlternatingSource(pattern=(0, 2))

    def test_alternating_reset(self):
        source = AlternatingSource(pattern=(1, 0, 0))
        source.next_bit()
        source.reset()
        assert source.next_bit() == 1

    def test_burst_failure_has_stuck_stretches(self):
        source = BurstFailureSource(burst_rate=0.01, burst_length=64, seed=10)
        bits = source.generate(8192)
        # Bursts of 64 zeros should push the longest zero-run well above the
        # ~13 expected for an ideal 8192-bit sequence.
        zero_runs = max(
            len(run) for run in "".join(map(str, bits)).split("1")
        )
        assert zero_runs >= 64

    def test_burst_failure_parameter_validation(self):
        with pytest.raises(ValueError):
            BurstFailureSource(burst_rate=2.0)
        with pytest.raises(ValueError):
            BurstFailureSource(burst_length=0)
        with pytest.raises(ValueError):
            BurstFailureSource(stuck_value=3)


class TestRingOscillator:
    def test_healthy_oscillator_is_balanced(self):
        bits = RingOscillatorTRNG(seed=11).generate(16384)
        assert 0.47 < bits.proportion < 0.53

    def test_healthy_oscillator_passes_basic_tests(self):
        bits = RingOscillatorTRNG(seed=12).generate(16384)
        assert frequency_test(bits).passed(0.001)
        assert runs_test(bits).passed(0.001)

    def test_locked_oscillator_is_deterministic(self):
        trng = RingOscillatorTRNG(seed=13, locked=True, lock_strength=1.0)
        bits = trng.generate(4096)
        assert not serial_test(bits, m=4).passed(0.01)

    def test_lock_and_unlock(self):
        trng = RingOscillatorTRNG(seed=14)
        assert trng.effective_jitter() > 0
        trng.lock(1.0)
        assert trng.effective_jitter() == 0.0
        trng.unlock()
        assert trng.effective_jitter() > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RingOscillatorTRNG(ratio=0)
        with pytest.raises(ValueError):
            RingOscillatorTRNG(jitter=-0.1)
        with pytest.raises(ValueError):
            RingOscillatorTRNG(lock_strength=2.0)


class TestAttackModels:
    def test_frequency_injection_starts_at_configured_bit(self):
        trng = RingOscillatorTRNG(seed=15)
        attack = FrequencyInjectionAttack(trng, start_bit=100)
        for _ in range(100):
            attack.next_bit()
        assert not attack.active
        attack.next_bit()
        assert attack.active
        assert trng.locked

    def test_frequency_injection_degrades_output(self):
        trng = RingOscillatorTRNG(seed=16)
        attack = FrequencyInjectionAttack(trng, start_bit=0)
        bits = attack.generate(4096)
        assert not serial_test(bits, m=4).passed(0.01)

    def test_frequency_injection_reset_unlocks(self):
        trng = RingOscillatorTRNG(seed=17)
        attack = FrequencyInjectionAttack(trng, start_bit=0)
        attack.generate(16)
        attack.reset()
        assert not trng.locked

    def test_em_injection_imposes_carrier(self):
        attack = EMInjectionAttack(IdealSource(seed=18), coupling=1.0, carrier_period=2, seed=19)
        bits = attack.generate(64)
        assert bits.to01() == "10" * 32

    def test_em_injection_partial_coupling(self):
        attack = EMInjectionAttack(IdealSource(seed=20), coupling=0.9, carrier_period=2, seed=21)
        bits = attack.generate(8192)
        assert not serial_test(bits, m=4).passed(0.01)

    def test_em_injection_invalid_parameters(self):
        with pytest.raises(ValueError):
            EMInjectionAttack(IdealSource(seed=1), coupling=1.5)
        with pytest.raises(ValueError):
            EMInjectionAttack(IdealSource(seed=1), carrier_period=0)

    def test_probing_attack_grounds_alarm(self):
        probe = ProbingAttack(mode="ground")
        assert probe.tamper_alarm(True) is False
        assert probe.tamper_value(12345, 16) == 0

    def test_probing_attack_vdd(self):
        probe = ProbingAttack(mode="vdd")
        assert probe.tamper_alarm(False) is True
        assert probe.tamper_value(0, 8) == 255

    def test_probing_attack_invalid_mode(self):
        with pytest.raises(ValueError):
            ProbingAttack(mode="cut")

    def test_attack_scenario_container(self):
        scenario = AttackScenario("dead", DeadSource(), "wire cut", True)
        assert scenario.label == "dead"
        assert scenario.expected_detectable


class TestAgingSource:
    def test_initially_healthy(self):
        bits = AgingSource(drift_per_bit=0.0, seed=22).generate(8192)
        assert frequency_test(bits).passed(0.001)

    def test_drift_accumulates(self):
        source = AgingSource(drift_per_bit=1e-4, seed=23)
        source.generate(4000)
        assert source.current_bias() == pytest.approx(0.9, abs=0.01)
        assert source.age_bits == 4000

    def test_bias_saturates(self):
        source = AgingSource(drift_per_bit=1.0, max_bias=0.75, seed=24)
        source.generate(10)
        assert source.current_bias() == 0.75

    def test_old_source_fails_frequency_test(self):
        source = AgingSource(drift_per_bit=5e-5, seed=25)
        source.generate(20000)  # age it
        assert not frequency_test(source.generate(8192)).passed(0.01)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AgingSource(initial_bias=1.5)
        with pytest.raises(ValueError):
            AgingSource(min_bias=0.8, max_bias=0.2)
