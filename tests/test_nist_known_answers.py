"""Known-answer tests of the reference NIST implementations.

The expected values are the worked examples from NIST SP 800-22 (rev 1a),
sections 2.1.4–2.15.4.  Where the spec's example uses parameters our
implementation computes on the fly (e.g. the overlapping-template
probabilities), the example is reproduced only when the derivation matches.
"""

import numpy as np
import pytest

from repro.engine import run_batch
from repro.nist import (
    approximate_entropy_test,
    binary_matrix_rank_test,
    block_frequency_test,
    cumulative_sums_test,
    dft_test,
    frequency_test,
    linear_complexity_test,
    longest_run_test,
    non_overlapping_template_test,
    random_excursions_test,
    random_excursions_variant_test,
    runs_test,
    serial_test,
    universal_test,
)
from repro.nist.cusum import cusum_p_value, largest_accepted_excursion
from repro.nist.linear_complexity import berlekamp_massey

#: First 100 bits of the binary expansion of pi's fractional part, the sample
#: sequence used throughout SP 800-22 section 2 examples.
PI_100 = (
    "11001001000011111101101010100010001000010110100011"
    "00001000110100110001001100011001100010100010111000"
)


class TestFrequencyKnownAnswers:
    def test_small_example(self):
        # SP 800-22 2.1.4: eps = 1011010101, S = 2, P-value = 0.527089.
        result = frequency_test("1011010101")
        assert result.details["partial_sum"] == 2
        assert result.p_value == pytest.approx(0.527089, abs=1e-6)

    def test_pi_100_example(self):
        # SP 800-22 2.1.8: 100 bits of pi, P-value = 0.109599.
        result = frequency_test(PI_100)
        assert result.p_value == pytest.approx(0.109599, abs=1e-5)


class TestBlockFrequencyKnownAnswers:
    def test_small_example(self):
        # SP 800-22 2.2.4: eps = 0110011010, M = 3, chi2 = 1, P = 0.801252.
        result = block_frequency_test("0110011010", block_length=3)
        assert result.statistic == pytest.approx(1.0, abs=1e-9)
        assert result.p_value == pytest.approx(0.801252, abs=1e-6)

    def test_pi_100_example(self):
        # SP 800-22 2.2.8: 100 bits of pi, M = 10, P = 0.706438.
        result = block_frequency_test(PI_100, block_length=10)
        assert result.p_value == pytest.approx(0.706438, abs=1e-5)


class TestRunsKnownAnswers:
    def test_small_example(self):
        # SP 800-22 2.3.4: eps = 1001101011, V = 7, P = 0.147232.
        result = runs_test("1001101011")
        assert result.details["runs"] == 7
        assert result.p_value == pytest.approx(0.147232, abs=1e-6)

    def test_pi_100_example(self):
        # SP 800-22 2.3.8: 100 bits of pi, P = 0.500798.
        result = runs_test(PI_100)
        assert result.p_value == pytest.approx(0.500798, abs=1e-5)


class TestLongestRunKnownAnswer:
    def test_128_bit_example(self):
        # SP 800-22 2.4.8: the 128-bit example sequence, M = 8, P ≈ 0.180609.
        eps = (
            "11001100000101010110110001001100111000000000001001"
            "00110101010001000100111101011010000000110101111100"
            "1100111001101101100010110010"
        )
        result = longest_run_test(eps, block_length=8)
        assert result.details["categories"] == [4, 9, 3, 0]
        assert result.p_value == pytest.approx(0.180609, abs=1e-4)


class TestRankKnownAnswer:
    def test_small_example(self):
        # SP 800-22 2.5.4: eps = 01011001001010101101, M = Q = 3, N = 2;
        # ranks 2 and 3 give counts full = 1, full-1 = 1, rest = 0.  The
        # spec's worked P-value (0.741948) plugs in the *rounded* asymptotic
        # probabilities (0.2888, 0.5776, 0.1336); we evaluate the exact
        # section-3.5 product formulas for M = Q = 3, which shifts the
        # P-value while keeping the identical integer rank histogram.
        result = binary_matrix_rank_test(
            "01011001001010101101", matrix_rows=3, matrix_cols=3
        )
        assert result.details["counts"] == {"full": 1, "full_minus_1": 1, "rest": 0}
        assert result.details["num_matrices"] == 2
        assert result.details["discarded_bits"] == 2
        assert result.p_value == pytest.approx(0.8209616256861869, abs=1e-12)

    def test_too_short_sequence_raises(self):
        with pytest.raises(ValueError, match="need at least 1024 bits"):
            binary_matrix_rank_test("1" * 1023)


class TestDftKnownAnswer:
    def test_small_example(self):
        # SP 800-22 2.6.4: eps = 1001010011, T ≈ 5.47, expected N0 = 4.75.
        # The spec's example counts N1 = 4 sub-threshold peaks (it drops the
        # DC bin, P = 0.029523); our reference keeps the full first half of
        # the spectrum including bin 0, giving N1 = 5 on the same sequence.
        result = dft_test("1001010011")
        assert result.details["expected_below"] == pytest.approx(4.75, abs=1e-12)
        assert result.details["observed_below"] == 5.0
        assert result.p_value == pytest.approx(0.4681599098544281, abs=1e-12)

    def test_too_short_sequence_raises(self):
        with pytest.raises(ValueError, match="at least 2 bits"):
            dft_test("1")


class TestUniversalKnownAnswer:
    def test_too_short_sequence_raises(self):
        # Maurer's test needs Q = 10 * 2^L initialisation blocks; the
        # smallest recommended parameterisation (L = 6) already requires
        # 387,840 bits, so every SP 800-22 toy example is out of range.
        with pytest.raises(ValueError, match="387,840 bits"):
            universal_test("0" * 100)


class TestLinearComplexityKnownAnswers:
    def test_berlekamp_massey_example(self):
        # SP 800-22 2.10.4: eps = 1101011110001 (n = 13) has linear
        # complexity L = 4 (LFSR <1 + x^3 + x^4>).
        assert berlekamp_massey("1101011110001") == 4

    def test_single_block_complexities(self):
        # The full test over one 13-bit block must report that same L = 4
        # through the chi-squared machinery.
        result = linear_complexity_test("1101011110001", block_length=13)
        assert result.details["complexities"] == [4]
        assert result.details["num_blocks"] == 1

    def test_block_length_validation(self):
        with pytest.raises(ValueError, match="block_length must be at least 4"):
            linear_complexity_test("1" * 100, block_length=3)


class TestNonOverlappingKnownAnswer:
    def test_small_example(self):
        # SP 800-22 2.7.4: eps = 10100100101110010110 (n=20), B = 001,
        # N = 2 blocks of M = 10: W1 = 2, W2 = 1, P = 0.344154.
        result = non_overlapping_template_test(
            "10100100101110010110", template=(0, 0, 1), num_blocks=2
        )
        assert result.details["counts"] == [2, 1]
        assert result.p_value == pytest.approx(0.344154, abs=1e-4)


class TestSerialKnownAnswers:
    def test_small_example(self):
        # SP 800-22 2.11.4: eps = 0011011101, m = 3:
        # del-psi2 = 1.6, del2-psi2 = 0.8, P1 = 0.808792, P2 = 0.670320.
        result = serial_test("0011011101", m=3)
        assert result.details["del1"] == pytest.approx(1.6, abs=1e-9)
        assert result.details["del2"] == pytest.approx(0.8, abs=1e-9)
        assert result.p_values[0] == pytest.approx(0.808792, abs=1e-5)
        assert result.p_values[1] == pytest.approx(0.670320, abs=1e-5)

    def test_pi_100_consistency(self):
        # For the 100-bit pi prefix the serial test should comfortably accept
        # the randomness hypothesis at every NIST-recommended alpha.
        result = serial_test(PI_100, m=3)
        assert result.passed(0.01)
        assert all(0.0 <= p <= 1.0 for p in result.p_values)


class TestApproximateEntropyKnownAnswers:
    def test_small_example(self):
        # SP 800-22 2.12.4: eps = 0100110101, m = 3, P = 0.261961.
        result = approximate_entropy_test("0100110101", m=3)
        assert result.p_value == pytest.approx(0.261961, abs=1e-4)

    def test_pi_100_example(self):
        # SP 800-22 2.12.8: 100 bits of pi, m = 2, P = 0.235301.
        result = approximate_entropy_test(PI_100, m=2)
        assert result.p_value == pytest.approx(0.235301, abs=1e-4)


class TestCusumKnownAnswers:
    def test_small_example_forward(self):
        # SP 800-22 2.13.4: eps = 1011010111, z = 4, P = 0.4116588.
        result = cumulative_sums_test("1011010111", mode=0)
        assert result.details["z"] == 4
        assert result.p_value == pytest.approx(0.4116588, abs=1e-6)

    def test_pi_100_example_both_modes(self):
        # SP 800-22 2.13.8: 100 bits of pi: forward P = 0.219194,
        # backward P = 0.114866.
        forward = cumulative_sums_test(PI_100, mode=0)
        backward = cumulative_sums_test(PI_100, mode=1)
        assert forward.p_value == pytest.approx(0.219194, abs=1e-5)
        assert backward.p_value == pytest.approx(0.114866, abs=1e-5)

    # Walks that never return to 0: the backward walk's partial sums
    # S_n - S_j run over j = 0..n-1, so S_0 = 0 is one of them and the
    # backward z is the full distance back to the start.
    @pytest.mark.parametrize(
        "bits, z",
        [("1" * 8, 8), ("0" * 8, 8), ("1" * 128, 128), ("0" * 128, 128), ("11011", 3)],
        ids=["ones-8", "zeros-8", "ones-128", "zeros-128", "11011"],
    )
    @pytest.mark.parametrize("mode", [0, 1])
    def test_walk_away_from_zero(self, bits, z, mode):
        n = len(bits)
        reference = cumulative_sums_test(bits, mode=mode)
        assert reference.details["z"] == z
        assert reference.p_value == cusum_p_value(z, n)
        batch = run_batch([bits], tests=[13], parameters={13: {"mode": mode}})
        assert batch.p_values[0, 0] == reference.p_value
        assert batch[0].results["nist.cumulative_sums"].details["z"] == z
        for alpha in (0.01, 0.02):
            assert batch.failing(alpha)[0, 0] == (reference.p_value < alpha)

    def test_backward_eight_ones_fails_at_one_percent(self):
        # z = 8 gives P = 0.00936; the excursion without S_0 (z = 7) passed.
        assert cumulative_sums_test("1" * 8, mode=1).p_value < 0.01 < cusum_p_value(7, 8)

    def test_backward_start_counts_in_the_bracket_screen(self):
        # n = 65,536 screens rows with walk brackets (z* = 659 at alpha =
        # 0.02).  660 ones then "01" pairs: S_min = 1, S_final = 660, so the
        # backward z is 660 and fails, where 659 (without S_0) would pass.
        n = 65536
        bits = np.concatenate([np.ones(660), np.tile([0, 1], (n - 660) // 2)]).astype(np.uint8)
        reference = cumulative_sums_test(bits, mode=1)
        assert reference.details["z"] == largest_accepted_excursion(n, 0.02) + 1
        batch = run_batch(bits[np.newaxis, :], tests=[13], parameters={13: {"mode": 1}})
        assert batch.failing(0.02)[0, 0]
        assert batch.p_values[0, 0] == reference.p_value


class TestRandomExcursionsKnownAnswers:
    def test_small_example_state_plus_one(self):
        # SP 800-22 2.14.4: eps = 0110110101, J = 3; for state x = +1 the
        # chi-squared is 4.333033 with P = 0.502529.
        result = random_excursions_test("0110110101")
        assert result.details["num_cycles"] == 3
        index = result.details["states"].index(1)
        # The spec's worked example uses the rounded pi table (0.0312 instead
        # of 0.03125), hence the loose tolerance against exact probabilities.
        assert result.details["statistics"][index] == pytest.approx(4.333033, abs=1e-3)
        assert result.p_values[index] == pytest.approx(0.502529, abs=1e-3)

    def test_variant_small_example_state_plus_one(self):
        # SP 800-22 2.15.4: same eps; for state x = +1, count = 4, J = 3,
        # P = 0.683091.
        result = random_excursions_variant_test("0110110101")
        assert result.details["num_cycles"] == 3
        assert result.details["counts"][1] == 4
        index = result.details["states"].index(1)
        assert result.p_values[index] == pytest.approx(0.683091, abs=1e-4)
