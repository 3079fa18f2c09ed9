"""Per-unit tests: each hardware test unit against the NIST reference code."""

import numpy as np
import pytest

from repro.hwsim.register_file import RegisterFile
from repro.hwtests import (
    ApproximateEntropyHW,
    BlockFrequencyHW,
    CusumHW,
    DesignParameters,
    FrequencyHW,
    GlobalBitCounter,
    LongestRunHW,
    NonOverlappingTemplateHW,
    OverlappingTemplateHW,
    RunsHW,
    SerialHW,
)
from repro.nist.common import chunk, pattern_counts
from repro.nist.cusum import random_walk_extremes
from repro.nist.longest_run import LONGEST_RUN_TABLES, category_index, longest_run_of_ones
from repro.nist.nonoverlapping import count_non_overlapping
from repro.nist.overlapping import count_overlapping
from repro.nist.runs import count_runs
from repro.trng import BiasedSource, IdealSource


def drive(unit, bits):
    """Feed a full sequence through a unit, bit by bit, then finalize."""
    for index, bit in enumerate(bits):
        unit.process_bit(int(bit), index)
    unit.finalize()
    return unit


@pytest.fixture(scope="module")
def params():
    return DesignParameters.for_length(4096)


@pytest.fixture(scope="module", params=[0, 1, 2])
def bits(request):
    """Three different 4096-bit workloads: ideal, biased, ideal."""
    sources = {
        0: IdealSource(seed=100),
        1: BiasedSource(0.7, seed=101),
        2: IdealSource(seed=102),
    }
    return sources[request.param].generate(4096).bits


class TestGlobalBitCounter:
    def test_counts_bits(self):
        counter = GlobalBitCounter(128)
        for _ in range(5):
            counter.clock()
        assert counter.bits_received == 5
        assert not counter.sequence_complete

    def test_sequence_complete(self):
        counter = GlobalBitCounter(128)
        for _ in range(128):
            counter.clock()
        assert counter.sequence_complete

    def test_block_boundary_power_of_two(self):
        counter = GlobalBitCounter(64)
        boundaries = []
        for i in range(32):
            counter.clock()
            boundaries.append(counter.block_boundary(8))
        assert [i + 1 for i, b in enumerate(boundaries) if b] == [8, 16, 24, 32]

    def test_block_boundary_requires_power_of_two(self):
        counter = GlobalBitCounter(64)
        with pytest.raises(ValueError):
            counter.block_boundary(6)

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            GlobalBitCounter(100)

    def test_reset(self):
        counter = GlobalBitCounter(64)
        counter.clock()
        counter.reset()
        assert counter.bits_received == 0


class TestFrequencyHW:
    def test_matches_reference(self, params, bits):
        unit = drive(FrequencyHW(params), bits)
        assert unit.ones == int(bits.sum())

    def test_exports(self, params, bits):
        unit = drive(FrequencyHW(params), bits)
        assert unit.exported_values()["t1_n_ones"] == int(bits.sum())

    def test_counter_never_wraps(self, params):
        unit = drive(FrequencyHW(params), np.ones(4096, dtype=np.uint8))
        assert unit.ones == 4096


class TestRunsHW:
    def test_matches_reference(self, params, bits):
        unit = drive(RunsHW(params), bits)
        assert unit.runs == count_runs(bits)

    def test_constant_sequence_single_run(self, params):
        unit = drive(RunsHW(params), np.zeros(4096, dtype=np.uint8))
        assert unit.runs == 1

    def test_alternating_sequence(self, params):
        bits = np.tile([0, 1], 2048).astype(np.uint8)
        unit = drive(RunsHW(params), bits)
        assert unit.runs == 4096

    def test_reset(self, params, bits):
        unit = drive(RunsHW(params), bits)
        unit.reset()
        assert unit.runs == 0


class TestCusumHW:
    def test_matches_reference(self, params, bits):
        unit = drive(CusumHW(params), bits)
        s_max, s_min, s_final = random_walk_extremes(bits)
        # The capture registers start from S_0 = 0.
        assert (unit.s_max, unit.s_min, unit.s_final) == (max(s_max, 0), min(s_min, 0), s_final)

    def test_derived_ones(self, params, bits):
        unit = drive(CusumHW(params), bits)
        assert unit.derived_ones == int(bits.sum())

    def test_all_zeros_extremes(self, params):
        unit = drive(CusumHW(params), np.zeros(4096, dtype=np.uint8))
        assert unit.s_final == -4096
        assert unit.s_min == -4096
        assert unit.s_max == 0  # S_0: the walk never climbs above its start

    def test_exports_are_raw_twos_complement(self, params):
        unit = drive(CusumHW(params), np.zeros(16, dtype=np.uint8))
        exported = unit.exported_values()
        width = unit._walk.width
        assert exported["t13_s_final"] == (1 << width) - 16


class TestBlockFrequencyHW:
    def test_matches_reference(self, params, bits):
        unit = drive(BlockFrequencyHW(params), bits)
        expected = [int(b.sum()) for b in chunk(bits, params.block_frequency_block_length)]
        assert unit.ones_per_block == expected

    def test_number_of_exports(self, params):
        unit = BlockFrequencyHW(params)
        assert len(unit.exported_values()) == params.block_frequency_num_blocks

    def test_all_ones_blocks(self, params):
        unit = drive(BlockFrequencyHW(params), np.ones(4096, dtype=np.uint8))
        assert unit.ones_per_block == [params.block_frequency_block_length] * 8


class TestLongestRunHW:
    def test_matches_reference(self, params, bits):
        unit = drive(LongestRunHW(params), bits)
        m = params.longest_run_block_length
        _k, v_values, _pi = LONGEST_RUN_TABLES[m]
        expected = [0] * len(unit.category_counts)
        for block in chunk(bits, m):
            expected[category_index(longest_run_of_ones(block), v_values)] += 1
        assert unit.category_counts == expected

    def test_category_counts_sum_to_blocks(self, params, bits):
        unit = drive(LongestRunHW(params), bits)
        assert sum(unit.category_counts) == params.n // params.longest_run_block_length

    def test_all_ones_lands_in_top_category(self, params):
        unit = drive(LongestRunHW(params), np.ones(4096, dtype=np.uint8))
        assert unit.category_counts[-1] == params.n // params.longest_run_block_length

    def test_invalid_block_length_rejected(self):
        # DesignParameters validates the allowed values itself; bypass the
        # frozen-dataclass validation to check the unit's own guard.
        params = DesignParameters.for_length(4096)
        object.__setattr__(params, "longest_run_block_length", 64)
        with pytest.raises(ValueError):
            LongestRunHW(params)


class TestNonOverlappingHW:
    def test_matches_reference(self, params, bits):
        unit = drive(NonOverlappingTemplateHW(params), bits)
        blocks = chunk(bits, params.nonoverlapping_block_length)
        expected = [count_non_overlapping(b, params.nonoverlapping_template) for b in blocks]
        assert unit.block_counts == expected

    def test_no_matches_in_all_ones(self, params):
        # The default template 000000001 cannot occur in an all-ones stream.
        unit = drive(NonOverlappingTemplateHW(params), np.ones(4096, dtype=np.uint8))
        assert unit.block_counts == [0] * params.nonoverlapping_num_blocks

    def test_matches_do_not_cross_blocks(self, params):
        # Place the template straddling the first block boundary; it must not
        # be counted in either block.
        m = params.nonoverlapping_block_length
        bits = np.zeros(4096, dtype=np.uint8)
        bits[m - 5] = 1  # breaks any template ending before the boundary
        bits[m + 3] = 1  # '000000001' ending 4 bits into block 2 straddles it
        unit = drive(NonOverlappingTemplateHW(params), bits)
        blocks = chunk(bits, m)
        expected = [count_non_overlapping(b, params.nonoverlapping_template) for b in blocks]
        assert unit.block_counts == expected


class TestOverlappingHW:
    def test_matches_reference(self, params, bits):
        unit = drive(OverlappingTemplateHW(params), bits)
        expected = [0] * (unit.K + 1)
        for block in chunk(bits, params.overlapping_block_length)[: unit.num_blocks]:
            expected[min(count_overlapping(block, params.overlapping_template), unit.K)] += 1
        assert unit.category_counts == expected

    def test_all_ones_max_category(self, params):
        unit = drive(OverlappingTemplateHW(params), np.ones(4096, dtype=np.uint8))
        assert unit.category_counts[-1] == params.overlapping_num_blocks

    def test_category_counts_sum_to_blocks(self, params, bits):
        unit = drive(OverlappingTemplateHW(params), bits)
        assert sum(unit.category_counts) == params.overlapping_num_blocks


class TestSerialHW:
    @pytest.mark.parametrize("length", [4, 3, 2])
    def test_matches_reference(self, params, bits, length):
        unit = drive(SerialHW(params), bits)
        assert unit.pattern_counts(length) == pattern_counts(bits, length, cyclic=True).tolist()

    def test_counts_sum_to_n(self, params, bits):
        unit = drive(SerialHW(params), bits)
        for length in (4, 3, 2):
            assert sum(unit.pattern_counts(length)) == params.n

    def test_finalize_idempotent(self, params, bits):
        unit = drive(SerialHW(params), bits)
        counts = unit.pattern_counts(4)
        unit.finalize()
        assert unit.pattern_counts(4) == counts

    def test_unknown_length_rejected(self, params, bits):
        unit = drive(SerialHW(params), bits)
        with pytest.raises(ValueError):
            unit.pattern_counts(7)

    def test_counters_sized_for_worst_case(self, params):
        # A constant stream must not overflow any pattern counter.
        unit = drive(SerialHW(params), np.ones(4096, dtype=np.uint8))
        assert unit.pattern_counts(4)[0b1111] == 4096


class TestApproximateEntropyHW:
    def test_shared_mode_has_no_hardware(self, params, bits):
        serial = SerialHW(params)
        apen = ApproximateEntropyHW(params, serial_unit=serial)
        assert apen.shares_serial_counters
        assert apen.components() == []
        assert apen.resources().flip_flops == 0

    def test_shared_mode_returns_serial_counts(self, params, bits):
        serial = drive(SerialHW(params), bits)
        apen = ApproximateEntropyHW(params, serial_unit=serial)
        assert apen.pattern_counts(3) == serial.pattern_counts(3)
        assert apen.pattern_counts(4) == serial.pattern_counts(4)

    def test_standalone_matches_reference(self, params, bits):
        apen = drive(ApproximateEntropyHW(params), bits)
        assert apen.pattern_counts(3) == pattern_counts(bits, 3, cyclic=True).tolist()
        assert apen.pattern_counts(4) == pattern_counts(bits, 4, cyclic=True).tolist()

    def test_standalone_has_hardware(self, params):
        apen = ApproximateEntropyHW(params)
        assert apen.resources().flip_flops > 0
        assert len(apen.exported_values()) == 8 + 16
