"""Property-based tests: the hardware model equals the reference on random inputs.

These use small power-of-two sequence lengths so that hypothesis can explore
many cases quickly; the larger-scale equivalence is covered by the
integration tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwtests import DesignParameters, UnifiedTestingBlock
from repro.hwtests.cusum import CusumHW
from repro.hwtests.runs import RunsHW
from repro.hwtests.serial import SerialHW
from repro.nist.common import pattern_counts
from repro.nist.cusum import random_walk_extremes
from repro.nist.runs import count_runs

PARAMS_128 = DesignParameters.for_length(128)

bit_arrays_128 = st.lists(st.integers(0, 1), min_size=128, max_size=128).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)


def drive(unit, bits):
    for index, bit in enumerate(bits):
        unit.process_bit(int(bit), index)
    unit.finalize()
    return unit


class TestHardwareReferenceProperties:
    @given(bit_arrays_128)
    @settings(max_examples=30, deadline=None)
    def test_cusum_extremes_match(self, bits):
        unit = drive(CusumHW(PARAMS_128), bits)
        s_max, s_min, s_final = random_walk_extremes(bits)
        # The capture registers start from S_0 = 0.
        assert (unit.s_max, unit.s_min, unit.s_final) == (max(s_max, 0), min(s_min, 0), s_final)

    @given(bit_arrays_128)
    @settings(max_examples=30, deadline=None)
    def test_runs_match(self, bits):
        unit = drive(RunsHW(PARAMS_128), bits)
        assert unit.runs == count_runs(bits)

    @given(bit_arrays_128)
    @settings(max_examples=20, deadline=None)
    def test_serial_counts_match(self, bits):
        unit = drive(SerialHW(PARAMS_128), bits)
        for length in (4, 3, 2):
            assert unit.pattern_counts(length) == pattern_counts(bits, length, cyclic=True).tolist()

    @given(bit_arrays_128)
    @settings(max_examples=15, deadline=None)
    def test_functional_model_equals_cycle_accurate(self, bits):
        tests = (1, 2, 3, 4, 11, 12, 13)
        cycle = UnifiedTestingBlock(PARAMS_128, tests=tests).process_sequence(bits)
        fast = UnifiedTestingBlock(PARAMS_128, tests=tests).accelerated_process_sequence(bits)
        assert cycle.hardware_values() == fast.hardware_values()

    @given(bit_arrays_128)
    @settings(max_examples=20, deadline=None)
    def test_walk_invariants(self, bits):
        """Structural invariants the consistency check relies on."""
        unit = drive(CusumHW(PARAMS_128), bits)
        assert unit.s_min <= unit.s_final <= unit.s_max
        assert abs(unit.s_final) <= 128
        assert (unit.s_final - 128) % 2 == 0
        assert unit.derived_ones == int(bits.sum())

    @given(bit_arrays_128)
    @settings(max_examples=20, deadline=None)
    def test_block_counter_invariants(self, bits):
        block = UnifiedTestingBlock(PARAMS_128, tests=(2, 4, 13)).process_sequence(bits)
        values = block.hardware_values()
        eps = [v for k, v in values.items() if k.startswith("t2_eps_")]
        assert sum(eps) == int(bits.sum())
        categories = [v for k, v in values.items() if k.startswith("t4_nu_")]
        assert sum(categories) == 128 // PARAMS_128.longest_run_block_length
