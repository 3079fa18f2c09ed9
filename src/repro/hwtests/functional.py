"""Functional (vectorised) model of the hardware testing block.

The cycle-accurate model in :mod:`repro.hwtests` consumes one bit per call,
exactly like the RTL; that fidelity costs ~10 µs of Python per bit, which
makes the 2^20-bit design points slow to exercise.  This module provides the
standard EDA answer — a *functional model*: for each hardware unit the final
counter state after a complete n-bit sequence is computed with vectorised
reference code and loaded directly into the unit's components.

Every loader draws its statistics from a shared
:class:`~repro.engine.context.SequenceContext` rather than re-scanning the
raw bits: the ones count, walk extremes, run count, per-block sums and
longest runs, and cyclic pattern counts are each derived once and shared by
every unit that needs them — mirroring how the paper's hardware counters
share sub-statistics.  Every context is a row of a
:class:`~repro.engine.context.BatchContext` (a lone sequence is a one-row
batch), so the statistics are computed in single vectorised passes over
the whole batch, on the packed 64-bits-per-word kernels wherever the
geometry has one.  The template-matching units count per-block hits of
the shared window values with the helpers of the NIST template tests;
only a periodic template reads raw bits.

The functional and cycle-accurate paths are verified equivalent by
``tests/test_hwtests_functional.py`` (same final register-file contents for
the same input sequence); benchmarks and examples may then use whichever
path suits their sequence length.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from repro.engine.context import SequenceContext
from repro.hwtests.approximate_entropy import ApproximateEntropyHW
from repro.hwtests.base import HardwareTestUnit
from repro.hwtests.block_frequency import BlockFrequencyHW
from repro.hwtests.cusum import CusumHW
from repro.hwtests.frequency import FrequencyHW
from repro.hwtests.longest_run import LongestRunHW
from repro.hwtests.nonoverlapping import NonOverlappingTemplateHW
from repro.hwtests.overlapping import OverlappingTemplateHW
from repro.hwtests.runs import RunsHW
from repro.hwtests.serial import SerialHW
from repro.nist.common import BitsLike
from repro.nist.longest_run import LONGEST_RUN_TABLES, category_index
from repro.nist.nonoverlapping import _context_counts as _non_overlapping_counts
from repro.nist.overlapping import _block_categories as _overlapping_categories

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hwtests.block import UnifiedTestingBlock

__all__ = ["fast_load_unit", "fast_load_block", "fast_load_block_from_context"]

#: Anything a loader accepts: raw bits or an already-built shared context.
LoadInput = Union[BitsLike, SequenceContext]


def _load_cusum(unit: CusumHW, context: SequenceContext) -> None:
    s_max, s_min, s_final = context.walk_extremes()
    unit._walk.force(s_final)
    # The capture registers start from S_0 = 0.
    unit._s_max.force(unit._to_raw(max(s_max, 0)))
    unit._s_min.force(unit._to_raw(min(s_min, 0)))


def _load_frequency(unit: FrequencyHW, context: SequenceContext) -> None:
    unit._ones.force(context.ones)


def _load_runs(unit: RunsHW, context: SequenceContext) -> None:
    unit._runs.force(context.num_runs())
    unit._previous.force(context.last_bit() if context.n else 0)
    unit._started = context.n > 0


def _load_block_frequency(unit: BlockFrequencyHW, context: SequenceContext) -> None:
    sums = context.block_sums(unit.block_length)
    for index in range(min(len(sums), unit.num_blocks)):
        unit._snapshots[index].force(int(sums[index]))
    unit._current_block = min(len(sums), unit.num_blocks)
    unit._block_ones.clear()


def _load_longest_run(unit: LongestRunHW, context: SequenceContext) -> None:
    _k, v_values, _pi = LONGEST_RUN_TABLES[unit.block_length]
    categories = [0] * len(unit._categories)
    for longest in context.block_longest_one_runs(unit.block_length):
        categories[category_index(int(longest), v_values)] += 1
    for counter, value in zip(unit._categories, categories):
        counter.force(value)
    unit._current_run.clear()
    unit._block_longest.force(0)


def _load_non_overlapping(unit: NonOverlappingTemplateHW, context: SequenceContext) -> None:
    num_blocks = min(context.n // unit.block_length, unit.num_blocks)
    counts = _non_overlapping_counts(
        context, tuple(unit.template), num_blocks, unit.block_length
    )
    for counter, count in zip(unit._block_counters, counts):
        counter.force(count)
    unit._skip.clear()
    unit._current_block = num_blocks - 1


def _load_overlapping(unit: OverlappingTemplateHW, context: SequenceContext) -> None:
    template = tuple(unit.template)
    categories = _overlapping_categories(
        context.window_values(len(template))[np.newaxis],
        template,
        unit.block_length,
        min(context.n // unit.block_length, unit.num_blocks),
        unit.K,
    )[0]
    for counter, value in zip(unit._categories, categories.tolist()):
        counter.force(value)
    unit._block_matches.clear()


def _load_serial(unit: SerialHW, context: SequenceContext) -> None:
    for length, bank in unit._banks.items():
        counts = context.pattern_counts(length)
        for counter, value in zip(bank.counters, counts):
            counter.force(int(value))
    unit._bits_seen = context.n + unit.m - 1
    unit._finalized = True


def _load_approximate_entropy(unit: ApproximateEntropyHW, context: SequenceContext) -> None:
    if unit.shares_serial_counters:
        return  # the serial unit's fast load already provides the counts
    for length, bank in unit._banks.items():
        counts = context.pattern_counts(length)
        for counter, value in zip(bank.counters, counts):
            counter.force(int(value))
    unit._bits_seen = context.n + unit.m
    unit._finalized = True


_LOADERS = {
    CusumHW: _load_cusum,
    FrequencyHW: _load_frequency,
    RunsHW: _load_runs,
    BlockFrequencyHW: _load_block_frequency,
    LongestRunHW: _load_longest_run,
    NonOverlappingTemplateHW: _load_non_overlapping,
    OverlappingTemplateHW: _load_overlapping,
    SerialHW: _load_serial,
    ApproximateEntropyHW: _load_approximate_entropy,
}


def _as_context(bits: LoadInput) -> SequenceContext:
    if isinstance(bits, SequenceContext):
        return bits
    return SequenceContext(bits)


def fast_load_unit(unit: HardwareTestUnit, bits: LoadInput) -> None:
    """Load the end-of-sequence state of one unit from a complete sequence.

    ``bits`` may be a raw bit sequence or a prepared
    :class:`~repro.engine.context.SequenceContext` so several units (or a
    whole batch) share the same memoized statistics.
    """
    loader = _LOADERS.get(type(unit))
    if loader is None:
        raise TypeError(f"no functional model for {type(unit).__name__}")
    loader(unit, _as_context(bits))


def fast_load_block(block: "UnifiedTestingBlock", bits: BitsLike) -> None:
    """Load the end-of-sequence state of a whole unified testing block."""
    fast_load_block_from_context(block, SequenceContext(bits))


def fast_load_block_from_context(
    block: "UnifiedTestingBlock", context: SequenceContext
) -> None:
    """Load a whole block from a shared context (the platform batch path).

    The context supplies every shared statistic; the raw bits are only
    touched when the design includes template tests (their match counters
    have no shared sub-statistic) or a shared shift register whose tail
    state must be replayed.
    """
    if context.n != block.params.n:
        raise ValueError(f"expected {block.params.n} bits, got {context.n}")
    block.reset()
    for unit in block.units.values():
        fast_load_unit(unit, context)
    # Advance the global counter to the end-of-sequence state.
    block.global_counter._counter.force(block.params.n)
    if block._shared_shift_register is not None:
        tail = context.bits[-block._shared_shift_register.width :]
        for bit in tail:
            block._shared_shift_register.shift_in(int(bit))
    block._finalized = True
