"""Functional (vectorised) model of the hardware testing block.

The cycle-accurate model in :mod:`repro.hwtests` consumes one bit per call,
exactly like the RTL; that fidelity costs ~10 µs of Python per bit, which
makes the 2^20-bit design points slow to exercise.  This module provides the
standard EDA answer — a *functional model*: for each hardware unit the final
counter state after a complete n-bit sequence is computed with vectorised
reference code and loaded directly into the unit's components.

Every loader reads its statistics from a row of a shared
:class:`~repro.engine.context.BatchContext` rather than re-scanning the
raw bits: the ones count, walk extremes, run count, per-block sums and
longest runs, and cyclic pattern counts are each derived once and shared by
every unit that needs them — mirroring how the paper's hardware counters
share sub-statistics.  A lone sequence is a one-row batch, so the
statistics are computed in single vectorised passes over the whole batch,
on the packed 64-bits-per-word kernels wherever the geometry has one.  The
template-matching units count per-block hits of the shared window values
with the helpers of the NIST template tests; only a periodic template
reads raw bits.

The functional and cycle-accurate paths are verified equivalent by
``tests/test_hwtests_functional.py`` (same final register-file contents for
the same input sequence); benchmarks and examples may then use whichever
path suits their sequence length.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.context import BatchContext
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
from repro.nist.common import BitsLike, to_bits
from repro.nist.longest_run import LONGEST_RUN_TABLES, category_index
from repro.nist.nonoverlapping import _block_counts as _non_overlapping_counts
from repro.nist.overlapping import _block_categories as _overlapping_categories

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hwtests.block import UnifiedTestingBlock

__all__ = ["fast_load_unit", "fast_load_block", "fast_load_block_row"]


def _load_cusum(unit: CusumHW, batch: BatchContext, row: int) -> None:
    s_max, s_min, s_final = (int(column[row]) for column in batch.walk_extremes())
    unit._walk.force(s_final)
    # The capture registers start from S_0 = 0.
    unit._s_max.force(unit._to_raw(max(s_max, 0)))
    unit._s_min.force(unit._to_raw(min(s_min, 0)))


def _load_frequency(unit: FrequencyHW, batch: BatchContext, row: int) -> None:
    unit._ones.force(int(batch.ones()[row]))


def _load_runs(unit: RunsHW, batch: BatchContext, row: int) -> None:
    unit._runs.force(int(batch.num_runs()[row]))
    unit._previous.force(int(batch.last_bits()[row]) if batch.n else 0)
    unit._started = batch.n > 0


def _load_block_frequency(unit: BlockFrequencyHW, batch: BatchContext, row: int) -> None:
    sums = batch.block_sums(unit.block_length)[row]
    for index in range(min(len(sums), unit.num_blocks)):
        unit._snapshots[index].force(int(sums[index]))
    unit._current_block = min(len(sums), unit.num_blocks)
    unit._block_ones.clear()


def _load_longest_run(unit: LongestRunHW, batch: BatchContext, row: int) -> None:
    _k, v_values, _pi = LONGEST_RUN_TABLES[unit.block_length]
    categories = [0] * len(unit._categories)
    for longest in batch.block_longest_one_runs(unit.block_length)[row]:
        categories[category_index(int(longest), v_values)] += 1
    for counter, value in zip(unit._categories, categories):
        counter.force(value)
    unit._current_run.clear()
    unit._block_longest.force(0)


def _load_non_overlapping(unit: NonOverlappingTemplateHW, batch: BatchContext, row: int) -> None:
    num_blocks = min(batch.n // unit.block_length, unit.num_blocks)
    counts = _non_overlapping_counts(
        lambda m: batch.window_values(m)[row : row + 1],
        lambda _row: batch.row_bits(row),
        1,
        tuple(unit.template),
        num_blocks,
        unit.block_length,
    )[0]
    for counter, count in zip(unit._block_counters, counts.tolist()):
        counter.force(count)
    unit._skip.clear()
    unit._current_block = num_blocks - 1


def _load_overlapping(unit: OverlappingTemplateHW, batch: BatchContext, row: int) -> None:
    template = tuple(unit.template)
    categories = _overlapping_categories(
        batch.window_values(len(template))[row : row + 1],
        template,
        unit.block_length,
        min(batch.n // unit.block_length, unit.num_blocks),
        unit.K,
    )[0]
    for counter, value in zip(unit._categories, categories.tolist()):
        counter.force(value)
    unit._block_matches.clear()


def _load_serial(unit: SerialHW, batch: BatchContext, row: int) -> None:
    for length, bank in unit._banks.items():
        counts = batch.pattern_counts(length)[row]
        for counter, value in zip(bank.counters, counts):
            counter.force(int(value))
    unit._bits_seen = batch.n + unit.m - 1
    unit._finalized = True


def _load_approximate_entropy(unit: ApproximateEntropyHW, batch: BatchContext, row: int) -> None:
    if unit.shares_serial_counters:
        return  # the serial unit's fast load already provides the counts
    for length, bank in unit._banks.items():
        counts = batch.pattern_counts(length)[row]
        for counter, value in zip(bank.counters, counts):
            counter.force(int(value))
    unit._bits_seen = batch.n + unit.m
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


def _one_row(bits: BitsLike) -> BatchContext:
    return BatchContext(to_bits(bits)[np.newaxis, :])


def _load_unit(unit: HardwareTestUnit, batch: BatchContext, row: int) -> None:
    loader = _LOADERS.get(type(unit))
    if loader is None:
        raise TypeError(f"no functional model for {type(unit).__name__}")
    loader(unit, batch, row)


def fast_load_unit(unit: HardwareTestUnit, bits: BitsLike) -> None:
    """Load the end-of-sequence state of one unit from a complete sequence."""
    _load_unit(unit, _one_row(bits), 0)


def fast_load_block(block: "UnifiedTestingBlock", bits: BitsLike) -> None:
    """Load the end-of-sequence state of a whole unified testing block."""
    fast_load_block_row(block, _one_row(bits), 0)


def fast_load_block_row(block: "UnifiedTestingBlock", batch: BatchContext, row: int) -> None:
    """Load a whole block from one row of a shared batch (the platform batch path).

    The batch supplies every shared statistic; the row's raw bits are only
    touched when the design includes a periodic template (its match
    counter has no shared sub-statistic) or a shared shift register whose
    tail state must be replayed.
    """
    if batch.n != block.params.n:
        raise ValueError(f"expected {block.params.n} bits, got {batch.n}")
    block.reset()
    for unit in block.units.values():
        _load_unit(unit, batch, row)
    # Advance the global counter to the end-of-sequence state.
    block.global_counter._counter.force(block.params.n)
    if block._shared_shift_register is not None:
        tail = batch.row_bits(row)[-block._shared_shift_register.width :]
        for bit in tail:
            block._shared_shift_register.shift_in(int(bit))
    block._finalized = True
