"""Fleet health as columns: one array-backed health machine for every device.

A device's health is a handful of running totals — consecutive failing
sequences, sequences monitored, failures, the first suspect and first
failed index, the tests that raised the first alarm and how often each
test failed — the same kind of state the paper's software reads off its
hardware counters.  :class:`FleetHealth` keeps those totals as columns,
one row per device, and :meth:`FleetHealth.fold` advances them in one
pass of numpy updates: a fleet round folds one sequence per device, an
ingest chunk k sequences of one device.
The machine is :class:`~repro.core.monitor.OnTheFlyMonitor`'s, which
stays the scalar reference.

Each device reads its row through a :class:`DeviceHealth` view
(``Device.monitor``), which keeps the monitor's read surface, its
``state_dict`` format and a one-row :meth:`DeviceHealth.observe`.

Callers serialise mutations (:meth:`FleetHealth.add`, :meth:`FleetHealth.fold`,
loads and resets) under the fleet lock; the columns hold no lock of their
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.monitor import HealthState, MonitorEvent

__all__ = ["DeviceHealth", "FleetHealth", "FleetVerdict", "Folded"]

#: Health state per state code (the int8 ``state`` column).
STATES: Tuple[HealthState, ...] = (
    HealthState.HEALTHY,
    HealthState.SUSPECT,
    HealthState.FAILED,
)

#: Row errors of a fold: position in the fold -> sorted error strings.
RowErrors = Mapping[int, Tuple[str, ...]]


@dataclass(frozen=True)
class FleetVerdict:
    """Reduced per-sequence verdict of a fleet device.

    What :meth:`~repro.core.monitor.OnTheFlyMonitor.observe` reads off a
    :class:`~repro.core.results.PlatformReport` — ``passed`` and
    ``failing_tests`` (NIST numbers, ascending) — plus the engine's error
    strings, and nothing heavier.
    """

    passed: bool
    failing_tests: Tuple[int, ...]
    errors: Tuple[str, ...] = ()


PASSED = FleetVerdict(passed=True, failing_tests=())


class Folded(NamedTuple):
    """Per folded row: its sequence index on its device, the device's state
    code before and after it, and the consecutive failures after it."""

    index: np.ndarray
    before: np.ndarray
    state: np.ndarray
    consecutive: np.ndarray


class FleetHealth:
    """The health machines of a whole fleet, one row per device.

    Parameters
    ----------
    tests:
        NIST numbers of the fleet's tests; the failing-mask columns of
        :meth:`fold` are these numbers in ascending order (:attr:`tests`).
    suspect_after / fail_after:
        Consecutive failing sequences until SUSPECT / FAILED.
    """

    def __init__(self, tests: Sequence[int], suspect_after: int = 1, fail_after: int = 2):
        if suspect_after < 1 or fail_after < suspect_after:
            raise ValueError("need 1 <= suspect_after <= fail_after")
        self.tests: Tuple[int, ...] = tuple(sorted(tests))
        self._column = {number: index for index, number in enumerate(self.tests)}
        self.suspect_after = suspect_after
        self.fail_after = fail_after
        #: State code per consecutive-failure count up to ``fail_after``.
        self._codes = np.array(
            [(count >= suspect_after) + (count >= fail_after) for count in range(fail_after + 1)],
            dtype=np.int8,
        )
        self._rows = 0
        #: The last sequence's error strings, read where ``_last_erred``.
        self._last_errors: Dict[int, Tuple[str, ...]] = {}
        self._allocate(0)

    # ------------------------------------------------------------ columns
    #: Every column as (attribute, dtype, reset value, one entry per test).
    _COLUMNS: Tuple[Tuple[str, Any, Any, bool], ...] = (
        ("_state", np.int8, 0, False),  # STATES code
        ("_consecutive", np.int64, 0, False),
        ("_sequences", np.int64, 0, False),
        ("_failures", np.int64, 0, False),
        ("_first_suspect", np.int64, -1, False),  # -1: none yet
        ("_first_failed", np.int64, -1, False),
        ("_counts", np.int32, 0, True),  # failing sequences per test
        ("_first_failing", bool, False, True),  # the first failing sequence's tests
        ("_first_set", bool, False, False),
        # The last sequence (``history``), read while ``_consecutive`` > 0:
        # its failing tests, and whether ``_last_errors`` holds its errors.
        ("_last_failing", bool, False, True),
        ("_last_erred", bool, False, False),
        ("_has_last", bool, False, False),  # False after a reset or load
    )
    _state: np.ndarray
    _consecutive: np.ndarray
    _sequences: np.ndarray
    _failures: np.ndarray
    _first_suspect: np.ndarray
    _first_failed: np.ndarray
    _counts: np.ndarray
    _first_failing: np.ndarray
    _first_set: np.ndarray
    _last_failing: np.ndarray
    _last_erred: np.ndarray
    _has_last: np.ndarray

    def _allocate(self, capacity: int) -> None:
        """(Re)allocate every column at ``capacity`` rows, keeping the rows
        in use; new rows start in the reset state."""
        for name, dtype, fill, per_test in self._COLUMNS:
            shape = (capacity, len(self.tests)) if per_test else (capacity,)
            column = np.full(shape, fill, dtype=dtype)
            if self._rows:
                column[: self._rows] = getattr(self, name)[: self._rows]
            setattr(self, name, column)
        self._capacity = capacity

    def __len__(self) -> int:
        return self._rows

    def add(self) -> int:
        """Append one device in the reset state; returns its row."""
        if self._rows == self._capacity:
            self._allocate(max(16, 2 * self._capacity))
        self._rows += 1
        return self._rows - 1

    def reset(self, row: Optional[int] = None) -> None:
        """Return one row (default: every row) to the reset state."""
        rows = slice(0, self._rows) if row is None else slice(row, row + 1)
        for name, _, fill, _ in self._COLUMNS:
            getattr(self, name)[rows] = fill
        if row is None:
            self._last_errors.clear()
        else:
            self._last_errors.pop(row, None)

    # ------------------------------------------------------------ fold
    def fold(self, rows: np.ndarray, failing: np.ndarray, errors: RowErrors) -> Folded:
        """Fold sequences into their devices' rows, in stream order.

        ``rows`` holds each sequence's device row: distinct rows (a round,
        one sequence per device) or one row repeated (an ingest chunk, k
        sequences of one device in stream order).  ``failing`` is the
        ``(len(rows), tests)`` mask in :attr:`tests` column order (a wide
        round is cheapest column-major: its row-wise ``any`` then runs over
        whole columns) and ``errors`` maps a position to its sorted error
        strings.  A sequence fails when a test rejected it or raised on it,
        exactly as :meth:`~repro.core.monitor.OnTheFlyMonitor.observe`
        folds the matching :class:`FleetVerdict`.
        """
        if rows.size > 1 and rows[0] != rows[-1]:
            return self._fold_devices(rows, failing, errors)
        return self._fold_device(int(rows[0]), failing, errors)

    @staticmethod
    def _failed(failing: np.ndarray, errors: RowErrors) -> np.ndarray:
        """Per sequence: did a test reject it or raise on it?"""
        failed = failing.any(axis=1)
        if errors:
            failed[list(errors)] = True
        return failed

    def _state_codes(self, consecutive: np.ndarray) -> np.ndarray:
        """State code per consecutive-failure count (counts past
        ``fail_after`` clip onto its code)."""
        return self._codes.take(consecutive, mode="clip")

    def _fold_devices(self, rows: np.ndarray, failing: np.ndarray, errors: RowErrors) -> Folded:
        """One sequence per device: column updates, the failing rows apart."""
        hit = np.flatnonzero(self._failed(failing, errors))
        devices = rows[hit]
        index = self._sequences[rows]
        before = self._state[rows]
        consecutive = np.zeros(rows.size, dtype=np.int64)
        consecutive[hit] = self._consecutive[devices] + 1
        state = np.zeros(rows.size, dtype=np.int8)
        state[hit] = self._state_codes(consecutive[hit])
        self._state[rows] = state
        self._consecutive[rows] = consecutive
        self._sequences[rows] = index + 1
        self._has_last[rows] = True
        if hit.size:
            hit_state, hit_index, hit_failing = state[hit], index[hit], failing[hit]
            self._failures[devices] += 1
            self._counts[devices] += hit_failing
            for column, reached in (
                (self._first_suspect, hit_state > 0),
                (self._first_failed, hit_state == 2),
            ):
                new = reached & (column[devices] < 0)
                column[devices[new]] = hit_index[new]
            new = ~self._first_set[devices]
            self._first_failing[devices[new]] = hit_failing[new]
            self._first_set[devices[new]] = True
            self._last_failing[devices] = hit_failing
            self._last_erred[devices] = False
            for at, messages in errors.items():
                self._last_erred[rows[at]] = True
                self._last_errors[int(rows[at])] = messages
        return Folded(index, before, state, consecutive)

    def _fold_device(self, row: int, failing: np.ndarray, errors: RowErrors) -> Folded:
        """Sequences of one device in stream order: a run-length pass."""
        failed = self._failed(failing, errors)
        size = failed.size
        start = int(self._sequences[row])
        index = np.arange(start, start + size)
        failures = int(np.count_nonzero(failed))
        before = np.empty(size, dtype=np.int8)
        before[0] = self._state[row]
        self._sequences[row] = start + size
        self._has_last[row] = True
        if not failures:
            consecutive = np.zeros(size, dtype=np.int64)
            state = np.zeros(size, dtype=np.int8)
            before[1:] = 0
            self._state[row] = 0
            self._consecutive[row] = 0
            return Folded(index, before, state, consecutive)
        # Consecutive failures: the distance to the last pass, where the
        # carried count puts a virtual pass that far before the chunk.
        position = index - start
        carried = -1 - int(self._consecutive[row])
        consecutive = position - np.maximum.accumulate(np.where(failed, carried, position))
        state = self._state_codes(consecutive)
        before[1:] = state[:-1]
        self._state[row] = state[-1]
        self._consecutive[row] = consecutive[-1]
        self._failures[row] += failures
        self._counts[row] += failing.sum(axis=0, dtype=np.int32)  # passes add nothing
        for column, code in ((self._first_suspect, 1), (self._first_failed, 2)):
            if column[row] < 0:
                reached = np.flatnonzero(state >= code)
                if reached.size:
                    column[row] = start + int(reached[0])
        if not self._first_set[row]:
            self._first_failing[row] = failing[int(failed.argmax())]
            self._first_set[row] = True
        if failed[-1]:
            self._last_failing[row] = failing[-1]
            messages = errors.get(size - 1)
            self._last_erred[row] = messages is not None
            if messages is not None:
                self._last_errors[row] = messages
        return Folded(index, before, state, consecutive)

    # ------------------------------------------------------------ reads
    def counts(self) -> Dict[str, int]:
        """Health mix: state value -> number of devices."""
        tally = np.bincount(self._state[: self._rows], minlength=len(STATES)).tolist()
        return {state.value: tally[code] for code, state in enumerate(STATES)}

    def _verdict(self, failing: Sequence[bool], errors: Tuple[str, ...]) -> FleetVerdict:
        """The failing :class:`FleetVerdict` of one mask row and its errors."""
        failing_tests = tuple(number for number, flag in zip(self.tests, failing) if flag)
        return FleetVerdict(passed=False, failing_tests=failing_tests, errors=errors)

    def events(
        self, folded: Folded, failing: np.ndarray, errors: RowErrors
    ) -> List[MonitorEvent]:
        """One :class:`MonitorEvent` per row of a :meth:`fold`.

        A row failed exactly when its consecutive count is non-zero.
        """
        events: List[MonitorEvent] = []
        for at, (index, state, consecutive) in enumerate(
            zip(folded.index.tolist(), folded.state.tolist(), folded.consecutive.tolist())
        ):
            report = (
                self._verdict(failing[at].tolist(), errors.get(at, ()))
                if consecutive
                else PASSED
            )
            events.append(MonitorEvent(index, report, STATES[state], consecutive))
        return events

    def last_event(self, row: int) -> Optional[MonitorEvent]:
        """The row's last folded sequence as an event (None after a reset or load)."""
        if not self._has_last[row]:
            return None
        consecutive = int(self._consecutive[row])
        report = PASSED
        if consecutive:
            errors = self._last_errors[row] if self._last_erred[row] else ()
            report = self._verdict(self._last_failing[row].tolist(), errors)
        return MonitorEvent(
            int(self._sequences[row]) - 1, report, STATES[int(self._state[row])], consecutive
        )

    # ------------------------------------------------------------ state dict
    def state_dicts(self, start: int = 0, stop: Optional[int] = None) -> List[Dict[str, Any]]:
        """Rows ``start:stop`` in :meth:`OnTheFlyMonitor.state_dict
        <repro.core.monitor.OnTheFlyMonitor.state_dict>`'s format."""
        rows = slice(start, self._rows if stop is None else stop)
        first_failing = self._first_failing[rows].tolist()
        counts = self._counts[rows].tolist()
        states: List[Dict[str, Any]] = []
        for (
            consecutive, sequences, failures, first_failed, first_suspect,
            first_set, first_row, count_row,
        ) in zip(
            self._consecutive[rows].tolist(),
            self._sequences[rows].tolist(),
            self._failures[rows].tolist(),
            self._first_failed[rows].tolist(),
            self._first_suspect[rows].tolist(),
            self._first_set[rows].tolist(),
            first_failing,
            counts,
        ):
            states.append(
                {
                    "version": 1,
                    "suspect_after": self.suspect_after,
                    "fail_after": self.fail_after,
                    "max_history": 1,
                    "consecutive_failures": consecutive,
                    "sequences_monitored": sequences,
                    "failures_total": failures,
                    "first_failed_index": None if first_failed < 0 else first_failed,
                    "first_suspect_index": None if first_suspect < 0 else first_suspect,
                    "first_failing_tests": (
                        [number for number, flag in zip(self.tests, first_row) if flag]
                        if first_set
                        else None
                    ),
                    "failing_test_counts": {
                        str(number): count
                        for number, count in zip(self.tests, count_row)
                        if count
                    },
                }
            )
        return states

    def load_state(self, row: int, state: Mapping[str, Any]) -> None:
        """Restore one row from a monitor :meth:`state_dict` capture.

        The health policy must match, as for
        :meth:`~repro.core.monitor.OnTheFlyMonitor.load_state`; the row's
        last event is not part of the state, so the history reads empty.
        """
        if state.get("version") != 1:
            raise ValueError(f"unsupported monitor state version {state.get('version')!r}")
        for key, expected in (
            ("suspect_after", self.suspect_after),
            ("fail_after", self.fail_after),
        ):
            if state[key] != expected:
                raise ValueError(
                    f"monitor state mismatch: {key} is {state[key]!r}, "
                    f"this monitor has {expected!r}"
                )
        counts = np.zeros(len(self.tests), dtype=np.int32)
        for number, count in state["failing_test_counts"].items():
            counts[self._test_column(int(number))] = int(count)
        first_failing = np.zeros(len(self.tests), dtype=bool)
        if state["first_failing_tests"] is not None:
            first_failing[[self._test_column(int(n)) for n in state["first_failing_tests"]]] = True
        consecutive = int(state["consecutive_failures"])
        self.reset(row)
        self._state[row] = self._codes[min(consecutive, self.fail_after)]
        self._consecutive[row] = consecutive
        self._sequences[row] = int(state["sequences_monitored"])
        self._failures[row] = int(state["failures_total"])
        for column, key in (
            (self._first_failed, "first_failed_index"),
            (self._first_suspect, "first_suspect_index"),
        ):
            column[row] = -1 if state[key] is None else int(state[key])
        self._counts[row] = counts
        self._first_failing[row] = first_failing
        self._first_set[row] = state["first_failing_tests"] is not None

    def _test_column(self, number: int) -> int:
        try:
            return self._column[number]
        except KeyError:
            raise ValueError(
                f"test {number} is not one of this fleet's tests {list(self.tests)}"
            ) from None


class DeviceHealth:
    """One device's row of a :class:`FleetHealth` (``Device.monitor``).

    Reads like the device's own
    :class:`~repro.core.monitor.OnTheFlyMonitor`: its state, running totals,
    detection hooks, last event (:attr:`history`), ``state_dict`` format and
    a one-row :meth:`observe`.
    """

    __slots__ = ("_health", "row")

    def __init__(self, health: FleetHealth, row: int):
        self._health = health
        self.row = row

    @property
    def state(self) -> HealthState:
        return STATES[int(self._health._state[self.row])]

    @property
    def sequences_monitored(self) -> int:
        return int(self._health._sequences[self.row])

    @property
    def failures_total(self) -> int:
        return int(self._health._failures[self.row])

    @property
    def first_suspect_index(self) -> Optional[int]:
        index = int(self._health._first_suspect[self.row])
        return None if index < 0 else index

    @property
    def first_failed_index(self) -> Optional[int]:
        index = int(self._health._first_failed[self.row])
        return None if index < 0 else index

    @property
    def first_failing_tests(self) -> Optional[Tuple[int, ...]]:
        health = self._health
        if not health._first_set[self.row]:
            return None
        return tuple(
            number
            for number, flag in zip(health.tests, health._first_failing[self.row].tolist())
            if flag
        )

    @property
    def history(self) -> List[MonitorEvent]:
        """The last folded sequence's event (empty before the first one)."""
        event = self._health.last_event(self.row)
        return [] if event is None else [event]

    def failure_rate(self) -> float:
        sequences = self.sequences_monitored
        return self.failures_total / sequences if sequences else 0.0

    def detection_latency_sequences(self) -> Optional[int]:
        first = self.first_failed_index
        return None if first is None else first + 1

    def fold(self, failing: np.ndarray, errors: RowErrors) -> Tuple[Folded, List[MonitorEvent]]:
        """Fold this device's sequences in stream order (see
        :meth:`FleetHealth.fold`); returns the fold and one event per
        sequence."""
        health = self._health
        folded = health._fold_device(self.row, failing, errors)
        return folded, health.events(folded, failing, errors)

    def observe(self, report: Any) -> MonitorEvent:
        """Fold one sequence's verdict (a :class:`FleetVerdict` or a
        :class:`~repro.core.results.PlatformReport`, whose consistency
        violations count as errors) into this row."""
        health = self._health
        failing = np.zeros((1, len(health.tests)), dtype=bool)
        failing[0, [health._test_column(number) for number in report.failing_tests]] = True
        messages = tuple(getattr(report, "errors", ())) + tuple(
            getattr(report, "consistency_violations", ())
        )
        return self.fold(failing, {0: messages} if messages else {})[1][0]

    def state_dict(self) -> Dict[str, Any]:
        return self._health.state_dicts(self.row, self.row + 1)[0]

    def load_state(self, state: Mapping[str, Any]) -> None:
        self._health.load_state(self.row, state)

    def reset(self) -> None:
        self._health.reset(self.row)
