"""Continuous on-the-fly monitoring of a running entropy source.

The platform of :mod:`repro.core.platform` evaluates one n-bit sequence at a
time; a deployed TRNG is monitored *continuously* — the hardware block stays
active whenever the TRNG runs (Section III-A), and the software checks the
results sequence after sequence.  :class:`OnTheFlyMonitor` models that
operation, including a simple health policy (how many consecutive failing
sequences demote the source to SUSPECT / FAILED) of the kind an AIS-31-style
integrator would wrap around the raw test outcomes.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.core.platform import OnTheFlyPlatform
from repro.core.results import PlatformReport
from repro.trng.source import EntropySource

__all__ = ["HealthState", "MonitorEvent", "OnTheFlyMonitor"]


class HealthState(enum.Enum):
    """Health of the monitored entropy source."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    FAILED = "failed"


@dataclass
class MonitorEvent:
    """One monitored sequence: its report and the resulting health state."""

    sequence_index: int
    report: PlatformReport
    state: HealthState
    consecutive_failures: int


class OnTheFlyMonitor:
    """Sequence-by-sequence health monitor wrapped around a platform.

    Parameters
    ----------
    platform:
        The HW/SW platform doing the per-sequence evaluation.
    suspect_after:
        Number of consecutive failing sequences after which the source is
        reported SUSPECT.
    fail_after:
        Number of consecutive failing sequences after which the source is
        reported FAILED (a total failure requiring the TRNG output to be
        disconnected from consumers).
    on_event:
        Optional callback invoked with every :class:`MonitorEvent`.
    max_history:
        When set, only the most recent ``max_history`` events are retained
        in :attr:`history` (a bounded deque), so monitoring millions of
        sequences runs in constant memory.  The aggregate statistics
        (:attr:`sequences_monitored`, :meth:`failure_rate`,
        :meth:`detection_latency_bits`) are kept exact via running totals
        regardless of the bound.
    """

    def __init__(
        self,
        platform: OnTheFlyPlatform,
        suspect_after: int = 1,
        fail_after: int = 2,
        on_event: Optional[Callable[[MonitorEvent], None]] = None,
        max_history: Optional[int] = None,
    ):
        if suspect_after < 1 or fail_after < suspect_after:
            raise ValueError("need 1 <= suspect_after <= fail_after")
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be positive (or None for unbounded)")
        self.platform = platform
        self.suspect_after = suspect_after
        self.fail_after = fail_after
        self.on_event = on_event
        self.max_history = max_history
        self.history: Deque[MonitorEvent] = deque(maxlen=max_history)
        self._consecutive_failures = 0
        self._sequences_monitored = 0
        self._failures_total = 0
        self._first_failed_index: Optional[int] = None
        self._first_suspect_index: Optional[int] = None
        self._first_failing_tests: Optional[Tuple[int, ...]] = None
        self._failing_test_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> HealthState:
        """Current health state of the monitored source."""
        if self._consecutive_failures >= self.fail_after:
            return HealthState.FAILED
        if self._consecutive_failures >= self.suspect_after:
            return HealthState.SUSPECT
        return HealthState.HEALTHY

    @property
    def sequences_monitored(self) -> int:
        """Number of sequences evaluated so far (exact even with bounded history)."""
        return self._sequences_monitored

    @property
    def failures_total(self) -> int:
        """Number of failing sequences so far (exact even with bounded history)."""
        return self._failures_total

    def reset(self) -> None:
        """Forget all history (e.g. after the TRNG has been serviced)."""
        self.history = deque(maxlen=self.max_history)
        self._consecutive_failures = 0
        self._sequences_monitored = 0
        self._failures_total = 0
        self._first_failed_index = None
        self._first_suspect_index = None
        self._first_failing_tests = None
        self._failing_test_counts = {}

    # ------------------------------------------------------------------ state dict
    def state_dict(self) -> Dict[str, object]:
        """The monitor's decision state as plain JSON-safe values.

        Captures everything the health machine decides from — counters,
        first-failure attribution, the health policy for validation — but
        *not* :attr:`history`: the retained :class:`MonitorEvent` objects
        carry whole platform reports and are operational context, not
        decision state.  :meth:`load_state` restores an empty history; the
        subsequent health trajectory is bit-identical regardless.
        """
        return {
            "version": 1,
            "suspect_after": self.suspect_after,
            "fail_after": self.fail_after,
            "max_history": self.max_history,
            "consecutive_failures": self._consecutive_failures,
            "sequences_monitored": self._sequences_monitored,
            "failures_total": self._failures_total,
            "first_failed_index": self._first_failed_index,
            "first_suspect_index": self._first_suspect_index,
            "first_failing_tests": (
                None
                if self._first_failing_tests is None
                else list(self._first_failing_tests)
            ),
            # JSON object keys are strings; keep the on-disk form stable.
            "failing_test_counts": {
                str(number): count
                for number, count in self._failing_test_counts.items()
            },
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` capture (history restored empty).

        The health policy (``suspect_after`` / ``fail_after``) must match
        the captured one — restoring counters under a different policy
        would silently change what the counters mean.
        """
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported monitor state version {state.get('version')!r}"
            )
        for key, expected in (
            ("suspect_after", self.suspect_after),
            ("fail_after", self.fail_after),
        ):
            if state[key] != expected:
                raise ValueError(
                    f"monitor state mismatch: {key} is {state[key]!r}, "
                    f"this monitor has {expected!r}"
                )
        self.history = deque(maxlen=self.max_history)
        self._consecutive_failures = int(state["consecutive_failures"])  # type: ignore[arg-type]
        self._sequences_monitored = int(state["sequences_monitored"])  # type: ignore[arg-type]
        self._failures_total = int(state["failures_total"])  # type: ignore[arg-type]
        first_failed = state["first_failed_index"]
        self._first_failed_index = None if first_failed is None else int(first_failed)  # type: ignore[arg-type]
        first_suspect = state["first_suspect_index"]
        self._first_suspect_index = (
            None if first_suspect is None else int(first_suspect)  # type: ignore[arg-type]
        )
        failing = state["first_failing_tests"]
        self._first_failing_tests = (
            None if failing is None else tuple(int(number) for number in failing)  # type: ignore[union-attr]
        )
        counts = state["failing_test_counts"]
        self._failing_test_counts = {
            int(number): int(count) for number, count in counts.items()  # type: ignore[union-attr]
        }

    # ------------------------------------------------------------------ monitoring
    def observe(self, report: PlatformReport) -> MonitorEvent:
        """Fold one sequence report into the health state."""
        index = self._sequences_monitored
        self._sequences_monitored += 1
        if report.passed:
            self._consecutive_failures = 0
        else:
            self._consecutive_failures += 1
            self._failures_total += 1
            failing = tuple(report.failing_tests)
            if self._first_failing_tests is None:
                self._first_failing_tests = failing
            for number in failing:
                self._failing_test_counts[number] = (
                    self._failing_test_counts.get(number, 0) + 1
                )
        state = self.state
        if state is not HealthState.HEALTHY and self._first_suspect_index is None:
            self._first_suspect_index = index
        if state is HealthState.FAILED and self._first_failed_index is None:
            self._first_failed_index = index
        event = MonitorEvent(
            sequence_index=index,
            report=report,
            state=state,
            consecutive_failures=self._consecutive_failures,
        )
        self.history.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    def monitor(
        self,
        source: EntropySource,
        num_sequences: int,
        batch_size: Optional[int] = None,
        accelerated: bool = True,
    ) -> List[MonitorEvent]:
        """Monitor ``source`` for ``num_sequences`` consecutive n-bit sequences.

        Sequences are pulled from the source block-natively
        (:meth:`~repro.trng.source.EntropySource.generate_block`) and run
        through the vectorised functional hardware model by default;
        ``accelerated=False`` selects the RTL-fidelity path (the
        cycle-accurate hardware is clocked once per bit of each block).  With
        ``batch_size > 1`` the monitor additionally drains the source in
        whole trial matrices
        (:meth:`~repro.trng.source.EntropySource.generate_matrix`) and
        evaluates each batch through
        :meth:`~repro.core.platform.OnTheFlyPlatform.evaluate_batch` (the
        engine path).  The health-state trajectory is identical on every
        path.

        With ``max_history`` set, the returned list is bounded to the most
        recent ``max_history`` events as well, so monitoring millions of
        sequences really does run in constant memory; use ``on_event`` to
        stream every event.
        """
        if num_sequences < 1:
            raise ValueError("num_sequences must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive (or None)")
        events: "deque[MonitorEvent] | List[MonitorEvent]"
        events = [] if self.max_history is None else deque(maxlen=self.max_history)
        if batch_size is None or batch_size <= 1:
            for _ in range(num_sequences):
                report = self.platform.evaluate_source(source, accelerated=accelerated)
                events.append(self.observe(report))
            return list(events)
        remaining = num_sequences
        while remaining > 0:
            take = min(batch_size, remaining)
            matrix = source.generate_matrix(take, self.platform.n)
            for report in self.platform.evaluate_batch(matrix, accelerated=accelerated):
                events.append(self.observe(report))
            remaining -= take
        return list(events)

    def monitor_until_failure(
        self,
        source: EntropySource,
        max_sequences: int = 1000,
        accelerated: bool = True,
    ) -> Iterator[MonitorEvent]:
        """Yield events until the source is FAILED or the budget is exhausted."""
        for _ in range(max_sequences):
            report = self.platform.evaluate_source(source, accelerated=accelerated)
            event = self.observe(report)
            yield event
            if event.state is HealthState.FAILED:
                return

    # ------------------------------------------------------------------ reporting
    def failure_rate(self) -> float:
        """Fraction of monitored sequences with at least one failing test.

        Computed from running totals, so it stays exact when ``max_history``
        has evicted old events.
        """
        if self._sequences_monitored == 0:
            return 0.0
        return self._failures_total / self._sequences_monitored

    @property
    def first_failed_index(self) -> Optional[int]:
        """Index of the sequence at which the source first became FAILED."""
        return self._first_failed_index

    @property
    def first_suspect_index(self) -> Optional[int]:
        """Index of the sequence at which the source first left HEALTHY."""
        return self._first_suspect_index

    @property
    def first_failing_tests(self) -> Optional[Tuple[int, ...]]:
        """NIST test numbers that flagged the first failing sequence.

        These are the detection campaign's "first detectors": the tests whose
        verdicts raised the initial alarm (None while no sequence has failed).
        """
        return self._first_failing_tests

    def failing_test_counts(self) -> Dict[int, int]:
        """Per-test attribution: test number -> number of failing sequences
        in which that test rejected the randomness hypothesis.

        Kept as running totals, so it stays exact when ``max_history`` has
        evicted old events.
        """
        return dict(self._failing_test_counts)

    def detection_latency_sequences(self) -> Optional[int]:
        """Sequences consumed until the first FAILED state (None if never)."""
        if self._first_failed_index is None:
            return None
        return self._first_failed_index + 1

    def detection_latency_bits(self) -> Optional[int]:
        """Bits consumed until the first FAILED state (None if never failed)."""
        if self._first_failed_index is None:
            return None
        return (self._first_failed_index + 1) * self.platform.n

