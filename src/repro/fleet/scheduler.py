"""Fleet scheduler: the whole fleet through the batch engine, round by round.

A naive port of :class:`~repro.core.monitor.OnTheFlyMonitor` to a fleet runs
one platform evaluation per device per round — thousands of per-sequence
hardware-model passes, none of which share any work.  The scheduler
multiplexes instead: each round it pulls **one** n-bit sequence per device,
packs the fleet into a single ``(num_devices, words)`` array of 64-bit words
and pushes it through :func:`repro.engine.batch.run_batch`, whose
:class:`~repro.engine.context.BatchContext` computes the shared statistics
of the design's test subset in single vectorised 2-D passes over the whole
fleet.  The round's failing mask then folds into the fleet's health
columns (:class:`~repro.fleet.health.FleetHealth`) in one numpy pass,
exactly as per-device monitoring would.

Rows are independent from generation to decision, so a matrix round fans
out in-process over one thread per core, each with a contiguous device
slice: each device writes its sequence as packed words
(:meth:`~repro.trng.source.EntropySource.generate_words`) straight into its
row of one preallocated ``(devices, words)`` uint64 array (no uint8 round
matrix), the slice runs ``run_batch`` on its rows and decides them: it
writes its rows of the round's failing mask and returns its rows' errors.
numpy releases the GIL in the raw draws and the kernels.  Only the fold
stays on the calling thread.  Only rounds that give every worker a full
row tile fan out; smaller ones run the same code inline.  There is no knob.

Ingest takes chunks of any size.  As in the paper's platform, whose input
buffer holds only the unfinished sequence, each device keeps a tail of
fewer than n bits; the complete sequences of tail plus chunk run through
the same batch path as one matrix, and the remainder becomes the new tail.

``benchmarks/bench_fleet.py`` pins the speedup: the multiplexed round must
stay >= 5x faster than the naive per-device loop at a 512-device fleet.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.core.monitor import MonitorEvent
from repro.engine.batch import BatchResult, run_batch
from repro.engine.packed import BITS_PER_WORD, WORD_DTYPE, PackedMatrix, bit_tile_rows
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.fleet.health import PASSED, STATES, Folded, FleetVerdict, RowErrors
from repro.fleet.registry import Device, DeviceRegistry
from repro.fleet.report import FleetReport, FleetRound, build_report
from repro.nist.common import BitsLike, to_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (durability imports us)
    from repro.fleet.durability import IngestJournal

__all__ = [
    "DuplicateIngestError",
    "FleetScheduler",
    "FleetVerdict",
    "IngestSequenceError",
    "IngestSequenceGapError",
]

#: Canonical registry id -> NIST test number (for verdict attribution).
_ID_TO_NIST_NUMBER = {test_id: number for number, test_id in NIST_NUMBER_TO_ID.items()}

#: Worker threads a matrix round fans out over: the cores this process may use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

_ROUND_SECONDS = obs.histogram(
    "repro_fleet_round_latency_seconds",
    "Wall time of one multiplexed fleet round (generate + evaluate + fold).",
)
_DEVICES_PER_S = obs.gauge(
    "repro_fleet_devices_per_second",
    "Device throughput of the most recent fleet round.",
)
_INGEST_BITS = obs.counter(
    "repro_fleet_ingest_bits_total",
    "Raw bits submitted through FleetScheduler.ingest (the service path).",
)
_HEALTH_TRANSITIONS = obs.counter(
    "repro_fleet_health_transitions_total",
    "Device health-state machine transitions, by (from, to) state pair.",
    labels=("from_state", "to_state"),
)
_INGEST_REJECTED = obs.counter(
    "repro_fleet_ingest_rejected_total",
    "Idempotency rejections on the sequenced ingest path, by reason.",
    labels=("reason",),
)


class IngestSequenceError(ValueError):
    """A sequenced ingest was rejected by the per-device monotonic contract.

    Sequenced ingest (``FleetScheduler.ingest(..., seq=...)``) requires each
    device's sequence numbers to arrive strictly in order (``last + 1``);
    this is what makes ingest idempotent, so clients can retry and the
    durability layer can replay its write-ahead journal without double-
    applying any chunk.
    """

    def __init__(self, device_id: str, seq: int, last_seq: int, message: str):
        super().__init__(message)
        self.device_id = device_id
        self.seq = seq
        self.last_seq = last_seq


class DuplicateIngestError(IngestSequenceError):
    """The chunk was already applied (``seq <= last``); safe to ignore."""

    def __init__(self, device_id: str, seq: int, last_seq: int):
        super().__init__(
            device_id,
            seq,
            last_seq,
            f"device {device_id!r} already applied ingest seq {seq} "
            f"(last applied seq is {last_seq})",
        )


class IngestSequenceGapError(IngestSequenceError):
    """The chunk arrived out of order (``seq > last + 1``); resend in order."""

    def __init__(self, device_id: str, seq: int, last_seq: int):
        super().__init__(
            device_id,
            seq,
            last_seq,
            f"device {device_id!r} expected ingest seq {last_seq + 1}, "
            f"got {seq} (chunks must arrive in order)",
        )


#: (from, to) state values per transition code ``3 * before + after``.
_TRANSITIONS = [(before.value, after.value) for before in STATES for after in STATES]


def _record_transitions(folded: Folded) -> None:
    """One counter inc per observed (from, to) state pair of a fold."""
    codes = len(STATES) * folded.before + folded.state  # int8: at most 8
    pairs = np.bincount(codes, minlength=len(_TRANSITIONS)).tolist()
    for (before, after), count in zip(_TRANSITIONS, pairs):
        if count:
            _HEALTH_TRANSITIONS.inc(count, from_state=before, to_state=after)


@lru_cache(maxsize=64)
def _nist_order(test_ids: Tuple[str, ...]) -> Tuple[np.ndarray, Union[np.ndarray, slice]]:
    """``(numbers, order)``: the NIST numbers of ``test_ids`` ascending
    (-1 for a non-NIST test) and the column order that sorts them."""
    numbers = np.array([_ID_TO_NIST_NUMBER.get(test_id, -1) for test_id in test_ids])
    order = np.argsort(numbers, kind="stable")
    if np.array_equal(order, np.arange(order.size)):
        return numbers, slice(None)  # already ascending: no column gather
    return numbers[order], order


def _verdict_rows(result: BatchResult, alpha: float) -> Tuple[np.ndarray, RowErrors]:
    """The batch's failing mask, columns in ascending NIST-number order, and
    the sorted error strings of every row a test raised on."""
    _, order = _nist_order(result.test_ids)
    row_errors: Dict[int, List[str]] = {}
    for test_errors in result.errors.values():
        for row, message in test_errors.items():
            row_errors.setdefault(row, []).append(message)
    errors = {row: tuple(sorted(messages)) for row, messages in row_errors.items()}
    return result.failing(alpha)[:, order], errors


def _reduce_verdicts(result: BatchResult, alpha: float) -> List[FleetVerdict]:
    """Per-sequence verdicts straight from the batch's failing mask.

    A row fails when any test rejected it (its failing NIST numbers in
    ascending order) or any test raised on it (its sorted error strings);
    no per-row :class:`~repro.nist.common.TestResult` is ever built.
    """
    numbers, _ = _nist_order(result.test_ids)
    failing, errors = _verdict_rows(result, alpha)
    verdicts = [PASSED] * len(result)
    for row in set(failing.any(axis=1).nonzero()[0].tolist()) | set(errors):
        verdicts[row] = FleetVerdict(
            passed=False,
            failing_tests=tuple(numbers[failing[row]].tolist()),
            errors=errors.get(row, ()),
        )
    return verdicts


#: The empty tail (never written to: tails are replaced, not mutated).
_NO_BITS = np.zeros(0, dtype=np.uint8)
_NO_BITS.flags.writeable = False


@dataclass
class _IngestStream:
    """Per-device ingest state (the service path's serialisation point).

    ``lock`` serialises ingests for one device (chunk order defines the
    stream, and the monotonic ``seq`` contract needs a total per-device
    order) without ever holding the fleet lock across an engine
    evaluation.  ``tail`` holds the bits of the device's next, not yet
    complete, n-bit sequence (fewer than n); ``last_seq`` is the
    idempotency high-water mark.
    """

    lock: threading.Lock
    tail: np.ndarray = field(default_factory=lambda: _NO_BITS)
    last_seq: Optional[int] = None


def _stored_tail(spec: Dict[str, Any]) -> np.ndarray:
    """A device's tail from its :meth:`FleetScheduler.state_dict` entry.

    A version-1 entry of a streaming fleet holds the device's packed ring
    and the count of its pending bits instead: the tail is the ring's last
    ``pending`` bits.  A version-1 matrix entry holds neither.
    """
    if "tail" in spec:
        return np.asarray(spec["tail"], dtype=np.uint8)
    pending = int(spec["pending"])
    if spec["context"] is None or pending == 0:
        return _NO_BITS
    return _v1_ring_tail(spec["context"], pending)


def _v1_ring_tail(ring: Dict[str, Any], pending: int) -> np.ndarray:
    """The last ``pending`` bits of a version-1 streaming ring capture.

    Committed word ``w`` of the stream sits at slot ``w % ring_words`` of
    the ``(1, ring_words)`` word array; the last ``min(committed,
    ring_words)`` committed words, then the ``tail_len``-bit tail word,
    are the stream's retained end, which is bit ``total_bits``.
    """
    if ring.get("version") != 1:
        raise ValueError(f"unsupported streaming state version {ring.get('version')!r}")
    capacity = int(ring["capacity_bits"])
    size = max(1, -(-capacity // BITS_PER_WORD))
    words = np.asarray(ring["words"], dtype=WORD_DTYPE)
    if words.shape != (1, size):
        raise ValueError(f"ring state has shape {words.shape}, expected {(1, size)}")
    committed, tail_len = int(ring["committed"]), int(ring["tail_len"])
    count = min(committed, size)
    kept = words[:, np.arange(committed - count, committed) % size]
    if tail_len:
        tail = np.asarray(ring["tail"], dtype=WORD_DTYPE).reshape(1, 1)
        kept = np.concatenate([kept, tail], axis=1)
    stream = PackedMatrix(kept, count * BITS_PER_WORD + tail_len)
    if pending > min(int(ring["total_bits"]), capacity, stream.n):
        raise ValueError(f"a ring of capacity {capacity} cannot hold {pending} pending bits")
    return stream.row(0)[stream.n - pending :]


def _round_slices(rows: int, n: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` device slices, one per worker.

    Only as many workers as get a full :func:`bit_tile_rows` tile each:
    below that the thread handoff costs more than the split saves.
    """
    workers = max(1, min(_WORKERS, rows // bit_tile_rows(n)))
    return [(rows * i // workers, rows * (i + 1) // workers) for i in range(workers)]


def _evaluate_slice(
    devices: Sequence[Device],
    n: int,
    tests: Sequence[int],
    alpha: float,
    words: np.ndarray,
    failing: np.ndarray,
) -> RowErrors:
    """Generate one device slice into its ``words`` rows and decide it.

    Writes the slice's rows of the round's failing mask and returns its
    rows' errors.  Touches only its own sources and rows, and never the
    fleet lock: the round's caller holds that lock while it waits, and
    folds the round itself.
    """
    with obs.span("generate"):
        for row, device in enumerate(devices):
            words[row] = device.source.generate_words(n)
        matrix = PackedMatrix(words, n)
    with obs.span("evaluate"):
        mask, errors = _verdict_rows(run_batch(matrix, tests=list(tests)), alpha)
        failing[:] = mask
    return errors


def _evaluate_shard(parent: obs.Span, *job: Any) -> RowErrors:
    """:func:`_evaluate_slice` under a ``shard`` span of the round's root."""
    with obs.span_under(parent, "shard", rows=len(job[0])):
        return _evaluate_slice(*job)


class FleetScheduler:
    """Advances a whole device fleet in multiplexed engine rounds.

    Parameters
    ----------
    registry:
        The populated :class:`~repro.fleet.registry.DeviceRegistry`; the
        scheduler evaluates with the registry's shared design point (test
        subset, sequence length) and alpha.

    Rounds fan out over device slices (see the module docstring) with
    results bit-identical to one worker.  Ingest accepts chunks of any
    size; a trailing partial sequence waits in the device's tail (see
    :meth:`pending_bits`) until the next chunk completes it.
    """

    def __init__(self, registry: DeviceRegistry):
        self.registry = registry
        self._ingest_streams: Dict[str, "_IngestStream"] = {}
        # Guards the ingest-entry dict alone (add-only membership), so
        # state_dict() can enumerate entries *before* taking their locks —
        # the entry-locks-then-fleet-lock order every ingest follows.
        self._streams_lock = threading.Lock()
        #: Write-ahead journal attached by the durability layer
        #: (:class:`repro.fleet.durability.DurableFleet`); when set,
        #: completed rounds append replay markers to it.  ``None`` while no
        #: durability spool is configured (and during journal replay, so
        #: replayed rounds are not re-journaled).
        self.journal: Optional["IngestJournal"] = None
        self.rounds: List[FleetRound] = []
        #: Serialises fleet mutations (rounds, ingest, registration) between
        #: the scheduler's owner and the HTTP service threads; re-entrant so
        #: the service can call locked scheduler methods under it.
        self.lock = threading.RLock()

    # ------------------------------------------------------------- evaluation
    def evaluate_matrix(
        self, matrix: Union[np.ndarray, PackedMatrix]
    ) -> List[FleetVerdict]:
        """One fleet matrix through the engine, on the calling thread.

        ``matrix`` is a ``(devices, n)`` uint8 matrix or a prepacked
        :class:`~repro.engine.packed.PackedMatrix`; the engine's batch
        context packs a uint8 input once (keeping its bytes for per-bit
        consumers), and either container yields identical verdicts.
        """
        result = run_batch(matrix, tests=list(self.registry.tests))
        return _reduce_verdicts(result, self.registry.alpha)

    def _decide(self, matrix: np.ndarray) -> Tuple[np.ndarray, RowErrors]:
        """One ``(sequences, n)`` matrix's failing mask and row errors (see
        :func:`_verdict_rows`), on the calling thread."""
        result = run_batch(matrix, tests=list(self.registry.tests))
        return _verdict_rows(result, self.registry.alpha)

    def _evaluate_round(
        self, devices: List[Device], root: obs.Span
    ) -> Tuple[np.ndarray, RowErrors]:
        """The round's failing mask (one row per device, column-major for
        the fold) and its rows' errors.

        Slices run under ``shard`` spans of ``root``, the first on the
        calling thread; a one-slice round runs inline with no shard span.
        An error propagates once every slice has finished.
        """
        n = self.registry.n
        tests = self.registry.tests
        alpha = self.registry.alpha
        words = np.empty((len(devices), (n + 63) // 64), dtype=WORD_DTYPE)
        failing = np.empty((len(devices), len(tests)), dtype=bool, order="F")
        slices = _round_slices(len(devices), n)
        jobs = [
            (devices[start:stop], n, tests, alpha, words[start:stop], failing[start:stop])
            for start, stop in slices
        ]
        if len(jobs) == 1:
            found = [_evaluate_slice(*jobs[0])]
        else:
            with ThreadPoolExecutor(max_workers=len(jobs) - 1) as pool:
                futures = [pool.submit(_evaluate_shard, root, *job) for job in jobs[1:]]
                found = [_evaluate_shard(root, *jobs[0])]
                found.extend(future.result() for future in futures)
        errors = {
            start + row: messages
            for (start, _), slice_errors in zip(slices, found)
            for row, messages in slice_errors.items()
        }
        return failing, errors

    # ------------------------------------------------------------- rounds
    def run_round(self) -> FleetRound:
        """Advance every simulated device by one sequence.

        Pulls one n-bit block per device (continuing each device's own
        stream — staged attacks and aging trajectories unfold across
        rounds), evaluates and decides the fleet through the engine —
        fanned out over device slices when the round is large enough — and
        folds the round's failing mask into the health columns in one pass
        on the calling thread.  If generation or evaluation raises, nothing
        is folded and no round is recorded or journaled.
        """
        with self.lock:
            devices = self.registry.simulated_devices()
            if not devices:
                raise ValueError(
                    "no simulated devices registered; populate() the fleet first"
                )
            # The root span is also the round timer: its duration feeds both
            # FleetRound.elapsed_s and the latency histogram (spans always
            # measure, even with recording disabled — see repro.obs.tracing).
            with obs.trace("fleet.run_round", devices=len(devices)) as root:
                failing, errors = self._evaluate_round(devices, root)
                with obs.span("fold"):
                    folded = self.registry.health.fold(
                        self.registry.simulated_rows(), failing, errors
                    )
                    _record_transitions(folded)
            elapsed = root.duration_s
            _ROUND_SECONDS.observe(elapsed)
            _DEVICES_PER_S.set(len(devices) / elapsed if elapsed > 0 else 0.0)
            fleet_round = FleetRound(
                index=len(self.rounds),
                health=self.registry.health_counts(),
                devices=len(devices),
                # A sequence failed exactly when it left a non-zero count.
                failing_sequences=int(np.count_nonzero(folded.consecutive)),
                elapsed_s=elapsed,
            )
            self.rounds.append(fleet_round)
            # Write-behind round marker: journaled only after the round's
            # effects are complete, so a crash mid-round replays nothing.
            # The index makes replay idempotent — a marker whose round is
            # already inside the restored snapshot is skipped.
            journal = self.journal
            if journal is not None:
                journal.append_round(fleet_round.index)
            return fleet_round

    def run(self, num_rounds: int) -> FleetReport:
        """Run ``num_rounds`` fleet rounds and build the aggregate report."""
        if num_rounds < 1:
            raise ValueError("num_rounds must be positive")
        for _ in range(num_rounds):
            self.run_round()
        return self.report()

    # ------------------------------------------------------------- ingest
    def ingest(
        self, device_id: str, bits: BitsLike, *, seq: Optional[int] = None
    ) -> List[MonitorEvent]:
        """Evaluate raw bits for one registered device (the service path).

        ``bits`` is anything :func:`~repro.nist.common.to_bits` accepts,
        at least one bit.  The chunk extends the device's tail; every
        complete n-bit sequence of the result is evaluated through the
        engine as one matrix and folded into the device's health machine in
        order, and the remainder (fewer than n bits) becomes the new tail
        (:meth:`pending_bits`).  An empty chunk raises ``ValueError`` before
        anything is journaled.

        ``seq`` opts the chunk into the idempotent sequenced contract: per
        device, sequence numbers must arrive strictly in order.  A replayed
        or retried chunk (``seq <= last``) raises
        :class:`DuplicateIngestError` *without* re-applying anything, an
        out-of-order chunk (``seq > last + 1``) raises
        :class:`IngestSequenceGapError` without applying it, and the
        sequence number commits, together with the new tail, only after the
        chunk's effects are fully folded — which is what lets clients retry
        blindly and the durability layer replay its write-ahead journal
        after a crash.

        Only the health-machine fold takes the fleet lock: the engine
        evaluation itself is pure compute over the submitted bits (the
        design's test subset and alpha are immutable registry config), so a
        large ingest never stalls concurrent service reads or scheduler
        rounds while the statistics run.  Chunks for one device serialise
        on that device's own entry lock instead (chunk order defines the
        stream and the seq order).
        """
        device = self.registry.get(device_id)
        arr = to_bits(bits)
        _INGEST_BITS.inc(arr.size)
        if arr.size == 0:
            raise ValueError("ingest needs at least one bit")
        n = self.registry.n
        entry = self._ingest_entry(device_id)
        with entry.lock:
            self._check_seq(entry, device_id, seq)
            # Write-ahead: journal the accepted chunk before applying it,
            # inside the entry lock so per-device journal order matches
            # apply order (replay depends on that for the seq contract).
            # During recovery replay the journal is still detached, so
            # replayed chunks are not re-journaled.
            journal = self.journal
            if journal is not None:
                journal.append_ingest(device_id, arr, seq=seq)
            if entry.tail.size:
                arr = np.concatenate((entry.tail, arr))
            complete = arr.size - arr.size % n
            events: List[MonitorEvent] = []
            if complete:
                failing, errors = self._decide(arr[:complete].reshape(-1, n))
                with self.lock:
                    folded, events = device.monitor.fold(failing, errors)
                    _record_transitions(folded)
            # Commit the tail and the idempotency high-water mark only after
            # the fold: a chunk whose evaluation failed stays unapplied and
            # must be resendable under the same seq.
            entry.tail = arr[complete:].copy()
            if seq is not None:
                entry.last_seq = seq
            return events

    @staticmethod
    def _check_seq(
        entry: _IngestStream, device_id: str, seq: Optional[int]
    ) -> None:
        """Enforce the strictly-in-order per-device seq contract (if opted in)."""
        if seq is None:
            return
        if seq < 0:
            raise ValueError("ingest seq must be non-negative")
        last = entry.last_seq
        if last is None:
            return
        if seq <= last:
            _INGEST_REJECTED.inc(reason="duplicate")
            raise DuplicateIngestError(device_id, seq, last)
        if seq != last + 1:
            _INGEST_REJECTED.inc(reason="gap")
            raise IngestSequenceGapError(device_id, seq, last)

    def last_ingest_seq(self, device_id: str) -> Optional[int]:
        """The device's last applied sequenced-ingest number (None if none)."""
        self.registry.get(device_id)
        with self._streams_lock:
            entry = self._ingest_streams.get(device_id)
        if entry is None:
            return None
        with entry.lock:
            return entry.last_seq

    def _ingest_entry(self, device_id: str) -> _IngestStream:
        """The device's ingest entry, created on first use (add-only)."""
        with self._streams_lock:
            entry = self._ingest_streams.get(device_id)
            if entry is None:
                entry = _IngestStream(lock=threading.Lock())
                self._ingest_streams[device_id] = entry
            return entry

    def pending_bits(self, device_id: str) -> int:
        """Bits of the device's next sequence waiting in its ingest tail.

        0 for devices that have not ingested yet.
        """
        self.registry.get(device_id)
        with self._streams_lock:
            entry = self._ingest_streams.get(device_id)
        if entry is None:
            return 0
        with entry.lock:
            return int(entry.tail.size)

    # ------------------------------------------------------------- state dict
    def state_dict(self) -> Dict[str, Any]:
        """The whole fleet's durable state as plain values.

        Covers the registry's device specs and health machines (sources
        pickled with their RNG state — see
        :meth:`~repro.fleet.registry.DeviceRegistry.state_dict` for the
        trust caveat), the round history, the execution-path record and
        every device's ingest entry (tail bits, idempotency high-water
        mark).

        The capture is crash-consistent: locks are taken in the same order
        every ingest uses (device entry locks first, then the fleet lock),
        so any concurrent ingest either commits *all* its effects before
        the capture or contributes none of them — exactly the property the
        write-ahead journal replay relies on.
        """
        while True:
            with self._streams_lock:
                entries = sorted(self._ingest_streams.items())
            for _, entry in entries:
                entry.lock.acquire()
            self.lock.acquire()
            with self._streams_lock:
                if len(self._ingest_streams) == len(entries):
                    break
            # A device ingested for the first time mid-capture; retry so
            # its entry is held too (entry creation is add-only).
            self.lock.release()
            for _, entry in entries:
                entry.lock.release()
        try:
            return {
                "version": 2,
                "registry": self.registry.state_dict(),
                "rounds": [fleet_round.to_dict() for fleet_round in self.rounds],
                "ingest_streams": {
                    device_id: {"tail": entry.tail, "last_seq": entry.last_seq}
                    for device_id, entry in entries
                },
            }
        finally:
            self.lock.release()
            for _, entry in entries:
                entry.lock.release()

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture into this scheduler.

        Reads version 2 and the version-1 captures of both former scheduler
        modes.  The registry configuration is validated by
        :meth:`~repro.fleet.registry.DeviceRegistry.load_state`.  Fields of
        older captures are ignored where they no longer shape any verdict:
        ``backend`` (every backend gave bit-identical statistics),
        ``streaming``, ``execution_paths`` (every test now runs through its
        batch entry) and a streaming fleet's ``round_stream`` ring (every
        round pushed n fresh bits, so the ring never reached a later
        verdict); a streaming device's ring becomes its tail (see
        :func:`_stored_tail`).  After the restore, subsequent rounds and
        sequenced ingests are bit-identical to the uninterrupted run.
        """
        if state.get("version") not in (1, 2):
            raise ValueError(
                f"unsupported fleet state version {state.get('version')!r}"
            )
        with self.lock:
            self.registry.load_state(state["registry"])
            self.rounds = [
                FleetRound.from_dict(entry) for entry in state["rounds"]
            ]
        with self._streams_lock:
            self._ingest_streams.clear()
            for device_id, spec in state["ingest_streams"].items():
                self._ingest_streams[device_id] = _IngestStream(
                    lock=threading.Lock(),
                    tail=_stored_tail(spec),
                    last_seq=spec["last_seq"],
                )

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Nothing to release: a round's worker threads end with the round."""

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- reporting
    def report(self) -> FleetReport:
        """Aggregate the fleet's current state into a :class:`FleetReport`."""
        with self.lock:
            return build_report(self.registry, self.rounds)
