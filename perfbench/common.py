"""Shared plumbing of the end-to-end benchmark: spans, layer probes, checks.

Everything here times the program from the outside, by calling the public
functions of its modules (``repro.trng``, ``repro.engine``, ``repro.fleet``,
``repro.core.monitor``, ``repro.nist``) inside the benchmark's own spans.
Nothing passes a ``backend``/``processes``/``streaming`` argument: the
benchmark measures whatever the default configuration runs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import run_batch
from repro.engine.context import BatchContext
from repro.engine.packed import pack_matrix
from repro.engine.registry import NIST_NUMBER_TO_ID
from repro.fleet.durability import DurableFleet, IngestJournal
from repro.fleet.registry import DeviceRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.service import FleetService
from repro.nist.block_frequency import block_frequency_test
from repro.nist.common import to_bits
from repro.nist.cusum import cumulative_sums_test
from repro.nist.frequency import frequency_test
from repro.nist.longest_run import (
    LONGEST_RUN_TABLES,
    longest_run_test,
    recommended_block_length,
)
from repro.nist.runs import runs_test

#: Short layer names of the decision metrics, by NIST test number.
DECIDE_NAMES = {1: "frequency", 2: "block_frequency", 3: "runs", 4: "longest_run", 13: "cusum"}

#: The scalar references the engine's p-values must equal exactly.
REFERENCES = {
    1: frequency_test,
    2: block_frequency_test,
    3: runs_test,
    4: longest_run_test,
    13: cumulative_sums_test,
}

#: End-to-end timings are read at this percentile of their samples (and
#: rates at 100 minus it): other tenants of a shared host slow a share of
#: ops that varies from run to run.  On a shared 2-core host the median round
#: spread 10-21% across ten runs of identical code, while the fast tail,
#: which tracks the program's own cost, held steadier.  The median and the
#: slow tail are printed with every run.
FAST_PERCENTILE = 10

#: ``block_frequency_test``'s default block length M (the fleet passes none).
BLOCK_FREQUENCY_M = 128

#: The layers from packed bits to a folded verdict, summed (with each
#: workload's own leaves) into an op; whatever the op took beyond them is
#: ``unattributed_s``.  The other layers are parents of these
#: (``run_batch``, ``fleet.ingest``, ``service.ingest``), parts of them
#: (``engine.stat_s.*``) or lie off the workload's path.
VERDICT_LEAVES = (
    "engine.pack_s",
    "engine.shared_stats_s",
    "engine.batch_overhead_s",
    *(f"engine.decide_s.{name}" for name in DECIDE_NAMES.values()),
    "fleet.reduce_s",
    "monitor.fold_s",
)


class Spans:
    """In-memory span recorder: name, parent, start and end of each span."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, Optional[str], float, float]] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((name, parent, start, end))

    def durations(self, name: str) -> List[float]:
        return [end - start for span, _, start, end in self.records if span == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def dump(self, path: Path) -> None:
        """Write every span as JSON, times in seconds from the first span."""
        origin = min((start for _, _, start, _ in self.records), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": name, "parent": parent, "start": start - origin, "end": end - origin}
            for name, parent, start, end in self.records
        ]
        path.write_text(json.dumps(spans))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def window_rates(ops: Sequence[Tuple[float, int]], window: int) -> List[float]:
    """Work per second over consecutive windows of ``window`` ops.

    ``ops`` holds (seconds, verdicts) per op in issue order.
    """
    return [
        sum(work for _, work in ops[start : start + window])
        / sum(seconds for seconds, _ in ops[start : start + window])
        for start in range(0, len(ops) - window + 1, window)
    ]


def calibration() -> Dict[str, object]:
    """Machine context: a popcount sweep over a 64 MiB slab, plus versions.

    A host busy with other work shows up as a low ``popcount_bytes_per_s``
    next to the run's figures.  Context only: no metric is scaled by it.
    """
    words = np.arange(8 << 20, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        if hasattr(np, "bitwise_count"):
            int(np.bitwise_count(words).sum(dtype=np.uint64))
        else:
            int(np.unpackbits(words.view(np.uint8)).sum(dtype=np.uint64))
        best = min(best, time.perf_counter() - start)
    return {
        "popcount_bytes_per_s": round(words.nbytes / best),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def external_registry(design: str, device_ids: Sequence[str]) -> DeviceRegistry:
    """A fleet of externally fed devices (bits arrive through ingest)."""
    registry = DeviceRegistry(design)
    for device_id in device_ids:
        registry.register(device_id)
    return registry


# ------------------------------------------------------------ engine layers
def probe_engine(spans: Spans, matrix: np.ndarray, tests: Sequence[int]) -> BatchContext:
    """Time ``run_batch``, then pack, shared statistics and per-test decisions.

    ``run_batch`` goes first so that it sees the same cache state as the
    ``evaluate_matrix`` call just before it: ``fleet.reduce_s`` is the
    difference of the two.  A decision is ``run_batch(context, tests=[t])``
    on the warm context net of ``run_batch(context, tests=[])``, the
    per-call cost of the batch's per-row contexts and reports, which is
    reported once as ``engine.batch_overhead_s``.  Returns the warm context,
    so the caller can read the op's statistics.
    """
    n = matrix.shape[1]
    with spans.span("engine.run_batch_s"):
        run_batch(matrix, tests=list(tests))
    with spans.span("engine.pack_s"):
        packed = pack_matrix(matrix)
    with spans.span("engine.shared_stats_s"):
        context = BatchContext(packed)
        statistics_by_name = {
            "ones": context.ones,
            "walk_extremes": context.walk_extremes,
            "num_runs": context.num_runs,
            "block_sums": lambda: context.block_sums(BLOCK_FREQUENCY_M),
            "block_longest": lambda: context.block_longest_one_runs(recommended_block_length(n)),
        }
        for name, compute in statistics_by_name.items():
            with spans.span(f"engine.stat_s.{name}"):
                compute()
    with spans.span("engine.batch_overhead_s"):
        run_batch(context, tests=[])
    for number in tests:
        with spans.span(f"engine.decide_gross.{DECIDE_NAMES[number]}"):
            run_batch(context, tests=[number])
    return context


def _paired_difference(spans: Spans, minuend: str, subtrahend: str) -> float:
    """Median over ops of one span's duration minus another's."""
    return statistics.median(
        a - b for a, b in zip(spans.durations(minuend), spans.durations(subtrahend))
    )


def property_counts(context: BatchContext) -> Dict[str, int]:
    """Distinct integer statistics of one op's batch.

    These are the keys a decision memo would be indexed by: frequency
    |S_n|, runs (ones, V_n), cusum z and the longest-run class tuple.
    """
    n = context.n
    ones = context.ones()
    walk_max, walk_min, _ = context.walk_extremes()
    block_length = recommended_block_length(n)
    _, v_values, _ = LONGEST_RUN_TABLES[block_length]
    classes = np.clip(context.block_longest_one_runs(block_length), v_values[0], v_values[-1])
    classes = classes - v_values[0]
    width = len(v_values)
    rows = classes.shape[0]
    offsets = np.arange(rows)[:, np.newaxis] * width
    class_counts = np.bincount((classes + offsets).ravel(), minlength=rows * width)
    return {
        "stats.distinct_frequency": len(np.unique(np.abs(2 * ones - n))),
        "stats.distinct_runs": len(np.unique(np.stack([ones, context.num_runs()], axis=1), axis=0)),
        "stats.distinct_cusum": len(np.unique(np.maximum(np.abs(walk_max), np.abs(walk_min)))),
        "stats.distinct_longest_run": len(np.unique(class_counts.reshape(rows, width), axis=0)),
    }


# ------------------------------------------------------------ correctness
def reference_check(
    rows: np.ndarray, tests: Sequence[int], alpha: float
) -> Tuple[List[str], List[Tuple[bool, Tuple[int, ...]]]]:
    """Compare the engine's p-values on ``rows`` with the scalar references.

    Returns the mismatches and, per row, the reference verdict: (passed,
    failing NIST numbers).
    """
    problems = []
    verdicts = []
    for row, report in zip(rows, run_batch(rows, tests=list(tests))):
        failing = []
        for number in tests:
            engine = report.results.get(NIST_NUMBER_TO_ID[number])
            reference = REFERENCES[number](row)
            if engine is None or (engine.p_value, engine.p_values) != (
                reference.p_value,
                reference.p_values,
            ):
                problems.append(f"test {number}: engine {engine} != reference {reference}")
            if not reference.passed(alpha):
                failing.append(number)
        verdicts.append((not failing, tuple(sorted(failing))))
    return problems, verdicts


# ------------------------------------------------------------ ingest path
class IngestPathProbe:
    """In-process copies of the ingest path, each layer on its own state.

    ``fleet.ingest`` and ``service.ingest`` run on separate schedulers, each
    with the write-ahead journal on (a :class:`DurableFleet` spool, no
    interval snapshots), as in ``fleet serve --snapshot-dir``.
    """

    def __init__(self, design: str, device_ids: Sequence[str], spool: Path):
        spool.mkdir(parents=True)
        self.journal = IngestJournal(spool / "probe.wal")
        self.fleet = FleetScheduler(external_registry(design, device_ids))
        self.service = FleetService(FleetScheduler(external_registry(design, device_ids)))
        self._durable = [
            DurableFleet(self.fleet, spool / "fleet"),
            DurableFleet(self.service.scheduler, spool / "service"),
        ]
        for durable in self._durable:
            durable.start()

    def run(
        self, spans: Spans, device_id: str, bits: str, seq: int, *, price_json: bool = False
    ) -> Dict[str, int]:
        """Time each ingest-path layer on one chunk; return its byte counts.

        With ``price_json`` the JSON round trip of the request and response
        bodies is timed as ``http.json_s`` (for workloads without HTTP).
        """
        payload = {"device_id": device_id, "bits": bits, "seq": seq}
        with spans.span("nist.to_bits_s"):
            array = to_bits(bits)
        before = self.journal.path.stat().st_size
        with spans.span("durability.wal_append_s"):
            self.journal.append_ingest(device_id, array, seq=seq)
        wal_bytes = self.journal.path.stat().st_size - before
        with spans.span("fleet.ingest_s"):
            self.fleet.ingest(device_id, bits, seq=seq)
        with spans.span("service.ingest_s"):
            response = self.service.ingest(payload)
        if price_json:
            with spans.span("http.json_s"):
                json.loads(json.dumps(payload))
                json.loads(json.dumps(response))
        return {
            "request": len(json.dumps(payload).encode()),
            "response": len(json.dumps(response).encode()),
            "wal": wal_bytes,
        }

    def close(self) -> None:
        for durable in self._durable:
            durable.close(final_snapshot=False)
        self.fleet.close()
        self.service.scheduler.close()
        self.journal.close()


def bits_text(bits: np.ndarray) -> str:
    """The ASCII 0/1 form an ``/ingest`` body carries."""
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def layer_table(
    spans: Spans,
    counts: List[Dict[str, int]],
    failing_share: List[float],
    measured: Dict[str, float],
    leaves: Sequence[str],
) -> Dict[str, float]:
    """Per-layer seconds per op (span medians) and the op's property counts.

    ``measured`` holds values taken outside the spans (the untraced op time,
    bytes moved, client-side figures); ``unattributed_s`` is the traced op
    time minus the ``leaves`` layers.
    """
    layers = {
        name: spans.median(name)
        for name in {record[0] for record in spans.records}
        if name not in ("op", "fleet.evaluate_matrix") and "gross" not in name
    }
    layers["fleet.reduce_s"] = _paired_difference(
        spans, "fleet.evaluate_matrix", "engine.run_batch_s"
    )
    for name in DECIDE_NAMES.values():
        layers[f"engine.decide_s.{name}"] = _paired_difference(
            spans, f"engine.decide_gross.{name}", "engine.batch_overhead_s"
        )
    layers["traced_op_s"] = spans.median("op")
    layers.update(measured)
    layers["unattributed_s"] = layers["traced_op_s"] - sum(layers[name] for name in leaves)
    for key in counts[0]:
        layers[key] = statistics.median(count[key] for count in counts)
    layers["stats.failing_share"] = statistics.mean(failing_share)
    return layers
