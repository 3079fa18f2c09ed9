"""Unified batch test engine with shared-statistic batches.

The engine is the software embodiment of the paper's resource-sharing idea:
the hardware testing block derives common sub-statistics (bit counts, block
sums, pattern counters) once and shares them across the on-the-fly tests.
Here a :class:`BatchContext` computes and memoizes those derived statistics
with vectorised passes over a whole batch of sequences, and the
:class:`TestRegistry` puts the NIST, FIPS and hardware-model tests behind
one interface: a batch entry per test, its only entry.  :func:`run_batch`
executes any test selection over many sequences through those entries —
the five light tests decide by comparing the shared integer statistics with
precomputed critical values (:mod:`repro.engine.decisions`), the other
NIST tests run the batch kernels of :mod:`repro.engine.heavy` on packed
64-bits-per-word statistics and the shared pattern and window counters.
A single sequence is a one-row batch.  The columnar :class:`BatchResult`
doubles as a sequence of per-row :class:`EngineReport` views.

Quickstart::

    from repro.engine import run_batch
    from repro.trng import IdealSource

    sequences = [IdealSource(seed=i).generate(4096).bits for i in range(256)]
    reports = run_batch(sequences, tests=[1, 2, 3, 11, 12, 13])
    print(sum(report.passed() for report in reports), "of", len(reports))
"""

from repro.engine.batch import BatchResult, EngineReport, run_batch
from repro.engine.context import BatchContext
from repro.engine.packed import PackedMatrix, pack_matrix, unpack_matrix
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    NIST_NUMBER_TO_ID,
    RegisteredTest,
    TestRegistry,
    build_default_registry,
)

__all__ = [
    "BatchContext",
    "BatchResult",
    "DEFAULT_REGISTRY",
    "EngineReport",
    "NIST_NUMBER_TO_ID",
    "PackedMatrix",
    "RegisteredTest",
    "TestRegistry",
    "build_default_registry",
    "pack_matrix",
    "run_batch",
    "unpack_matrix",
]
