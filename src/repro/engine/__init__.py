"""Unified batch test engine with shared-statistic contexts.

The engine is the software embodiment of the paper's resource-sharing idea:
the hardware testing block derives common sub-statistics (bit counts, block
sums, pattern counters) once and shares them across the on-the-fly tests.
Here a :class:`SequenceContext` memoizes those derived statistics for one
sequence, a :class:`BatchContext` computes them with vectorised 2-D passes
for a whole batch, and the :class:`TestRegistry` puts the NIST, FIPS and
hardware-model tests behind one interface: a ``run(context) -> TestResult``
runner and a batch entry per test.  :func:`run_batch` executes any test
selection over many sequences through those batch entries alone — the five
light tests decide by comparing the shared integer statistics with
precomputed critical values (:mod:`repro.engine.decisions`), the other
NIST tests run the batch kernels of :mod:`repro.engine.heavy` on packed
64-bits-per-word statistics and the shared pattern and window counters,
one sequence included (a lone :class:`SequenceContext` is a one-row
batch).  Its columnar :class:`BatchResult` doubles as a sequence of per-row
:class:`EngineReport` views.

Quickstart::

    from repro.engine import run_batch
    from repro.trng import IdealSource

    sequences = [IdealSource(seed=i).generate(4096).bits for i in range(256)]
    reports = run_batch(sequences, tests=[1, 2, 3, 11, 12, 13])
    print(sum(report.passed() for report in reports), "of", len(reports))
"""

from repro.engine.batch import BatchResult, EngineReport, run_batch
from repro.engine.context import BatchContext, SequenceContext
from repro.engine.packed import PackedMatrix, pack_matrix, unpack_matrix
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    NIST_NUMBER_TO_ID,
    RegisteredTest,
    StatisticalTest,
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
    "SequenceContext",
    "StatisticalTest",
    "TestRegistry",
    "build_default_registry",
    "pack_matrix",
    "run_batch",
    "unpack_matrix",
]
