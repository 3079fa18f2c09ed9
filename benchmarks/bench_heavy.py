"""Heavy-test benchmark: batch-native kernels vs an ideal pool of scalar calls.

Before the batch-native kernels of :mod:`repro.engine.heavy`, the five
heavyweight NIST tests (rank, DFT, universal, linear complexity, random
excursions + variant) were the engine's scaling wall: each one re-ran its
scalar reference per sequence, and the only lever was fanning those scalar
calls out over a process pool.  The kernels evaluate the whole packed batch
at once (vectorised GF(2) rank, one 2-D FFT, argsort-based universal
distances, bit-sliced Berlekamp–Massey, bincount excursion histograms), and
the pool is gone.

This benchmark pins that trade: the batched path must run **>= 3x** faster
than the best a 4-worker pool of scalar calls could do on a fleet-scale
batch of 2^20-bit sequences, with bit-identical P-values asserted before any
speedup counts.  The baseline times per-row calls of the :mod:`repro.nist`
scalar references (every heavy test per sequence, in one process) on a
small row subset, extrapolates them linearly to the full batch
(per-sequence work is independent across rows), and divides by
``min(4, usable cores)`` — perfect scaling with no pickle or start-up cost,
so no real pool could have been faster.
Machine-readable results land in ``benchmarks/results/BENCH_heavy.json``
through the shared ``bench_harness`` schema.  ``REPRO_BENCH_SMOKE=1``
shrinks the workload to CI-smoke size; the floor stays pinned.
"""

import os
import time

from bench_harness import assert_floors, write_bench_json
from repro import nist
from repro.engine.batch import run_batch
from repro.engine.registry import DEFAULT_REGISTRY, NIST_NUMBER_TO_ID
from repro.trng.ideal import IdealSource

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Fleet-scale heavy workload: 256 sequences of 2^20 bits (the acceptance
#: bar), shrunk to 32 x 2^16 in smoke mode.
ROWS = 32 if SMOKE else 256
N = 65536 if SMOKE else 1 << 20
#: The five heavyweight tests (NIST numbers; 14 and 15 share the walk).
HEAVY_TESTS = [5, 6, 9, 10, 14, 15]
#: The scalar reference of each heavy test: the baseline's per-row calls.
SCALAR_TESTS = {
    5: nist.binary_matrix_rank_test,
    6: nist.dft_test,
    9: nist.universal_test,
    10: nist.linear_complexity_test,
    14: nist.random_excursions_test,
    15: nist.random_excursions_variant_test,
}
#: At the smoke length Maurer's default parameterisation (387,840 bits for
#: L = 6) is out of range, so the smoke run pins L explicitly; the full
#: 2^20-bit run uses the NIST-recommended defaults.
PARAMETERS = {9: {"block_length": 6}} if SMOKE else {}
#: Rows the scalar baseline is actually timed on before extrapolation.
POOL_ROWS = 4 if SMOKE else 8
#: Workers of the ideal pool the baseline is divided by: the 4 of the
#: process pool this path replaced, capped at the cores it could have used.
POOL_WORKERS = min(4, len(os.sched_getaffinity(0)))
MIN_HEAVY_SPEEDUP = 3.0
SEED = 20150309


def _p_values(reports):
    return [
        {test_id: result.p_values for test_id, result in report.results.items()}
        for report in reports
    ]


def _scalar_p_values(matrix):
    """:func:`_p_values` of per-row calls of the scalar references."""
    rows = []
    for row in matrix:
        p_values = {}
        for number in HEAVY_TESTS:
            try:
                result = SCALAR_TESTS[number](row, **PARAMETERS.get(number, {}))
            except ValueError:
                continue  # run_batch records the same rejection as an error
            p_values[NIST_NUMBER_TO_ID[number]] = result.p_values
        rows.append(p_values)
    return rows


def test_heavy_batched_vs_ideal_pool_speedup(save_table):
    packed = IdealSource(seed=SEED).generate_matrix(ROWS, N, packed=True)
    subset = packed.unpack()[:POOL_ROWS]

    # Parity gate: the batched kernels must reproduce the scalar references
    # bit for bit before any timing counts.  The baseline calls each
    # reference per sequence in this process, exactly the engine's
    # pre-kernel work.
    batched_subset = run_batch(
        packed, tests=HEAVY_TESTS, parameters=PARAMETERS
    )[:POOL_ROWS]
    assert _p_values(batched_subset) == _scalar_p_values(subset)
    # run_batch has one dispatch path: every registered test's batch entry.
    assert all(callable(test.batch_runner) for test in DEFAULT_REGISTRY)

    start = time.perf_counter()
    reports = run_batch(packed, tests=HEAVY_TESTS, parameters=PARAMETERS)
    batched_seconds = time.perf_counter() - start
    assert all(
        NIST_NUMBER_TO_ID[number] in report.results
        for report in reports
        for number in HEAVY_TESTS
    )

    start = time.perf_counter()
    _scalar_p_values(subset)
    scalar_subset_seconds = time.perf_counter() - start
    # Rows are independent on the scalar path (one call per (test, sequence)
    # pair), so the full-batch cost extrapolates linearly, and a pool of
    # POOL_WORKERS could at best divide it by its size.
    scalar_seconds = scalar_subset_seconds * (ROWS / POOL_ROWS)
    ideal_pool_seconds = scalar_seconds / POOL_WORKERS
    speedup = ideal_pool_seconds / batched_seconds

    rows = [
        {
            "path": "scalar, one process (extrapolated)",
            "batch": f"{ROWS} x {N}",
            "seconds": f"{scalar_seconds:.2f}",
            "speedup": f"{1 / POOL_WORKERS:.2f}x",
        },
        {
            "path": f"ideal pool of {POOL_WORKERS} (scalar / {POOL_WORKERS})",
            "batch": f"{ROWS} x {N}",
            "seconds": f"{ideal_pool_seconds:.2f}",
            "speedup": "1.0x",
        },
        {
            "path": "batch-native kernels",
            "batch": f"{ROWS} x {N}",
            "seconds": f"{batched_seconds:.2f}",
            "speedup": f"{speedup:.1f}x",
        },
    ]
    save_table(
        "heavy_batched",
        f"Five heavyweight NIST tests, batch-native kernels vs an ideal pool"
        f"{' [smoke sizes]' if SMOKE else ''}",
        rows,
        ["path", "batch", "seconds", "speedup"],
    )
    write_bench_json(
        "heavy",
        smoke=SMOKE,
        workload={
            "rows": ROWS,
            "n": N,
            "tests": HEAVY_TESTS,
            "parameters": {str(k): v for k, v in PARAMETERS.items()},
            "scalar_rows_timed": POOL_ROWS,
            "ideal_pool_workers": POOL_WORKERS,
        },
        timings_s={
            "batched_full_batch": batched_seconds,
            "scalar_subset": scalar_subset_seconds,
            "scalar_extrapolated": scalar_seconds,
            "ideal_pool": ideal_pool_seconds,
        },
        speedups={"batched_vs_ideal_pool_heavy": speedup},
        floors={"batched_vs_ideal_pool_heavy": MIN_HEAVY_SPEEDUP},
        extra={
            "batched_sequences_per_s": ROWS / batched_seconds,
            "batched_bits_per_s": ROWS * N / batched_seconds,
        },
    )
    assert_floors(
        {"batched_vs_ideal_pool_heavy": speedup},
        {"batched_vs_ideal_pool_heavy": MIN_HEAVY_SPEEDUP},
    )
