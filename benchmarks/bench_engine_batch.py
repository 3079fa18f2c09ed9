"""Throughput of the unified batch engine vs per-sequence evaluation.

The engine refactor's acceptance claim: for a 256-sequence batch of the
HW-suitable test subset (Table I "Yes" rows: 1, 2, 3, 4, 7, 8, 11, 12, 13),
``run_batch`` delivers at least 3x the throughput of the seed's
per-sequence path, where every test re-scans the raw bits of one sequence
at a time (the direct reference functions the pre-engine ``NistSuite.run``
dispatched to).  The middle row runs the engine one sequence at a time
(``NistSuite.run``, each a one-row batch) to separate the two effects —
statistic sharing within a sequence and vectorisation across sequences.

Parity is asserted inside the benchmark: all three paths must produce
bit-identical P-values.  The pinned contract lands in
``benchmarks/results/BENCH_engine_batch.json`` through the shared
``bench_harness`` schema.
"""

import time

from bench_harness import assert_floors, write_bench_json
from repro.nist.approximate_entropy import approximate_entropy_test
from repro.nist.block_frequency import block_frequency_test
from repro.nist.cusum import cumulative_sums_test
from repro.nist.frequency import frequency_test
from repro.nist.longest_run import longest_run_test
from repro.nist.nonoverlapping import non_overlapping_template_test
from repro.nist.overlapping import overlapping_template_test
from repro.nist.runs import runs_test
from repro.nist.serial import serial_test
from repro.nist.suite import HW_SUITABLE_TESTS, NistSuite
from repro.trng import IdealSource

#: The per-sequence reference dispatch the seed's NistSuite.run used for the
#: HW-suitable subset (each test re-derives its statistics from the bits).
REFERENCE_DISPATCH = {
    1: frequency_test,
    2: block_frequency_test,
    3: runs_test,
    4: longest_run_test,
    7: non_overlapping_template_test,
    8: overlapping_template_test,
    11: serial_test,
    12: approximate_entropy_test,
    13: cumulative_sums_test,
}

NUM_SEQUENCES = 256
SEQUENCE_BITS = 4096

#: Acceptance criterion of the engine refactor: >= 3x over the seed path.
MIN_BATCH_SPEEDUP = 3.0
#: The batched FIPS battery must at least match the per-block reference.
MIN_FIPS_SPEEDUP = 1.0


def _generate_batch():
    return [
        IdealSource(seed=31_000 + i).generate(SEQUENCE_BITS).bits
        for i in range(NUM_SEQUENCES)
    ]


def test_engine_batch_speedup(save_table):
    sequences = _generate_batch()
    suite = NistSuite(tests=HW_SUITABLE_TESTS)

    start = time.perf_counter()
    reference_results = [
        {number: fn(bits) for number, fn in REFERENCE_DISPATCH.items()}
        for bits in sequences
    ]
    seed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    per_sequence_reports = [suite.run(bits) for bits in sequences]
    engine_solo_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch_reports = suite.run_batch(sequences)
    engine_batch_seconds = time.perf_counter() - start

    # Bit-identical P-values across all three paths.
    for reference, solo, batched in zip(
        reference_results, per_sequence_reports, batch_reports
    ):
        for number in HW_SUITABLE_TESTS:
            assert solo.results[number].p_values == reference[number].p_values
            assert batched.results[number].p_values == reference[number].p_values

    def row(name, seconds):
        return {
            "path": name,
            "seconds": round(seconds, 3),
            "sequences_per_s": round(NUM_SEQUENCES / seconds, 1),
            "mbit_per_s": round(NUM_SEQUENCES * SEQUENCE_BITS / seconds / 1e6, 2),
            "speedup_vs_seed": round(seed_seconds / seconds, 2),
        }

    rows = [
        row("seed per-sequence (reference re-scans)", seed_seconds),
        row("engine one-row batches (NistSuite.run)", engine_solo_seconds),
        row("engine batch (vectorised + shared)", engine_batch_seconds),
    ]
    save_table(
        "engine_batch",
        f"Unified batch engine - {NUM_SEQUENCES} sequences x {SEQUENCE_BITS} bits, "
        f"HW-suitable subset {HW_SUITABLE_TESTS}",
        rows,
        ["path", "seconds", "sequences_per_s", "mbit_per_s", "speedup_vs_seed"],
    )

    speedups = {"engine_batch_vs_seed": seed_seconds / engine_batch_seconds}
    floors = {"engine_batch_vs_seed": MIN_BATCH_SPEEDUP}
    write_bench_json(
        "engine_batch",
        workload={
            "num_sequences": NUM_SEQUENCES,
            "sequence_bits": SEQUENCE_BITS,
            "tests": list(HW_SUITABLE_TESTS),
        },
        timings_s={
            "seed_per_sequence": seed_seconds,
            "engine_per_sequence": engine_solo_seconds,
            "engine_batch": engine_batch_seconds,
        },
        speedups=speedups,
        floors=floors,
        extra={
            "engine_solo_vs_seed": seed_seconds / engine_solo_seconds,
            "sequences_per_s_batch": NUM_SEQUENCES / engine_batch_seconds,
            "mbit_per_s_batch": NUM_SEQUENCES * SEQUENCE_BITS / engine_batch_seconds / 1e6,
        },
    )
    assert_floors(speedups, floors)


def test_fips_batch_throughput(save_table):
    """Batch FIPS battery throughput (one vectorised pass per statistic)."""
    from repro.fips import FIPS_BLOCK_BITS, FipsBattery, fips_battery

    blocks = [
        IdealSource(seed=77_000 + i).generate(FIPS_BLOCK_BITS).bits for i in range(64)
    ]

    start = time.perf_counter()
    reference = [fips_battery(block) for block in blocks]
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = FipsBattery().run_batch(blocks)
    batch_seconds = time.perf_counter() - start

    assert [report.passed for report in batched] == [
        report.passed for report in reference
    ]

    rows = [
        {
            "path": "per-block reference battery",
            "seconds": round(reference_seconds, 3),
            "blocks_per_s": round(len(blocks) / reference_seconds, 1),
        },
        {
            "path": "engine batch battery",
            "seconds": round(batch_seconds, 3),
            "blocks_per_s": round(len(blocks) / batch_seconds, 1),
        },
    ]
    save_table(
        "engine_fips_batch",
        f"FIPS battery - {len(blocks)} blocks x {FIPS_BLOCK_BITS} bits",
        rows,
        ["path", "seconds", "blocks_per_s"],
    )
    speedups = {"fips_batch_vs_reference": reference_seconds / batch_seconds}
    floors = {"fips_batch_vs_reference": MIN_FIPS_SPEEDUP}
    write_bench_json(
        "engine_fips_batch",
        workload={"blocks": len(blocks), "block_bits": FIPS_BLOCK_BITS},
        timings_s={
            "reference_battery": reference_seconds,
            "batch_battery": batch_seconds,
        },
        speedups=speedups,
        floors=floors,
        extra={"blocks_per_s_batch": len(blocks) / batch_seconds},
    )
    assert_floors(speedups, floors)
