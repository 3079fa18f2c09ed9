"""End-to-end stream-throughput benchmark: block path vs per-bit path.

The per-bit baseline is the RTL-fidelity path behind ``accelerated=False``:
each n-bit sequence is drawn as one block and clocked through the
cycle-accurate ``UnifiedTestingBlock.process_bit`` one bit at a time, as the
paper's RTL observes the TRNG (the seed repository's monitor analysed every
sequence this way).  This benchmark pits it against today's default: whole
trial matrices pulled with ``generate_matrix`` and evaluated through the
vectorised functional hardware model.

Asserts the block path sustains >= 10x the per-bit throughput on the same
monitoring workload (>= 3x in ``REPRO_BENCH_SMOKE=1`` mode, which shrinks
the workload to CI-smoke size), and that an end-to-end detection campaign —
generation, evaluation, health folding, aggregation — also clears 10x the
per-bit rate.  Machine-readable results land in
``benchmarks/results/BENCH_throughput.json`` (plus the usual table artefacts)
so the throughput trajectory is tracked across PRs.
"""

import os
import time

from bench_harness import assert_floors, write_bench_json
from repro.campaign import CampaignConfig, run_campaign
from repro.core.monitor import OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform
from repro.trng import CorrelatedSource

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: The monitored design: long enough that per-sequence software overhead is
#: amortised and the generation + hardware path dominates both sides.
DESIGN = "n65536_light"
N = 65536
PER_BIT_SEQUENCES = 1 if SMOKE else 2
BLOCK_SEQUENCES = 4 if SMOKE else 16
CAMPAIGN_TRIALS = 1 if SMOKE else 2
CAMPAIGN_SEQUENCES = 4 if SMOKE else 6
CAMPAIGN_SCENARIOS = ("healthy-ideal", "biased-0.60", "correlated-0.75")
MIN_SPEEDUP = 3.0 if SMOKE else 10.0


def _source():
    # A Markov source: its generation cost is representative of the
    # behavioural models (one uniform draw per bit).
    return CorrelatedSource(0.6, seed=20150309)


def _run_monitor(platform, accelerated: bool, num_sequences: int):
    monitor = OnTheFlyMonitor(platform)
    start = time.perf_counter()
    monitor.monitor(
        _source(),
        num_sequences=num_sequences,
        batch_size=None if not accelerated else num_sequences,
        accelerated=accelerated,
    )
    elapsed = time.perf_counter() - start
    return elapsed, monitor


def _run_campaign():
    config = CampaignConfig(
        designs=(DESIGN,),
        scenarios=CAMPAIGN_SCENARIOS,
        trials=CAMPAIGN_TRIALS,
        sequences_per_trial=CAMPAIGN_SEQUENCES,
        seed=20150309,
    )
    start = time.perf_counter()
    report = run_campaign(config)
    elapsed = time.perf_counter() - start
    bits = len(report.cells) * CAMPAIGN_TRIALS * CAMPAIGN_SEQUENCES * N
    return elapsed, bits, report


def test_stream_throughput_block_vs_per_bit(benchmark, save_table):
    platform = OnTheFlyPlatform(DESIGN, alpha=0.01)

    per_bit_elapsed, per_bit_monitor = _run_monitor(
        platform, accelerated=False, num_sequences=PER_BIT_SEQUENCES
    )
    per_bit_rate = PER_BIT_SEQUENCES * N / per_bit_elapsed

    (block_elapsed, block_monitor) = benchmark.pedantic(
        _run_monitor, args=(platform, True, BLOCK_SEQUENCES), rounds=1, iterations=1
    )
    block_rate = BLOCK_SEQUENCES * N / block_elapsed

    campaign_elapsed, campaign_bits, campaign_report = _run_campaign()
    campaign_rate = campaign_bits / campaign_elapsed

    # Both paths walk the same seed stream: the health trajectories of the
    # overlapping prefix must agree before any speedup claim counts.
    agree = all(
        fast.report.passed == slow.report.passed
        for fast, slow in zip(block_monitor.history, per_bit_monitor.history)
    )
    assert agree

    rows = [
        {
            "path": "per-bit (process_bit per clock, accelerated=False)",
            "sequences": PER_BIT_SEQUENCES,
            "bits_per_s": f"{per_bit_rate:,.0f}",
            "speedup": "1.0x",
        },
        {
            "path": "block streaming (default)",
            "sequences": BLOCK_SEQUENCES,
            "bits_per_s": f"{block_rate:,.0f}",
            "speedup": f"{block_rate / per_bit_rate:.1f}x",
        },
        {
            "path": "detection campaign (end-to-end)",
            "sequences": campaign_bits // N,
            "bits_per_s": f"{campaign_rate:,.0f}",
            "speedup": f"{campaign_rate / per_bit_rate:.1f}x",
        },
    ]
    save_table(
        "stream_throughput",
        f"Stream throughput on {DESIGN} (n = {N}): vectorized block path vs "
        f"the per-bit RTL-fidelity path{' [smoke sizes]' if SMOKE else ''}",
        rows,
        ["path", "sequences", "bits_per_s", "speedup"],
    )
    speedups = {
        "block_vs_per_bit": block_rate / per_bit_rate,
        "campaign_vs_per_bit": campaign_rate / per_bit_rate,
    }
    floors = {
        "block_vs_per_bit": MIN_SPEEDUP,
        "campaign_vs_per_bit": MIN_SPEEDUP,
    }
    write_bench_json(
        "throughput",
        smoke=SMOKE,
        workload={
            "design": DESIGN,
            "n": N,
            "per_bit_sequences": PER_BIT_SEQUENCES,
            "block_sequences": BLOCK_SEQUENCES,
        },
        timings_s={
            "per_bit": per_bit_elapsed,
            "block": block_elapsed,
            "campaign": campaign_elapsed,
        },
        speedups=speedups,
        floors=floors,
        extra={
            "per_bit_bits_per_s": per_bit_rate,
            "block_bits_per_s": block_rate,
            "campaign_bits_per_s": campaign_rate,
        },
    )
    assert_floors(speedups, floors)
    # Sanity on the campaign content itself: the biased threat is caught,
    # the healthy control is quiet.
    by_scenario = {cell.scenario: cell for cell in campaign_report.cells}
    assert by_scenario["biased-0.60"].detection_probability == 1.0
    assert by_scenario["healthy-ideal"].detection_probability <= 0.5
