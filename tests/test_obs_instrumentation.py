"""Every instrumented hot layer moves its metrics and spans when exercised.

Delta-based: the metrics live in the process-wide registry and other tests
also move them, so each assertion compares a before/after pair around one
workload instead of absolute values.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.campaign import CampaignConfig, run_campaign
from repro.engine import packed as P
from repro.engine import run_batch
from repro.engine.context import BatchContext
from repro.fleet import DeviceRegistry, FleetMix, FleetScheduler
from repro.fleet.scheduler import _round_slices
from repro.nist.cusum import largest_accepted_excursion
from repro.trng import IdealSource
from repro.trng.source import EntropySource


def metric(name):
    found = obs.registry().get(name)
    assert found is not None, f"metric {name} not registered"
    return found


@pytest.fixture(scope="module")
def sequences():
    return np.stack(
        [IdealSource(seed=900 + i).generate(2048).bits for i in range(4)]
    )


def small_fleet(num_devices=8):
    registry = DeviceRegistry("n128_light", alpha=0.01)
    registry.populate(
        num_devices, FleetMix.parse("healthy-ideal:0.75,stuck-at-1:0.25"), seed=7
    )
    return FleetScheduler(registry)


class TestBatchInstrumentation:
    def test_bits_and_evaluations_accounted(self, sequences):
        bits = metric("repro_engine_bits_evaluated_total")
        totals = metric("repro_engine_tests_total")
        seconds = metric("repro_engine_test_seconds")

        bits_before = bits.value()
        totals_before = totals.value()
        freq_before = seconds.count(test="nist.frequency")
        run_batch(sequences, tests=["nist.frequency", "nist.runs"])
        assert bits.value() - bits_before == sequences.size
        # Two tests over four sequences: eight per-sequence evaluations, all
        # decided as P-value columns over the packed batch.
        assert totals.value() - totals_before == 8
        assert seconds.count(test="nist.frequency") - freq_before == 1

    def test_trace_covers_pack_dispatch_decision(self, sequences):
        obs.clear_traces()
        run_batch(sequences, tests=["nist.frequency"])
        roots = [root for root in obs.TRACER.traces() if root.name == "run_batch"]
        assert roots, "run_batch recorded no root span"
        stages = roots[-1].stage_names()
        for stage in ("run_batch", "pack", "dispatch", "decision"):
            assert stage in stages
        obs.clear_traces()

    def test_fixed_cost_folds_once_per_batch(self, sequences):
        # One dispatch span per test, but a single decision span and a
        # single counter update however many tests ran.
        tests = ["nist.frequency", "nist.block_frequency", "nist.runs",
                 "nist.cumulative_sums", "fips.poker"]
        totals = metric("repro_engine_tests_total")
        incs = []
        original = totals.inc

        def counting_inc(amount=1.0, **labels):
            incs.append(amount)
            original(amount, **labels)

        obs.clear_traces()
        totals.inc = counting_inc
        try:
            run_batch(sequences, tests=tests)
        finally:
            del totals.inc
        (root,) = [r for r in obs.TRACER.traces() if r.name == "run_batch"]
        stages = root.stage_names()
        assert stages.count("dispatch") == len(tests)
        assert stages.count("decision") == 1
        assert incs == [len(tests) * len(sequences)]
        obs.clear_traces()

    def test_disabled_batch_still_computes(self, sequences):
        bits = metric("repro_engine_bits_evaluated_total")
        before = bits.value()
        with obs.disabled():
            reports = run_batch(sequences, tests=["nist.frequency"])
        assert len(reports) == len(sequences)
        assert bits.value() == before


class TestKernelInstrumentation:
    def test_packed_kernel_dispatches_counted(self, sequences):
        calls = metric("repro_packed_kernel_invocations_total")
        before = calls.value(kernel="ones_count")
        ctx = BatchContext(sequences)
        ctx.ones()
        assert calls.value(kernel="ones_count") - before == 1
        # Cached on the context: a second read is not a second dispatch.
        ctx.ones()
        assert calls.value(kernel="ones_count") - before == 1

    def test_tiled_kernels_count_one_call_per_batch(self):
        # A batch several row tiles tall: the tiled kernels still count one
        # dispatch each, not one per tile.
        n, block_length = 65536, 8
        widths = (n // 16, 4 * (n // 64), n // block_length)
        rows = 2 * max(P._tile_rows(width) for width in widths) + 1
        assert all(rows > 2 * P._tile_rows(width) for width in widths)
        matrix = (np.random.default_rng(5).random((rows, n)) < 0.5).astype(np.uint8)
        calls = metric("repro_packed_kernel_invocations_total")
        kernels = ("walk_extremes", "transition_counts", "block_longest_one_runs")
        before = {kernel: calls.value(kernel=kernel) for kernel in kernels}
        ctx = BatchContext(matrix)
        ctx.walk_extremes()
        ctx.num_runs()
        ctx.block_longest_one_runs(block_length)
        for kernel in kernels:
            assert calls.value(kernel=kernel) - before[kernel] == 1


class _FixedRow(EntropySource):
    """Emits the same row for every sequence (one sequence per call)."""

    def __init__(self, row):
        self.row = row

    def _generate_block(self, n):
        return self.row[:n]


class TestRoundWalkInstrumentation:
    def test_exact_walk_runs_only_on_slices_with_band_rows(self):
        # Every row alternates (z = 1, decided by its brackets) except the
        # last device's, whose excursion is the largest accepted z: it lies
        # in the guard band, so only the slice holding it walks exactly.
        registry = DeviceRegistry("n65536_light", alpha=0.01)
        registry.populate(32, FleetMix.parse("healthy-ideal:1.0"), seed=7)
        n = registry.n
        critical = largest_accepted_excursion(n, registry.alpha)
        band_row = np.concatenate([np.ones(critical), np.arange(n - critical) % 2])
        devices = registry.simulated_devices()
        for device in devices:
            device.source = _FixedRow((np.arange(n) % 2).astype(np.uint8))
        devices[-1].source = _FixedRow(band_row.astype(np.uint8))
        slices = _round_slices(len(devices), n)
        calls = metric("repro_packed_kernel_invocations_total")
        kernels = ("walk_bounds", "walk_extremes")
        before = {kernel: calls.value(kernel=kernel) for kernel in kernels}
        FleetScheduler(registry).run_round()
        assert calls.value(kernel="walk_bounds") - before["walk_bounds"] == len(slices)
        assert calls.value(kernel="walk_extremes") - before["walk_extremes"] == 1


class TestFleetInstrumentation:
    def test_round_latency_throughput_and_transitions(self):
        rounds = metric("repro_fleet_round_latency_seconds")
        devices_per_s = metric("repro_fleet_devices_per_second")
        transitions = metric("repro_fleet_health_transitions_total")

        def transition_sum():
            return sum(value for _, value in transitions.samples())

        scheduler = small_fleet(num_devices=8)
        rounds_before = rounds.count()
        transitions_before = transition_sum()
        scheduler.run_round()
        assert rounds.count() - rounds_before == 1
        assert devices_per_s.value() > 0
        # Every device folds exactly one observation per round, self-
        # transitions (healthy -> healthy) included.
        assert transition_sum() - transitions_before == 8

    def test_stuck_devices_record_a_failing_transition(self):
        transitions = metric("repro_fleet_health_transitions_total")
        scheduler = small_fleet(num_devices=8)
        before = transitions.value(from_state="healthy", to_state="suspect")
        scheduler.run_round()
        # The 25% stuck-at-1 devices fail their first sequence.
        assert transitions.value(from_state="healthy", to_state="suspect") - before >= 1

    def test_round_trace_tree(self):
        scheduler = small_fleet(num_devices=4)
        obs.clear_traces()
        scheduler.run_round()
        roots = [r for r in obs.TRACER.traces() if r.name == "fleet.run_round"]
        assert roots
        assert [child.name for child in roots[-1].children] == [
            "generate", "evaluate", "fold",
        ]
        obs.clear_traces()

    def test_fanned_out_round_trace_tree(self, monkeypatch):
        from repro.fleet import scheduler as scheduler_module

        # 5-row tiles at n = 128, so 17 devices fan out over 3 workers.
        monkeypatch.setattr(P, "_TILE_CHUNKS", 8 * 5)
        monkeypatch.setattr(scheduler_module, "_WORKERS", 3)
        latency = metric("repro_fleet_round_latency_seconds")
        scheduler = small_fleet(num_devices=17)
        obs.clear_traces()
        before = latency.count()
        scheduler.run_round()
        assert latency.count() - before == 1
        (root,) = obs.TRACER.traces()
        assert root.name == "fleet.run_round"
        names = [child.name for child in root.children]
        assert names == ["shard", "shard", "shard", "fold"]
        shards = root.children[:3]
        assert sorted(shard.attributes["rows"] for shard in shards) == [5, 6, 6]
        for shard in shards:
            assert [child.name for child in shard.children] == ["generate", "evaluate"]
            (batch_root,) = shard.children[1].children
            assert batch_root.name == "run_batch"
            assert "decision" in batch_root.stage_names()
            assert shard.start_s >= root.start_s
        assert root.to_dict()["children"][-1]["name"] == "fold"
        obs.clear_traces()

    def test_round_elapsed_matches_span_even_disabled(self):
        scheduler = small_fleet(num_devices=4)
        with obs.disabled():
            fleet_round = scheduler.run_round()
        assert fleet_round.elapsed_s > 0

    def test_ingest_bits_counted(self):
        ingest_bits = metric("repro_fleet_ingest_bits_total")
        scheduler = small_fleet(num_devices=4)
        device_id = scheduler.registry.device_ids()[0]
        before = ingest_bits.value()
        scheduler.ingest(device_id, np.zeros(256, dtype=np.uint8))
        assert ingest_bits.value() - before == 256


class TestCampaignInstrumentation:
    def test_cells_timed_per_design_and_scenario(self):
        cells = metric("repro_campaign_cell_seconds")
        config = CampaignConfig(
            designs=("n128_light",),
            scenarios=("healthy-ideal", "stuck-at-1"),
            trials=1,
            sequences_per_trial=2,
            seed=3,
        )
        before = {
            label: cells.count(design="n128_light", scenario=label)
            for label in config.scenarios
        }
        run_campaign(config)
        for label in config.scenarios:
            assert cells.count(design="n128_light", scenario=label) - before[label] == 1
