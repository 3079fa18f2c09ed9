"""End-to-end tests of the block-streaming path through the consumers.

The platform, monitor, flexible platform, engine and campaign layers all
pull whole blocks from the source by default; the bit-serial RTL-fidelity
path stays available behind ``accelerated=False`` and must produce identical
verdicts for the same seed (the source layer's split invariance guarantees
both paths consume the same stream).
"""

import io

import numpy as np
import pytest

from repro.campaign import DEFAULT_CATALOG
from repro.cli import main
from repro.core.flexible import FlexibleLengthPlatform
from repro.core.monitor import OnTheFlyMonitor
from repro.core.platform import OnTheFlyPlatform
from repro.engine import run_batch
from repro.engine.context import BatchContext
from repro.trng import BiasedSource, CorrelatedSource, IdealSource


@pytest.fixture(scope="module")
def platform():
    return OnTheFlyPlatform("n128_medium", alpha=0.01)


class TestPlatformBlockPath:
    def test_vectorized_path_is_the_default(self, platform):
        # The default evaluate_source pulls one block; the source is left
        # exactly n bits into its stream (no per-bit shim buffering).
        source = IdealSource(seed=81)
        platform.evaluate_source(source)
        rest = source.generate_block(64)
        expected = IdealSource(seed=81).generate_block(128 + 64)[128:]
        assert np.array_equal(rest, expected)

    @pytest.mark.parametrize("factory", [
        lambda: IdealSource(seed=82),
        lambda: BiasedSource(0.8, seed=83),
        lambda: CorrelatedSource(0.9, seed=84),
    ])
    def test_rtl_fidelity_path_matches_block_path(self, platform, factory):
        fast = platform.evaluate_source(factory(), accelerated=True)
        slow = platform.evaluate_source(factory(), accelerated=False)
        assert fast.hardware_values == slow.hardware_values
        assert fast.verdicts == slow.verdicts

    def test_evaluate_batch_accepts_source_matrix(self, platform):
        matrix = IdealSource(seed=85).generate_matrix(4, 128)
        from_matrix = platform.evaluate_batch(matrix)
        from_list = platform.evaluate_batch(
            list(IdealSource(seed=85).generate_matrix(4, 128))
        )
        assert [r.verdicts for r in from_matrix] == [r.verdicts for r in from_list]

    def test_evaluate_batch_rejects_non_2d_matrix(self, platform):
        with pytest.raises(ValueError, match="2-D"):
            platform.evaluate_batch(np.zeros(128, dtype=np.uint8))


class TestMonitorBlockPath:
    def test_per_bit_and_block_trajectories_identical(self):
        def run(accelerated, batch_size=None):
            monitor = OnTheFlyMonitor(OnTheFlyPlatform("n128_light"))
            monitor.monitor(
                BiasedSource(0.7, seed=86), num_sequences=6,
                batch_size=batch_size, accelerated=accelerated,
            )
            return [(e.state, e.report.failing_tests) for e in monitor.history]

        block = run(accelerated=True)
        rtl = run(accelerated=False)
        batched = run(accelerated=True, batch_size=6)
        assert block == rtl == batched

    def test_batch_path_honours_rtl_fidelity(self):
        # accelerated=False must reach the cycle-accurate process_bit path
        # even when the monitor drains the source in batches.
        platform = OnTheFlyPlatform("n128_light")
        calls = {"bits": 0}
        original = platform.hardware.process_bit

        def counting(bit):
            calls["bits"] += 1
            return original(bit)

        platform.hardware.process_bit = counting
        monitor = OnTheFlyMonitor(platform)
        monitor.monitor(
            IdealSource(seed=90), num_sequences=4, batch_size=2, accelerated=False
        )
        assert calls["bits"] == 4 * 128


class TestFlexiblePlatformBlockPath:
    def test_accelerated_flag_passthrough(self):
        flexible = FlexibleLengthPlatform(supported_lengths=(128, 256), initial_length=128)
        fast = flexible.evaluate_source(IdealSource(seed=87))
        slow = flexible.evaluate_source(IdealSource(seed=87), accelerated=False)
        assert fast.hardware_values == slow.hardware_values


class TestEngineMatrixInput:
    def test_run_batch_accepts_source_matrix(self):
        matrix = IdealSource(seed=88).generate_matrix(3, 1024)
        from_matrix = run_batch(matrix, tests=[1, 3, 13])
        from_list = run_batch(list(matrix), tests=[1, 3, 13])
        assert [r.p_values() for r in from_matrix] == [r.p_values() for r in from_list]

    def test_batch_context_from_blocks(self):
        blocks = [IdealSource(seed=89 + i).generate_block(256) for i in range(3)]
        context = BatchContext(np.vstack(blocks))
        assert context.num_sequences == 3 and context.n == 256
        assert int(context.ones()[0]) == int(blocks[0].sum())

    def test_constructor_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0 and 1"):
            BatchContext(np.full((2, 8), 3, dtype=np.uint8))
        # A 2 at every third bit used to give 9-bit windows above 511.
        row = np.zeros(300, dtype=np.uint8)
        row[::3] = 2
        with pytest.raises(ValueError, match="bit matrix must contain only 0 and 1 values"):
            BatchContext(row[np.newaxis])


class TestCampaignMatrixBuilders:
    def test_build_matrix_is_one_contiguous_stream(self):
        spec = DEFAULT_CATALOG.get("biased-0.60")
        matrix = spec.build_matrix(5, 128, 4)
        assert matrix.shape == (4, 128)
        assert np.array_equal(
            matrix.ravel(), spec.build(5, 128).generate_block(4 * 128)
        )

    def test_staged_attack_unfolds_across_rows(self):
        spec = DEFAULT_CATALOG.get("freq-injection-staged")
        matrix = spec.build_matrix(7, 128, 4)
        source = spec.build(7, 128)
        assert np.array_equal(matrix.ravel(), source.generate_block(4 * 128))
        assert source.active  # 4 sequences > the 2-sequence onset


class TestCliStreamingDefaults:
    def test_monitor_reports_vectorized_default(self):
        out = io.StringIO()
        main(["monitor", "--sequences", "2", "--seed", "3"], out=out)
        assert "vectorized block streaming (default)" in out.getvalue()

    def test_monitor_rtl_fidelity_flag(self):
        out = io.StringIO()
        main(["monitor", "--sequences", "2", "--seed", "3", "--rtl-fidelity"], out=out)
        assert "bit-serial RTL model" in out.getvalue()

    def test_monitor_paths_agree_sequence_by_sequence(self):
        fast, slow = io.StringIO(), io.StringIO()
        argv = ["monitor", "--sequences", "4", "--seed", "3", "--source", "correlated"]
        code_fast = main(argv, out=fast)
        code_slow = main(argv + ["--rtl-fidelity"], out=slow)
        assert code_fast == code_slow
        strip = lambda text: [line for line in text.splitlines() if not line.startswith("hardware path")]
        assert strip(fast.getvalue()) == strip(slow.getvalue())
