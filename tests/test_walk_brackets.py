"""Walk brackets: word-boundary bounds on the cusum walk, and the verdicts
test 13 screens with them.

:func:`repro.engine.packed.walk_bounds` brackets each row's S_max and S_min
from one popcount prefix pass and gives S_final exactly.  The brackets must
contain the exact extremes of :func:`repro.engine.packed.walk_extremes` for
every length, tail words included, and the verdicts and P-values that
:func:`repro.engine.decisions.batch_cumulative_sums` reaches through them
must equal those of the exact walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import decisions
from repro.engine import packed as P
from repro.engine.context import BatchContext
from repro.fleet.registry import DeviceRegistry, FleetMix
from repro.nist.cusum import cumulative_sums_test, cusum_p_value, largest_accepted_excursion

#: 1100 bits is one full 16-word group of the bracket pass, then a loose
#: word and a 12-bit tail.
LENGTHS = (1, 63, 64, 65, 128, 1000, 1100, 4113, 65536)
ALPHAS = (0.001, 0.01, 0.05)
MODES = (0, 1)


def _check_brackets(matrix):
    """Assert the brackets of ``matrix``'s rows contain the exact extremes."""
    packed = P.pack_matrix(matrix)
    s_max, s_min, s_final = P.walk_extremes(packed)
    max_low, max_high, min_low, min_high, final = P.walk_bounds(packed)
    assert np.array_equal(final, s_final)
    assert np.all((max_low <= s_max) & (s_max <= max_high))
    assert np.all((min_low <= s_min) & (s_min <= min_high))
    assert np.all(max_high - max_low <= P.BITS_PER_WORD)
    assert np.all(min_high - min_low <= P.BITS_PER_WORD)
    return (max_low, max_high, min_low, min_high), (s_max, s_min)


def _runs_row(rng, n, mean_run):
    """Alternating runs of geometric length: long excursions that cross seams."""
    lengths = rng.geometric(1.0 / mean_run, size=n)
    values = np.arange(lengths.size) % 2 ^ rng.integers(0, 2)
    return np.repeat(values, lengths)[:n].astype(np.uint8)


@given(
    n=st.sampled_from(LENGTHS),
    rows=st.integers(1, 6),
    shape=st.sampled_from(["fair", "ones", "zeros", "runs"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_brackets_contain_exact_extremes(n, rows, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "runs":
        matrix = np.stack([_runs_row(rng, n, rng.integers(2, 200)) for _ in range(rows)])
    else:
        p = {"fair": 0.5, "ones": 0.55, "zeros": 0.45}[shape]
        matrix = (rng.random((rows, n)) < p).astype(np.uint8)
    _check_brackets(matrix)


def _structured_rows(n):
    """All ones, all zeros, both alternations, one long run of ones across
    the first word seam, and rows whose maximum or minimum is the last bit."""
    alternating = np.arange(n) % 2
    seam_run = np.zeros(n, dtype=np.uint8)
    seam_run[40:100] = 1
    last_high = alternating ^ 1  # 1, 0, 1, 0, ...: heights 1, 0, 1, 0
    last_high[-min(n, 5) :] = 1
    return np.stack(
        [
            np.ones(n),
            np.zeros(n),
            alternating,
            alternating ^ 1,
            seam_run,
            last_high,
            last_high ^ 1,
        ]
    ).astype(np.uint8)


@pytest.mark.parametrize("n", LENGTHS)
def test_structured_rows(n):
    matrix = _structured_rows(n)
    (max_low, max_high, min_low, min_high), (s_max, s_min) = _check_brackets(matrix)
    # A constant row's walk is monotone, so its outer bound is exact; the
    # all-zeros row reaches -n only when the tail word is bounded with its
    # own length, not with 64.
    assert max_high[0] == s_max[0] == n
    assert min_low[1] == s_min[1] == -n
    walk = np.cumsum(2 * matrix[5:].astype(np.int64) - 1, axis=1)
    assert walk[0, -1] == walk[0].max() and walk[1, -1] == walk[1].min()
    assert s_max[5] == walk[0, -1] and s_min[6] == walk[1, -1]


# ------------------------------------------------------------- screened verdicts
def _screened(packed, mode, alpha):
    """Failing mask and P-values of a fresh context, and the rows that took
    the exact walk (the refine path)."""
    context = BatchContext(packed)
    walked = []
    walk_extremes = context.walk_extremes

    def recording(rows=None):
        if rows is not None:
            walked.append(np.asarray(rows))
        return walk_extremes(rows)

    context.walk_extremes = recording
    column = decisions.batch_cumulative_sums(context, mode)
    failing = column.failing(alpha)
    refined = np.concatenate(walked) if walked else np.zeros(0, dtype=np.intp)
    return failing, column.p_values(), refined


def _exact(packed, mode, alpha):
    """The same column on a context whose extremes are walked first, so its
    brackets are zero wide."""
    context = BatchContext(packed)
    context.walk_extremes()
    column = decisions.batch_cumulative_sums(context, mode)
    return column.failing(alpha), column.p_values()


def _assert_screened_equals_exact(packed, mode, alpha):
    failing, p_values, refined = _screened(packed, mode, alpha)
    exact_failing, exact_p_values = _exact(packed, mode, alpha)
    assert np.array_equal(failing, exact_failing)
    assert np.array_equal(p_values, exact_p_values)
    assert np.array_equal(failing, p_values < alpha)
    return failing, refined


@pytest.fixture(scope="module")
def fleet_round():
    """The first round's matrix of perfbench's seed-5 ``round_n65536`` fleet."""
    registry = DeviceRegistry("n65536_light")
    registry.populate(1024, FleetMix.healthy_with_threats(0.95), seed=5)
    devices = registry.simulated_devices()
    words = np.stack([device.source.generate_words(registry.n) for device in devices])
    return P.PackedMatrix(words, registry.n)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_fleet_round_screened_equals_exact(fleet_round, mode, alpha):
    _, refined = _assert_screened_equals_exact(fleet_round, mode, alpha)
    # The brackets decide nearly every row: a handful take the exact walk.
    assert refined.size < fleet_round.num_rows // 10


def _crafted_row(n, z):
    """A row whose forward walk peaks at ``z`` inside a word and then drops
    below it: mode-0 excursion ``z`` with a word-boundary bracket around it.

    The walk climbs ``z`` ones, falls 8, rises 4 and then alternates just
    below the peak, so the peak's word holds more ones than the climb and
    the heights at word boundaries stay under ``z``.  Two leading bits
    (0, 1) move a peak that would fall on a word seam off it.
    """
    lead = [0, 1] if z % P.BITS_PER_WORD == 0 else []
    head = lead + [1] * z + [0] * 8 + [1] * 4
    return np.array(head + [(i + 1) % 2 for i in range(n - len(head))], dtype=np.uint8)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_crafted_band_rows_take_the_refine_path(alpha):
    n = 65536
    critical = largest_accepted_excursion(n, alpha)
    targets = range(critical - 3, critical + 4)
    forward = np.stack([_crafted_row(n, z) for z in targets])
    # The backward walk of a reversed row is the forward walk of the row.
    matrix = np.concatenate([forward, forward[:, ::-1]])
    packed = P.pack_matrix(matrix)
    for mode, rows in ((0, range(len(targets))), (1, range(len(targets), 2 * len(targets)))):
        for row, z in zip(rows, targets):
            assert cumulative_sums_test(matrix[row], mode=mode).details["z"] == z
        failing, refined = _assert_screened_equals_exact(packed, mode, alpha)
        assert set(rows) <= set(refined.tolist())
        assert failing[list(rows)].tolist() == [cusum_p_value(z, n) < alpha for z in targets]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_every_row_undecided(mode, alpha):
    n = 65536
    critical = largest_accepted_excursion(n, alpha)
    forward = np.stack([_crafted_row(n, z) for z in (critical - 1, critical, critical + 1)] * 4)
    matrix = forward if mode == 0 else forward[:, ::-1]
    packed = P.pack_matrix(matrix)
    _, refined = _assert_screened_equals_exact(packed, mode, alpha)
    assert sorted(refined.tolist()) == list(range(len(matrix)))


@pytest.mark.parametrize("n", (1, 63, 128, 1000, 4113))
def test_short_rows(n):
    # Up to a few hundred bits the largest accepted z (25-39 at n = 128) is
    # within one word's own excursion and every row is walked exactly; at
    # 1000 bits the brackets leave a tenth of the rows to the exact walk.
    matrix = (np.random.default_rng(n).random((64, n)) < 0.5).astype(np.uint8)
    packed = P.pack_matrix(matrix)
    for mode in MODES:
        for alpha in ALPHAS:
            _assert_screened_equals_exact(packed, mode, alpha)
