"""Verdicts from critical values equal ``p < alpha`` of the scalar references.

The five light tests decide by comparing their statistics against tables
built from the reference P-value functions (:mod:`repro.engine.decisions`).
These tests feed each batch entry statistic columns directly, enumerating
every reachable statistic at n = 100, 128, 1000 and 20000 (for runs every
(ones, V_n) pair whose ones count passes the pretest; block-sum and
longest-run class vectors are drawn by Hypothesis around the critical
value), and a ±64 band around every critical value at n = 65,536, and
assert that each verdict is the scalar reference's ``p < alpha``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import decisions
from repro.nist.block_frequency import _block_frequency_result
from repro.nist.common import igamc
from repro.nist.cusum import cusum_p_value, largest_accepted_excursion
from repro.nist.frequency import _frequency_result
from repro.nist.longest_run import LONGEST_RUN_TABLES, _longest_run_result
from repro.nist.runs import _runs_result

LENGTHS = (100, 128, 1000, 20000)
ALPHAS = (0.001, 0.01, 0.05)
BAND = 64

#: (n, block length) of the block-frequency and longest-run cases.
BLOCK_FREQUENCY_CASES = ((100, 10), (128, 8), (128, 128), (1000, 100), (20000, 128), (65536, 128))
LONGEST_RUN_CASES = ((128, 8), (1000, 8), (20000, 128), (65536, 128))


def _failing(column, alpha):
    return column.failing(alpha).tolist()


@pytest.mark.parametrize("n", LENGTHS + (65536,))
def test_frequency_every_ones_count(n):
    ones = np.arange(n + 1)
    column = decisions.batch_frequency(SimpleNamespace(n=n, ones=lambda: ones))
    p_values = [_frequency_result(n, int(count)).p_value for count in ones]
    for alpha in ALPHAS:
        assert _failing(column, alpha) == [p < alpha for p in p_values]


def _runs_pairs(n, alpha):
    """Every pair whose ones count passes the pretest (V_n in [1, n]), or
    from n = 20,000 the pairs within ±64 of each end of its accepted
    interval; plus one pair per ones count that fails the pretest."""
    ones, runs = [], []
    for count in range(n + 1):
        if not _runs_result(n, count, 1).details["pretest_passed"]:
            ones.append(count)
            runs.append(n // 2)
            continue
        if n <= 1000:
            candidates = range(1, n + 1)
        else:
            offset, low, high = decisions._runs_table(n, alpha)
            edges = (int(low[count - offset]), int(high[count - offset]))
            candidates = sorted(
                {v for edge in edges for v in range(edge - BAND, edge + BAND + 1) if v >= 1}
            )
        ones.extend([count] * len(candidates))
        runs.extend(candidates)
    return np.array(ones), np.array(runs)


@pytest.mark.parametrize("n", LENGTHS + (65536,))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_runs_every_pair(n, alpha):
    ones, runs = _runs_pairs(n, alpha)
    column = decisions.batch_runs(SimpleNamespace(n=n, ones=lambda: ones, num_runs=lambda: runs))
    expected = [
        _runs_result(n, int(count), int(v)).p_value < alpha for count, v in zip(ones, runs)
    ]
    assert _failing(column, alpha) == expected


def _cusum_column(n, z):
    zeros = np.zeros_like(z)

    def walk_extremes(rows=slice(None)):
        return z[rows], zeros[rows], zeros[rows]

    # Exact extremes are known, so the brackets are those extremes, zero wide.
    return decisions.batch_cumulative_sums(
        SimpleNamespace(
            n=n,
            walk_extremes=walk_extremes,
            walk_brackets=lambda: (z, z, zeros, zeros, zeros),
        )
    )


@pytest.mark.parametrize("n", LENGTHS)
def test_cusum_every_excursion(n):
    z = np.arange(1, n + 1)
    p_values = [cusum_p_value(int(value), n) for value in z]
    column = _cusum_column(n, z)
    for alpha in ALPHAS:
        expected = [p < alpha for p in p_values]
        assert _failing(column, alpha) == expected
        accepted = [int(value) for value, fails in zip(z, expected) if not fails]
        assert largest_accepted_excursion(n, alpha) == max(accepted)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_cusum_band_at_65536(alpha):
    n = 65536
    critical = largest_accepted_excursion(n, alpha)
    z = np.arange(critical - BAND, critical + BAND + 1)
    assert _failing(_cusum_column(n, z), alpha) == [
        cusum_p_value(int(value), n) < alpha for value in z
    ]


def _blocks_with_deviation(total, num_blocks, block_length, rng):
    """Block sums ε with Σ(ε − M/2)² = ``total``: greedy squares, random signs."""
    half = block_length // 2
    deviations = []
    while total:
        step = min(int(np.sqrt(total)), half)
        deviations.append(step)
        total -= step * step
    if len(deviations) > num_blocks:
        return None  # not reached greedily (e.g. a non-square with one block)
    deviations += [0] * (num_blocks - len(deviations))
    signs = rng.choice([-1, 1], size=num_blocks)
    blocks = half + signs * np.array(deviations)
    rng.shuffle(blocks)
    return blocks


def _check_block_frequency(n, block_length, alpha, targets, seed):
    num_blocks = n // block_length
    rng = np.random.default_rng(seed)
    drawn = [_blocks_with_deviation(t, num_blocks, block_length, rng) for t in targets]
    blocks = np.array([row for row in drawn if row is not None], dtype=np.int64)
    blocks = blocks.reshape(-1, num_blocks)
    column = decisions.batch_block_frequency(
        SimpleNamespace(n=n, block_sums=lambda m: blocks), block_length
    )
    expected = [
        _block_frequency_result(n, block_length, row).p_value < alpha for row in blocks
    ]
    assert _failing(column, alpha) == expected


def _critical_deviation(n, block_length, alpha):
    """Σ(ε − M/2)² at the χ² critical value: χ² = 4·Σ(ε − M/2)² / M."""
    low, high = decisions._chi_squared_band(n // block_length, alpha)
    return int(round((low + high) / 2 * block_length / 4))


@pytest.mark.parametrize("n, block_length", BLOCK_FREQUENCY_CASES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_block_frequency_band(n, block_length, alpha):
    center = _critical_deviation(n, block_length, alpha)
    targets = [t for t in range(center - BAND, center + BAND + 1) if t >= 0]
    _check_block_frequency(n, block_length, alpha, targets, seed=center)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(BLOCK_FREQUENCY_CASES[:-1]),
    alpha=st.sampled_from(ALPHAS),
    spread=st.integers(-200, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_frequency_drawn(case, alpha, spread, seed):
    n, block_length = case
    center = _critical_deviation(n, block_length, alpha)
    targets = [max(center + spread + step, 0) for step in range(-4, 5)]
    _check_block_frequency(n, block_length, alpha, targets, seed)


def _check_longest_run(n, block_length, categories, alpha):
    """Verdicts on class-count rows: each block's longest run is its class's v."""
    _, v_values, _ = LONGEST_RUN_TABLES[block_length]
    per_block = np.array([np.repeat(v_values, row) for row in categories])
    column = decisions.batch_longest_run(
        SimpleNamespace(n=n, block_longest_one_runs=lambda m: per_block), block_length
    )
    expected = [
        _longest_run_result(n, block_length, np.array(row)).p_value < alpha
        for row in categories
    ]
    assert _failing(column, alpha) == expected


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(LONGEST_RUN_CASES),
    alpha=st.sampled_from(ALPHAS),
    data=st.data(),
)
def test_longest_run_drawn(case, alpha, data):
    n, block_length = case
    k, _, pi = LONGEST_RUN_TABLES[block_length]
    num_blocks = n // block_length
    seed = data.draw(st.integers(0, 2**32 - 1))
    skew = data.draw(st.floats(0.5, 2.0))
    weights = np.array(pi) * skew ** np.arange(k + 1)
    draws = np.random.default_rng(seed).multinomial(num_blocks, weights / weights.sum(), 8)
    _check_longest_run(n, block_length, draws.tolist(), alpha)


@pytest.mark.parametrize("n, block_length", LONGEST_RUN_CASES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_longest_run_nearest_the_critical_value(n, block_length, alpha):
    # The BAND class-count vectors whose χ² lies nearest below and above the
    # critical value, out of many drawn ones.
    k, _, pi = LONGEST_RUN_TABLES[block_length]
    num_blocks = n // block_length
    draws = np.random.default_rng(n + k).multinomial(num_blocks, pi, 200_000)
    draws = np.unique(draws, axis=0)
    expected = num_blocks * np.array(pi)
    chi_squared = np.sum((draws - expected) ** 2 / expected, axis=1)
    low, high = decisions._chi_squared_band(k, alpha)
    critical = (low + high) / 2
    order = np.argsort(chi_squared)
    split = np.searchsorted(chi_squared[order], critical)
    nearest = order[max(split - BAND, 0) : split + BAND]
    _check_longest_run(n, block_length, draws[nearest].tolist(), alpha)


@pytest.mark.parametrize("degrees_of_freedom", (1, 3, 5, 6, 8, 50, 156, 512))
@pytest.mark.parametrize("alpha", ALPHAS + (0.5,))
def test_chi_squared_band_holds_the_float_boundary(degrees_of_freedom, alpha):
    # Every float χ² within ±64 ulps of the critical value, decided as the
    # χ² tests decide a float statistic.
    low, high = decisions._chi_squared_band(degrees_of_freedom, alpha)
    critical = (low + high) / 2
    ulp = np.spacing(critical)
    chi_squared = critical + ulp * np.arange(-BAND, BAND + 1)
    shape = degrees_of_freedom / 2.0

    def exact(rows):
        return np.array([igamc(shape, x / 2.0) for x in chi_squared[rows]])

    failing = decisions._banded_failing(chi_squared, low, high, alpha, exact)
    expected = [igamc(shape, x / 2.0) < alpha for x in chi_squared]
    assert failing.tolist() == expected
    # Outside the band the comparison alone decides.
    assert igamc(shape, low / 2.0) >= alpha > igamc(shape, high / 2.0)
