"""NIST SP 800-22 §4.2 calibration of the engine's verdicts on healthy fleets.

Parity with the scalar references cannot catch a bug in a decision helper
that both paths share; calibration can.  A healthy-only fleet of 1024
devices runs 4 rounds per design, and every test of the design must pass
§4.2's two criteria over its m = 4096 sequences:

* the proportion of passing sequences lies within
  (1 − α) ± 3·√(α(1 − α)/m);
* the P-values are uniform: their χ² over 10 equal bins has a P-value of
  at least 0.0001.

P-values are read through ``BatchResult.p_values`` and verdicts through
``BatchResult.failing``, so the gate covers both.  At n = 128 the P-values
are too discrete for the uniformity test and for the upper edge of the
interval, so only the proportion's lower bound is checked there.  The
seeds were fixed before any result was looked at.
"""

import math

import numpy as np
import pytest

from repro.engine import run_batch
from repro.fleet import DeviceRegistry
from repro.fleet.registry import FleetMix
from repro.nist.common import igamc

DEVICES = 1024
ROUNDS = 4
SEEDS = {"n65536_light": 4242, "n128_light": 4243}


def _healthy_rounds(design):
    """Failing masks and P-values of every (round, device) row."""
    registry = DeviceRegistry(design)
    devices = registry.populate(
        DEVICES, FleetMix((("healthy-ideal", 1.0),)), seed=SEEDS[design]
    )
    masks, p_values = [], []
    for _ in range(ROUNDS):
        matrix = np.stack([device.source.generate_block(registry.n) for device in devices])
        result = run_batch(matrix, tests=list(registry.tests))
        assert result.errors == {}
        masks.append(result.failing(registry.alpha))
        p_values.append(result.p_values)
    return registry, result.test_ids, np.vstack(masks), np.vstack(p_values)


def _proportion_interval(alpha, m):
    half = 3.0 * math.sqrt(alpha * (1.0 - alpha) / m)
    return 1.0 - alpha - half, 1.0 - alpha + half


def _uniformity_p_value(p_values):
    counts = np.histogram(p_values, bins=10, range=(0.0, 1.0))[0]
    expected = p_values.size / 10.0
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    return igamc(9 / 2.0, chi_squared / 2.0)


def test_n65536_light_passes_both_criteria():
    registry, test_ids, failing, p_values = _healthy_rounds("n65536_light")
    m = failing.shape[0]
    low, high = _proportion_interval(registry.alpha, m)
    for column, test_id in enumerate(test_ids):
        proportion = 1.0 - failing[:, column].mean()
        assert low <= proportion <= high, (test_id, proportion, (low, high))
        assert np.array_equal(failing[:, column], p_values[:, column] < registry.alpha)
        uniformity = _uniformity_p_value(p_values[:, column])
        assert uniformity >= 0.0001, (test_id, uniformity)


@pytest.mark.parametrize("design", ["n128_light"])
def test_n128_light_proportion_lower_bound(design):
    registry, test_ids, failing, p_values = _healthy_rounds(design)
    low, _ = _proportion_interval(registry.alpha, failing.shape[0])
    for column, test_id in enumerate(test_ids):
        proportion = 1.0 - failing[:, column].mean()
        assert proportion >= low, (test_id, proportion, low)
        assert np.array_equal(failing[:, column], p_values[:, column] < registry.alpha)
