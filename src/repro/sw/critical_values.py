"""Precomputed critical values (the constants burnt into program memory).

Typical software implementations of the NIST tests compute a P-value with
``erfc``/``igamc`` and compare it against α.  The paper (like [9], [12],
[13]) instead inverts the comparison once, at design time: for the chosen α
the *critical value of the test statistic* is precomputed and stored as a
constant, so the runtime software only performs multiplications, additions
and comparisons.  This module performs that design-time computation (with
scipy standing in for the offline calculation the designers would run on a
workstation) for every statistic the routines of :mod:`repro.sw.routines`
evaluate.

Because the hardware never sees α, changing the level of significance means
recomputing this table and updating the software — exactly the flexibility
argument of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from scipy import special as _special

from repro.hwtests.parameters import DesignParameters
from repro.nist.cusum import largest_accepted_excursion
from repro.nist.longest_run import LONGEST_RUN_TABLES
from repro.nist.overlapping import overlapping_probabilities

__all__ = [
    "CriticalValues",
    "chi_squared_critical",
    "approximate_entropy_guard_band",
    "NIST_ALPHA_RANGE",
]

#: The α interval recommended by NIST (Section II-A of the paper).
NIST_ALPHA_RANGE: Tuple[float, float] = (0.001, 0.01)


def chi_squared_critical(alpha: float, degrees_of_freedom: float) -> float:
    """The χ² value whose survival probability is exactly ``alpha``.

    ``igamc(df / 2, x / 2) = alpha``  ⇔  ``x = 2 · gammainccinv(df / 2, alpha)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if degrees_of_freedom <= 0:
        raise ValueError("degrees_of_freedom must be positive")
    return float(2.0 * _special.gammainccinv(degrees_of_freedom / 2.0, alpha))


def _erfc_inverse(alpha: float) -> float:
    """x such that erfc(x) = alpha."""
    return float(_special.erfcinv(alpha))


@dataclass(frozen=True)
class CriticalValues:
    """All precomputed constants for one design point and one α.

    Attributes mirror the per-test routines; see :mod:`repro.sw.routines`
    for how each constant is used.
    """

    alpha: float
    params: DesignParameters
    #: Test 1 — accept iff |S_final| <= this.
    frequency_max_abs_s: float
    #: Test 2 — accept iff Σ (2·ε_i − M)² <= this (integer-domain statistic).
    block_frequency_max_sum: float
    #: Test 3 — pre-test: fail iff |2·N_ones − n| >= this.
    runs_pretest_limit: float
    #: Test 3 — accept iff |V·n − 2·N_ones·N_zeros| <= this · N_ones·N_zeros / n.
    runs_coefficient: float
    #: Test 4 — 1/(N·π_i) constants and the χ² acceptance threshold.
    longest_run_inverse_pi: Tuple[float, ...]
    longest_run_max_chi2: float
    #: Test 7 — per-block mean, 1/σ² and the χ² acceptance threshold.
    nonoverlapping_mean: float
    nonoverlapping_inverse_variance: float
    nonoverlapping_max_chi2: float
    #: Test 8 — 1/(N·π_i) constants and the χ² acceptance threshold.
    overlapping_inverse_pi: Tuple[float, ...]
    overlapping_max_chi2: float
    #: Test 11 — acceptance thresholds for ∇ψ² and ∇²ψ².
    serial_max_del1: float
    serial_max_del2: float
    #: Test 12 — acceptance threshold for χ² = 2n(ln 2 − ApEn), including the
    #: guard band that absorbs the PWL approximation error (see
    #: :func:`approximate_entropy_guard_band`).
    approximate_entropy_max_chi2: float
    #: Test 13 — accept iff the maximal excursion z <= this (per mode).
    cusum_max_z_forward: int
    cusum_max_z_backward: int

    @classmethod
    def for_design(
        cls,
        params: DesignParameters,
        alpha: float = 0.01,
        pwl_segments: int = 32,
    ) -> "CriticalValues":
        """Compute the constant table for a design point at level ``alpha``.

        ``pwl_segments`` is the resolution of the x·log(x) approximation used
        by the approximate-entropy routine; it enters the guard band added to
        that test's critical value.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        n = params.n

        # Test 1: p = erfc(|S| / sqrt(2n)) >= alpha  <=>  |S| <= sqrt(2n)·erfcinv(alpha).
        frequency_max_abs_s = math.sqrt(2.0 * n) * _erfc_inverse(alpha)

        # Test 2: chi2 = (1/M)·Σ(2ε−M)²; accept iff Σ(2ε−M)² <= M·chi2_crit(N).
        m_bf = params.block_frequency_block_length
        n_bf = params.block_frequency_num_blocks
        block_frequency_max_sum = m_bf * chi_squared_critical(alpha, n_bf)

        # Test 3: pre-test |π − 1/2| >= 2/sqrt(n)  <=>  |2·N_ones − n| >= 4·sqrt(n).
        runs_pretest_limit = 4.0 * math.sqrt(n)
        # Main: |V − 2nπ(1−π)| <= 2·sqrt(2n)·erfcinv(alpha)·π(1−π).
        runs_coefficient = 2.0 * math.sqrt(2.0 * n) * _erfc_inverse(alpha)

        # Test 4.
        k4, _v4, pi4 = LONGEST_RUN_TABLES[params.longest_run_block_length]
        n4 = params.longest_run_num_blocks
        longest_run_inverse_pi = tuple(1.0 / (n4 * p) for p in pi4)
        longest_run_max_chi2 = chi_squared_critical(alpha, k4)

        # Test 7.
        m7 = params.template_length
        big_m7 = params.nonoverlapping_block_length
        mean7 = (big_m7 - m7 + 1) / (1 << m7)
        var7 = big_m7 * (1.0 / (1 << m7) - (2.0 * m7 - 1.0) / (1 << (2 * m7)))
        nonoverlapping_max_chi2 = chi_squared_critical(alpha, params.nonoverlapping_num_blocks)

        # Test 8.
        k8 = 5
        pi8 = overlapping_probabilities(params.overlapping_block_length, m7, k8)
        n8 = max(params.overlapping_num_blocks, 1)
        overlapping_inverse_pi = tuple(1.0 / (n8 * p) for p in pi8)
        overlapping_max_chi2 = chi_squared_critical(alpha, k8)

        # Test 11: p1 uses df = 2^(m−1), p2 uses df = 2^(m−2).
        m11 = params.serial_m
        serial_max_del1 = chi_squared_critical(alpha, 2 ** (m11 - 1))
        serial_max_del2 = chi_squared_critical(alpha, 2 ** (m11 - 2))

        # Test 12: ApEn block length m = serial_m − 1; df = 2^m.  The χ²
        # statistic computed through the PWL approximation carries an
        # approximation error amplified by the 2n factor, so the stored
        # critical value includes a design-time guard band.
        m12 = params.serial_m - 1
        approximate_entropy_max_chi2 = chi_squared_critical(alpha, 2 ** m12) + (
            approximate_entropy_guard_band(n, m12, pwl_segments)
        )

        # Test 13: largest z whose P-value is still >= alpha (per mode the
        # formula is identical — it only depends on z and n).
        cusum_max_z = largest_accepted_excursion(n, alpha)

        return cls(
            alpha=alpha,
            params=params,
            frequency_max_abs_s=frequency_max_abs_s,
            block_frequency_max_sum=block_frequency_max_sum,
            runs_pretest_limit=runs_pretest_limit,
            runs_coefficient=runs_coefficient,
            longest_run_inverse_pi=longest_run_inverse_pi,
            longest_run_max_chi2=longest_run_max_chi2,
            nonoverlapping_mean=mean7,
            nonoverlapping_inverse_variance=1.0 / var7,
            nonoverlapping_max_chi2=nonoverlapping_max_chi2,
            overlapping_inverse_pi=overlapping_inverse_pi,
            overlapping_max_chi2=overlapping_max_chi2,
            serial_max_del1=serial_max_del1,
            serial_max_del2=serial_max_del2,
            approximate_entropy_max_chi2=approximate_entropy_max_chi2,
            cusum_max_z_forward=cusum_max_z,
            cusum_max_z_backward=cusum_max_z,
        )

    def as_table(self) -> Dict[str, object]:
        """The constants as a flat dictionary (what would go to program memory)."""
        return {
            "alpha": self.alpha,
            "frequency_max_abs_s": self.frequency_max_abs_s,
            "block_frequency_max_sum": self.block_frequency_max_sum,
            "runs_pretest_limit": self.runs_pretest_limit,
            "runs_coefficient": self.runs_coefficient,
            "longest_run_inverse_pi": list(self.longest_run_inverse_pi),
            "longest_run_max_chi2": self.longest_run_max_chi2,
            "nonoverlapping_mean": self.nonoverlapping_mean,
            "nonoverlapping_inverse_variance": self.nonoverlapping_inverse_variance,
            "nonoverlapping_max_chi2": self.nonoverlapping_max_chi2,
            "overlapping_inverse_pi": list(self.overlapping_inverse_pi),
            "overlapping_max_chi2": self.overlapping_max_chi2,
            "serial_max_del1": self.serial_max_del1,
            "serial_max_del2": self.serial_max_del2,
            "approximate_entropy_max_chi2": self.approximate_entropy_max_chi2,
            "cusum_max_z_forward": self.cusum_max_z_forward,
            "cusum_max_z_backward": self.cusum_max_z_backward,
        }


def approximate_entropy_guard_band(n: int, m: int, segments: int = 32) -> float:
    """Guard band absorbing the PWL error in the approximate-entropy χ².

    The software evaluates Σ (ν/n)·log(ν/n) with a ``segments``-segment PWL
    approximation whose chord error near an argument p is about
    ``|g''(p)|·|δ|·(h − |δ|)/2`` (h = segment width, δ = distance from the
    nearest breakpoint).  Under the randomness hypothesis the arguments
    fluctuate around p = 2^{-m} and 2^{-(m+1)} — which for the paper's
    parameters are themselves breakpoints — with standard deviation
    ``sqrt(p(1−p)/n)``, so the *expected* per-term error can be bounded at
    design time.  The χ² statistic multiplies the accumulated error by 2n;
    the guard band is three times that expected inflation, and is added to
    the stored critical value so that the PWL-based routine does not raise
    false alarms on a healthy source.  The price is reduced sensitivity of
    the approximate-entropy test to *subtle* weaknesses (gross failures —
    locked oscillators, strong correlation, stuck bits — produce statistics
    orders of magnitude above the guarded threshold); this trade-off is
    inherent to the paper's 32-segment approximation and is quantified by
    ``benchmarks/bench_fig3_pwl.py`` and the detection benchmark.
    """
    if segments < 1:
        raise ValueError("segments must be positive")
    h = 1.0 / segments
    safety = 3.0
    total_expected_error = 0.0
    for length in (m, m + 1):
        p = 2.0 ** (-length)
        sigma = math.sqrt(p * (1.0 - p) / n)
        curvature = 1.0 / p
        # Expected chord error per term: the small-fluctuation estimate,
        # capped by the worst-case mid-segment error h²·|g''|/8.
        per_term = min(0.5 * curvature * sigma * 0.8 * h, curvature * h * h / 8.0)
        total_expected_error += (1 << length) * per_term
    return safety * 2.0 * n * total_expected_error
