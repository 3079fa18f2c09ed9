"""Uniform test registry: NIST, FIPS and hardware-model tests, one interface.

The paper's three test layers (the reference NIST suite, the FIPS 140-2
baseline battery and the HW/SW platform model) historically each had their
own dispatch structure — a hard-coded dict in ``nist/suite.py``, a fixed
list in ``fips/battery.py`` and ad-hoc per-design wiring in ``hwtests/``.
This module replaces those with one :class:`TestRegistry` of
:class:`RegisteredTest` entries: every test exposes a stable id, a
human-readable name and one entry point, a batch entry that evaluates a
whole :class:`~repro.engine.context.BatchContext` at once — the one path
:func:`repro.engine.batch.run_batch` dispatches through.  A lone sequence
is a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple, Union

from repro.engine import decisions as _decisions
from repro.engine import heavy as _heavy
from repro.engine.context import BatchContext
from repro.fips import battery as _fips
from repro.nist.common import TestResult
from repro.nist.suite import NIST_TEST_NAMES

__all__ = [
    "RegisteredTest",
    "TestRegistry",
    "TestSpec",
    "DEFAULT_REGISTRY",
    "NIST_NUMBER_TO_ID",
    "build_default_registry",
]

#: Anything that resolves to a registered test: a test object, a canonical
#: id or alias string, or a NIST test number.
TestSpec = Union["RegisteredTest", str, int]

#: What a batch runner returns: a light test's statistic column, or one
#: result per sequence (the exception instead, for a row on which its
#: reference raises).
BatchOutcome = Union[_decisions.StatisticColumn, List[Union[TestResult, Exception]]]


@dataclass(frozen=True)
class RegisteredTest:
    """A test behind the uniform interface.

    Attributes
    ----------
    id:
        Canonical id, namespaced by layer (``nist.serial``, ``fips.poker``,
        ``hw.platform``).
    name:
        Human-readable name.
    batch_runner:
        The test's entry point, ``batch_runner(batch, **params)``, evaluating
        a whole :class:`~repro.engine.context.BatchContext` at once.  It
        returns either a :class:`~repro.engine.decisions.StatisticColumn`
        (the light tests: verdicts from critical values, P-values and a
        row's :class:`TestResult` only when read) or one result per
        sequence; either way bit-identical to the test's reference.
        Errors that depend only on the parameters and ``n`` are raised once
        for the batch; a row whose own bits make its reference raise carries
        that exception in its slot.
    aliases:
        Alternative lookup keys (the NIST number, its string form, ...).
    """

    id: str
    name: str
    batch_runner: Callable[..., BatchOutcome]
    aliases: Tuple[TestSpec, ...] = ()


class TestRegistry:
    """Lookup table of registered tests, keyed by id and aliases."""

    #: Not a pytest test class, despite the name (prevents collection warnings).
    __test__ = False

    def __init__(self) -> None:
        self._tests: Dict[str, RegisteredTest] = {}
        self._aliases: Dict[TestSpec, str] = {}

    def register(self, test: RegisteredTest, replace: bool = False) -> RegisteredTest:
        """Add a test; aliases must not collide unless ``replace`` is set."""
        keys = [test.id, *test.aliases]
        if not replace:
            for key in keys:
                if key in self._aliases:
                    raise ValueError(f"test key {key!r} already registered")
        self._tests[test.id] = test
        for key in keys:
            self._aliases[key] = test.id
        return test

    def resolve(self, spec: TestSpec) -> RegisteredTest:
        """Resolve a test object, canonical id, alias or NIST number."""
        if isinstance(spec, RegisteredTest):
            return spec
        canonical = self._aliases.get(spec)
        if canonical is None:
            raise ValueError(f"unknown test {spec!r}")
        return self._tests[canonical]

    def ids(self) -> Tuple[str, ...]:
        """Canonical ids of all registered tests, in registration order."""
        return tuple(self._tests)

    def __contains__(self, spec: TestSpec) -> bool:
        return isinstance(spec, RegisteredTest) or spec in self._aliases

    def __iter__(self) -> Iterator[RegisteredTest]:
        return iter(self._tests.values())

    def __len__(self) -> int:
        return len(self._tests)


# ---------------------------------------------------------------------------
# Default registry: the 15 NIST tests, the 4 FIPS tests, the hw-model battery
# ---------------------------------------------------------------------------

#: NIST test number (Table I of the paper) -> canonical registry id.
NIST_NUMBER_TO_ID: Dict[int, str] = {
    1: "nist.frequency",
    2: "nist.block_frequency",
    3: "nist.runs",
    4: "nist.longest_run",
    5: "nist.rank",
    6: "nist.dft",
    7: "nist.non_overlapping_template",
    8: "nist.overlapping_template",
    9: "nist.universal",
    10: "nist.linear_complexity",
    11: "nist.serial",
    12: "nist.approximate_entropy",
    13: "nist.cumulative_sums",
    14: "nist.random_excursions",
    15: "nist.random_excursions_variant",
}


def _fips_result(outcome: _fips.FipsTestResult) -> TestResult:
    """A FIPS pass/fail outcome behind the :class:`TestResult` interface.

    FIPS tests have no significance level, so the P-value degenerates to
    1.0 (accept) / 0.0 (reject); the native result rides in ``details``.
    """
    return TestResult(
        name=outcome.name,
        statistic=outcome.statistic,
        p_value=1.0 if outcome.passed else 0.0,
        details={"fips": outcome, **outcome.details},
    )


def _fips_batch_runner(batch_test: Callable[[BatchContext], List[_fips.FipsTestResult]]):
    """Adapt a FIPS batch test to one :class:`TestResult` per row."""

    def batch_runner(batch: BatchContext) -> List[TestResult]:
        return [_fips_result(outcome) for outcome in batch_test(batch)]

    batch_runner.__name__ = f"uniform_{batch_test.__name__}"
    return batch_runner


def _platform_result(design: str, report) -> TestResult:
    """A platform report as a degenerate P-value (1.0 pass / 0.0 fail)."""
    return TestResult(
        name=f"HW/SW platform ({design})",
        statistic=float(len(report.failing_tests)),
        p_value=1.0 if report.passed else 0.0,
        details={"platform_report": report, "failing_tests": report.failing_tests},
    )


def _hw_platform_batch_runner(batch: BatchContext, design: str = "n65536_high",
                              alpha: float = 0.01) -> List[TestResult]:
    """Run the HW/SW platform model (functional path) as a registry test.

    Each row is pushed through the unified hardware testing block's
    vectorised functional model and verified by the 16-bit software
    routines (:meth:`OnTheFlyPlatform.evaluate_batch`); each verdict is
    reported as a degenerate P-value (1.0 pass / 0.0 fail) with the full
    :class:`~repro.core.results.PlatformReport` in ``details``.  The
    platform is built per call: evaluating mutates its hardware model, so
    concurrent batches must not share one.
    """
    from repro.core.platform import OnTheFlyPlatform  # deferred: avoids cycle

    platform = OnTheFlyPlatform(design, alpha=alpha)
    return [_platform_result(design, report) for report in platform.evaluate_batch(batch)]


def build_default_registry() -> TestRegistry:
    """The registry wiring all three test layers behind one interface."""
    registry = TestRegistry()

    # Batch entry points evaluate a whole packed batch at once: the five
    # light tests return their statistic columns, decided against critical
    # values, the others run the kernels of repro.engine.heavy.
    batch_runners: Dict[int, Callable[..., BatchOutcome]] = {
        1: _decisions.batch_frequency,
        2: _decisions.batch_block_frequency,
        3: _decisions.batch_runs,
        4: _decisions.batch_longest_run,
        5: _heavy.batch_rank,
        6: _heavy.batch_dft,
        7: _heavy.batch_non_overlapping_template,
        8: _heavy.batch_overlapping_template,
        9: _heavy.batch_universal,
        10: _heavy.batch_linear_complexity,
        11: _heavy.batch_serial,
        12: _heavy.batch_approximate_entropy,
        13: _decisions.batch_cumulative_sums,
        14: _heavy.batch_random_excursions,
        15: _heavy.batch_random_excursions_variant,
    }
    for number, batch_runner in batch_runners.items():
        registry.register(
            RegisteredTest(
                id=NIST_NUMBER_TO_ID[number],
                name=NIST_TEST_NAMES[number],
                aliases=(number, str(number), f"nist.{number}"),
                batch_runner=batch_runner,
            )
        )

    fips_tests = {
        "monobit": _fips.batch_monobit,
        "poker": _fips.batch_poker,
        "runs": _fips.batch_runs,
        "long_run": _fips.batch_long_run,
    }
    for short_name, batch_test in fips_tests.items():
        registry.register(
            RegisteredTest(
                id=f"fips.{short_name}",
                name=f"FIPS {short_name.replace('_', ' ')}",
                batch_runner=_fips_batch_runner(batch_test),
            )
        )

    registry.register(
        RegisteredTest(
            id="hw.platform",
            name="HW/SW on-the-fly platform",
            batch_runner=_hw_platform_batch_runner,
        )
    )
    return registry


#: The shared default registry used by the suite, battery and batch executor.
DEFAULT_REGISTRY = build_default_registry()
