"""Batch executor: many sequences, shared statistics, columnar decisions.

``run_batch`` is the engine's answer to many-sequence monitoring traffic:
instead of evaluating sequences one at a time (each test re-scanning the
same bitstream), a batch of equal-length sequences shares a
:class:`~repro.engine.context.BatchContext` whose statistics are computed
with single vectorised 2-D passes over the whole bit matrix.  Every
registered test has a batch entry, and ``run_batch`` has one dispatch
loop: one call per test over the whole batch.  The five light tests
(frequency, block frequency, runs, longest run, cusum) return their
statistic columns from the shared integer statistics, decided against
precomputed critical values (:mod:`repro.engine.decisions`); the other
NIST tests run their batch kernels (:mod:`repro.engine.heavy`), and the
FIPS and hardware-model entries read the same batch.  A single sequence is
a one-row batch; on mixed lengths each distinct length is its own batch,
and its rows go back into the columns.

The result is columnar.  A :class:`BatchResult` holds one column per test:
the error strings, the ``failing(alpha)`` mask a fleet verdict reduces
from — comparisons alone for the light tests — and the P-values, which
are computed only when read.  It is also a sequence of per-row
:class:`EngineReport` views whose ``results`` build the scalar references'
:class:`~repro.nist.common.TestResult` objects only when read.  Verdicts
and results are identical to running each test directly on each sequence
— asserted by ``tests/test_engine_parity.py``,
``tests/test_heavy_batch_parity.py``, ``tests/test_batch_entries.py``,
``tests/test_columnar_decisions.py`` and ``tests/test_verdict_tables.py``.
"""

from __future__ import annotations

import operator
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

import repro.obs as obs
from repro.engine.context import BatchContext
from repro.engine.decisions import StatisticColumn
from repro.engine.packed import PackedMatrix
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    BatchOutcome,
    NIST_NUMBER_TO_ID,
    RegisteredTest,
    TestRegistry,
    TestSpec,
)
from repro.nist.common import BitsLike, TestResult, to_bits

__all__ = ["BatchResult", "EngineReport", "run_batch"]

_TEST_SECONDS = obs.histogram(
    "repro_engine_test_seconds",
    "Wall time of one test's dispatch over a whole batch, by canonical test id.",
    labels=("test",),
)
_TESTS_TOTAL = obs.counter(
    "repro_engine_tests_total",
    "Per-sequence test evaluations (sequences x tests).",
)
_BITS_EVALUATED = obs.counter(
    "repro_engine_bits_evaluated_total",
    "Bits entering run_batch (sequences x sequence length).",
)


class _Column:
    """One test's outcome over the whole batch.

    A light test's length group arrives as a
    :class:`~repro.engine.decisions.StatisticColumn`: its rows are decided
    against critical values, and their P-values and :class:`TestResult`
    objects (the column's ``result``) are computed only when read.  Rows of
    a runner that returns one result per sequence arrive built; ``errors``
    holds the error string of each row that raised.
    """

    def __init__(
        self,
        rows: int,
        outcomes: List[Tuple[np.ndarray, Union[BatchOutcome, Exception]]],
    ) -> None:
        self._rows = rows
        self._decided: List[Tuple[np.ndarray, StatisticColumn]] = []
        self._results: Dict[int, TestResult] = {}
        self._p_values: Optional[np.ndarray] = None
        self.errors: Dict[int, str] = {}
        for group_rows, outcome in outcomes:
            if isinstance(outcome, Exception):
                self.errors.update(dict.fromkeys(group_rows.tolist(), _describe_error(outcome)))
            elif isinstance(outcome, StatisticColumn):
                self._decided.append((group_rows, outcome))
            else:
                for row, result in zip(group_rows.tolist(), outcome):
                    if isinstance(result, Exception):
                        self.errors[row] = _describe_error(result)
                    else:
                        self._results[row] = result

    @property
    def p_values(self) -> np.ndarray:
        """Each row's primary P-value (NaN where the test raised), computed once."""
        if self._p_values is None:
            column = np.full(self._rows, np.nan)
            for group_rows, decided in self._decided:
                column[group_rows] = decided.p_values()
            for row, result in self._results.items():
                column[row] = result.p_value
            self._p_values = column
        return self._p_values

    def result(self, row: int) -> Optional[TestResult]:
        if row in self.errors:
            return None
        result = self._results.get(row)
        if result is not None:
            return result
        # A decided group's rows ascend, so the row's index in its group
        # is its position among them (the row itself when it holds them all).
        for group_rows, decided in self._decided:
            if group_rows.size == self._rows:
                return decided.result(row)
            index = int(np.searchsorted(group_rows, row))
            if index < group_rows.size and group_rows[index] == row:
                return decided.result(index)
        return None

    def failing(self, alpha: float) -> np.ndarray:
        """Rows whose result rejects randomness at ``alpha`` (never errored rows)."""
        if len(self._decided) == 1 and not self._results and not self.errors:
            return self._decided[0][1].failing(alpha)  # one group decided every row
        failing = np.zeros(self._rows, dtype=bool)
        for group_rows, decided in self._decided:
            failing[group_rows] = decided.failing(alpha)
        for row, result in self._results.items():
            failing[row] = not result.passed(alpha)
        return failing


class EngineReport:
    """One sequence's row of a :class:`BatchResult`, keyed by canonical test id.

    A lazy view: :attr:`results` builds the row's
    :class:`~repro.nist.common.TestResult` objects — exactly the scalar
    references' output — on first access, while :meth:`passed` and
    :meth:`failing_tests` read the batch's failing mask without building
    any.
    """

    __slots__ = ("_batch", "_row", "_results")

    def __init__(self, batch: "BatchResult", row: int) -> None:
        self._batch = batch
        self._row = row
        self._results: Optional[Dict[str, TestResult]] = None

    @property
    def n(self) -> int:
        """Sequence length."""
        return self._batch.lengths[self._row]

    @property
    def results(self) -> Dict[str, TestResult]:
        """Result per test that ran on this sequence, built on first access."""
        if self._results is None:
            results: Dict[str, TestResult] = {}
            for test_id, column in self._batch._columns.items():
                result = column.result(self._row)
                if result is not None:
                    results[test_id] = result
            self._results = results
        return self._results

    @property
    def errors(self) -> Dict[str, str]:
        """Error string per test that raised on this sequence."""
        return {
            test_id: column.errors[self._row]
            for test_id, column in self._batch._columns.items()
            if self._row in column.errors
        }

    def passed(self, alpha: float = 0.01) -> bool:
        """True when every test that ran accepted the randomness hypothesis."""
        return not bool(self._batch.failing(alpha)[self._row].any())

    def failing_tests(self, alpha: float = 0.01) -> List[str]:
        """Ids of tests that rejected the randomness hypothesis."""
        flags = self._batch.failing(alpha)[self._row]
        return [test_id for test_id, flag in zip(self._batch.test_ids, flags) if flag]

    def p_values(self) -> Dict[str, float]:
        """Primary P-value per executed test."""
        return {test_id: result.p_value for test_id, result in self.results.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EngineReport):
            return NotImplemented
        return self._fields() == other._fields()

    def _fields(self) -> Tuple[object, ...]:
        return (self.n, self.results, self.errors)

    def __repr__(self) -> str:
        return (
            f"EngineReport(n={self.n}, tests={list(self._batch.test_ids)}, "
            f"errors={self.errors})"
        )


class BatchResult(Sequence[EngineReport]):
    """Columnar outcome of :func:`run_batch`: one column per test over the batch.

    :meth:`failing` is the mask of rejections at a significance level and
    :attr:`errors` the error strings per test and row — everything a verdict
    needs, without a P-value or a :class:`~repro.nist.common.TestResult`.
    :attr:`p_values` is the ``(rows, tests)`` matrix of primary P-values in
    :attr:`test_ids` order, computed when first read.  As a ``Sequence`` it
    serves one lazy :class:`EngineReport` per row (indexing, slicing,
    iteration, ``len``).  Decided columns keep the batch's statistics alive
    until the result is dropped, so P-values and a row's results can still
    be computed on demand.
    """

    def __init__(self, lengths: Sequence[int], columns: Dict[str, _Column]) -> None:
        #: Sequence length per row (rows differ only on mixed-length input).
        self.lengths = tuple(lengths)
        self._columns = columns
        self._reports: List[Optional[EngineReport]] = [None] * len(self.lengths)
        self._failing: Dict[float, np.ndarray] = {}

    @property
    def test_ids(self) -> Tuple[str, ...]:
        """Canonical ids of the tests that ran, in execution order."""
        return tuple(self._columns)

    @property
    def p_values(self) -> np.ndarray:
        """``(rows, tests)`` primary P-values in :attr:`test_ids` order (NaN: error),
        each column computed when first read."""
        if not self._columns:
            return np.empty((len(self), 0))
        return np.column_stack([column.p_values for column in self._columns.values()])

    @property
    def errors(self) -> Dict[str, Dict[int, str]]:
        """Error string per row, for each test that raised on some row."""
        return {
            test_id: dict(column.errors)
            for test_id, column in self._columns.items()
            if column.errors
        }

    def failing(self, alpha: float = 0.01) -> np.ndarray:
        """``(rows, tests)`` mask: True where a test rejected randomness at ``alpha``.

        A row on which a test raised is not failing for that test (see
        :attr:`errors`).  The mask is computed once per ``alpha``.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        mask = self._failing.get(alpha)
        if mask is None:
            mask = np.empty((len(self), len(self._columns)), dtype=bool)
            for index, column in enumerate(self._columns.values()):
                mask[:, index] = column.failing(alpha)
            self._failing[alpha] = mask
        return mask

    def __len__(self) -> int:
        return len(self.lengths)

    @overload
    def __getitem__(self, index: int) -> EngineReport: ...

    @overload
    def __getitem__(self, index: slice) -> List[EngineReport]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[EngineReport, List[EngineReport]]:
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        row = operator.index(index)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError(f"row {index} out of range for a batch of {len(self)}")
        report = self._reports[row]
        if report is None:
            report = self._reports[row] = EngineReport(self, row)
        return report

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BatchResult, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"BatchResult(rows={len(self)}, tests={list(self._columns)})"


def _describe_error(exc: Exception) -> str:
    """Error string recorded in :attr:`BatchResult.errors`.

    ``ValueError`` messages (parameter/length constraints) are self-
    explanatory; anything else keeps its exception type so an unexpected
    crash inside a test stays distinguishable from a rejected input.
    """
    if isinstance(exc, ValueError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def run_batch(
    sequences: Union[np.ndarray, PackedMatrix, BatchContext, Iterable[BitsLike]],
    tests: Optional[Sequence[TestSpec]] = None,
    parameters: Optional[Dict[TestSpec, Dict[str, object]]] = None,
    registry: Optional[TestRegistry] = None,
    skip_errors: bool = True,
) -> BatchResult:
    """Evaluate ``tests`` on every sequence in ``sequences``.

    Parameters
    ----------
    sequences:
        Iterable of bit sequences (any ``BitsLike``), a 2-D
        ``(num_sequences, n)`` uint8 matrix straight from
        :meth:`~repro.trng.source.EntropySource.generate_matrix` — packed
        once, with its shape and 0/1 content validated — or a prepacked
        :class:`~repro.engine.packed.PackedMatrix` (e.g. from
        ``generate_matrix(..., packed=True)`` or the fleet scheduler).
        A prebuilt :class:`~repro.engine.context.BatchContext` is used
        as-is, statistics already cached in it included.
        Equal-length sequences — a single sequence included — are stacked
        into one bit matrix and share vectorised statistics; on mixed
        lengths each distinct length is stacked into its own batch.
    tests:
        Test specs resolvable by the registry — canonical ids
        (``"nist.serial"``, ``"fips.poker"``, ``"hw.platform"``), NIST
        numbers, or :class:`RegisteredTest` objects.  Defaults to the 15
        NIST tests.
    parameters:
        Optional per-test keyword arguments keyed by any resolvable spec.
    registry:
        Registry to resolve specs against (default:
        :data:`~repro.engine.registry.DEFAULT_REGISTRY`).
    skip_errors:
        When True (default), any exception from a test is recorded in
        :attr:`BatchResult.errors` instead of aborting the batch, so one
        misbehaving test cannot leave the other columns partially filled.

    Returns
    -------
    BatchResult
        One column per test; as a sequence, one :class:`EngineReport` per
        input sequence, in input order.
    """
    with obs.trace("run_batch"):
        return _run_batch(sequences, tests, parameters, registry, skip_errors)


def _run_batch(
    sequences: Union[np.ndarray, PackedMatrix, BatchContext, Iterable[BitsLike]],
    tests: Optional[Sequence[TestSpec]],
    parameters: Optional[Dict[TestSpec, Dict[str, object]]],
    registry: Optional[TestRegistry],
    skip_errors: bool,
) -> BatchResult:
    """The traced body of :func:`run_batch` (runs under its root span)."""
    registry = registry if registry is not None else DEFAULT_REGISTRY
    with obs.span("pack"):
        batch: Optional[BatchContext] = None
        if isinstance(sequences, BatchContext):
            # Prebuilt context: run on it directly so its cached
            # statistics are reused, not recomputed.
            batch = sequences
        elif isinstance(sequences, PackedMatrix) or (
            isinstance(sequences, np.ndarray) and sequences.ndim == 2
        ):
            batch = BatchContext(sequences)
        arrays: List[np.ndarray] = []
        if batch is not None:
            num_sequences = batch.num_sequences
        else:
            arrays = [to_bits(sequence) for sequence in sequences]
            num_sequences = len(arrays)
        if not num_sequences:
            return BatchResult((), {})
        specs = list(tests) if tests is not None else sorted(NIST_NUMBER_TO_ID)
        # Dedupe after resolution (first occurrence wins): the same test
        # given twice — e.g. by number and by id alias — would otherwise run
        # twice and silently overwrite its own result.
        resolved: List[RegisteredTest] = []
        seen_ids = set()
        for spec in specs:
            test = registry.resolve(spec)
            if test.id not in seen_ids:
                seen_ids.add(test.id)
                resolved.append(test)
        params: Dict[str, Dict[str, object]] = {}
        for spec, kwargs in (parameters or {}).items():
            test_id = registry.resolve(spec).id
            if test_id in params and params[test_id] != dict(kwargs):
                raise ValueError(
                    f"conflicting parameters for test {test_id!r}: "
                    "the same test was keyed under multiple aliases"
                )
            params[test_id] = dict(kwargs)

        if batch is not None:
            groups = [(batch, np.arange(num_sequences))]
            lengths = [batch.n] * num_sequences
        else:
            # One batch per distinct length (one in all for equal lengths).
            by_length: Dict[int, List[int]] = {}
            for row, arr in enumerate(arrays):
                by_length.setdefault(arr.size, []).append(row)
            groups = [
                (BatchContext(np.vstack([arrays[row] for row in rows])), np.array(rows))
                for rows in by_length.values()
            ]
            lengths = [int(arr.size) for arr in arrays]
    _BITS_EVALUATED.inc(sum(lengths))

    # Each test's outcome per length group, folded into its column under
    # one decision span once every test has been dispatched.  Collecting
    # outcomes first keeps skip_errors=False raising from inside the
    # dispatch span, exactly where the failure happened.
    outcomes: Dict[str, List[Tuple[np.ndarray, Union[BatchOutcome, Exception]]]] = {}
    for test in resolved:
        kwargs = params.get(test.id, {})
        ran: List[Tuple[np.ndarray, Union[BatchOutcome, Exception]]] = []
        with obs.span("dispatch", test=test.id) as dispatch_span:
            for group, rows in groups:
                try:
                    outcome = test.batch_runner(group, **kwargs)
                except Exception as exc:  # noqa: BLE001 - see skip_errors docs
                    if not skip_errors:
                        raise
                    # Batch runners validate parameters once for the whole
                    # group (all its rows share n), so the error is uniform.
                    outcome = exc
                if not skip_errors and isinstance(outcome, list):
                    for result in outcome:
                        if isinstance(result, Exception):
                            raise result
                ran.append((rows, outcome))
        _TEST_SECONDS.observe(dispatch_span.duration_s, test=test.id)
        outcomes[test.id] = ran
    _TESTS_TOTAL.inc(num_sequences * len(resolved))

    with obs.span("decision", tests=len(resolved)):
        columns = {test.id: _Column(num_sequences, outcomes[test.id]) for test in resolved}
    return BatchResult(lengths, columns)
