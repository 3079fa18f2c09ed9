"""One schema for every machine-readable ``BENCH_*.json`` artefact.

Each perf-pinning benchmark used to assemble its own ad-hoc result dict, so
tracking the speedup trajectory across PRs meant reverse-engineering a
different layout per file.  Every ``benchmarks/bench_*.py`` now writes its
``benchmarks/results/BENCH_<name>.json`` through :func:`write_bench_json`,
which enforces one layout:

``bench`` / ``schema_version``
    Artefact identity.
``python`` / ``numpy``
    Interpreter and numpy versions the numbers were measured on (perf
    deltas across PRs are meaningless without them).
``smoke``
    True when the workload was shrunk to CI-smoke size.
``workload``
    What was measured (design, matrix shape, device count, ...).
``timings_s``
    Raw wall-clock measurements, in seconds.
``speedups``
    Derived ratios, keyed by comparison name.
``floors``
    The pinned minimum for each speedup key — the regression contract.
    :func:`assert_floors` fails the benchmark when a measured speedup dips
    below its floor.
``extra``
    Optional benchmark-specific values (throughputs, rates, ...).

The plain-table artefacts (``results/<name>.txt`` / ``<name>.json``) keep
going through ``conftest.save_table``; this module only owns the pinned
``BENCH_*`` perf contracts.
"""

from __future__ import annotations

import json
import pathlib
import platform
from typing import Dict, Mapping, Optional

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCHEMA_VERSION = 1


def write_bench_json(
    name: str,
    *,
    workload: Mapping[str, object],
    timings_s: Mapping[str, float],
    speedups: Mapping[str, float],
    floors: Mapping[str, float],
    smoke: bool = False,
    extra: Optional[Mapping[str, object]] = None,
) -> pathlib.Path:
    """Persist ``benchmarks/results/BENCH_<name>.json`` in the shared schema.

    ``floors`` must provide a pinned minimum for every entry in
    ``speedups`` (and nothing else) — the schema exists to make the
    regression contract explicit, so a floorless speedup is an error.
    """
    if set(speedups) != set(floors):
        raise ValueError(
            f"speedups {sorted(speedups)} and floors {sorted(floors)} must "
            "cover the same comparison keys"
        )
    payload: Dict[str, object] = {
        "bench": name,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "smoke": smoke,
        "workload": dict(workload),
        "timings_s": {key: float(value) for key, value in timings_s.items()},
        "speedups": {key: float(value) for key, value in speedups.items()},
        "floors": {key: float(value) for key, value in floors.items()},
    }
    if extra:
        payload["extra"] = dict(extra)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def assert_floors(speedups: Mapping[str, float], floors: Mapping[str, float]) -> None:
    """Fail (AssertionError) when any measured speedup dips below its floor."""
    for key, floor in floors.items():
        measured = speedups[key]
        assert measured >= floor, (
            f"{key}: measured {measured:.2f}x is below the pinned "
            f"{floor:g}x floor"
        )
