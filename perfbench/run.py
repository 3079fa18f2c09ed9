"""End-to-end benchmark of the fleet's on-the-fly TRNG verdicts.

Run from the repository root::

    python3 perfbench/run.py --workload round_n65536 --seed 1 --seconds 45 --trace 0

Workloads (``BENCHMARK.json`` gives the reason for each):

``round_n65536``
    1024 simulated devices on ``n65536_light``, ``FleetScheduler.run_round()``
    back to back.  Bound by bit volume: simulation and per-sequence p-value
    math.
``round_n128``
    The same fleet on ``n128_light``: per-row overhead dominates.  Runnable,
    but left out of ``BENCHMARK.json``: its figures swing with other tenants
    of a shared host far more than the other two workloads'.
``ingest_http``
    HTTP ``/ingest`` into a ``fleet serve`` process with the WAL on: many
    tiny batches plus the service, JSON, bit-parsing and WAL layers.

Every workload is one client in a closed loop.  An *op* is one round on the
round workloads and one ``/ingest`` request on ``ingest_http``.  With
``--trace 0`` the run measures for ``--seconds`` and prints every end-to-end
metric; with ``--trace 1`` it measures untraced for half the time, then
steps through ops under the benchmark's spans for the other half, and
prints the per-layer metrics (seconds per op), writing the spans to
``.perfbench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when a correctness check or the ``/metrics`` cross-check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_DESIGNS = {"round_n65536": "n65536_light", "round_n128": "n128_light"}
WORKLOADS = (*ROUND_DESIGNS, "ingest_http")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import common  # noqa: E402 - needs the program on sys.path
    import ingest
    import rounds

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.workload == "ingest_http":
            result = ingest.run(args.seed, args.seconds, trace, scratch, ROOT)
        else:
            design = ROUND_DESIGNS[args.workload]
            result = rounds.run(design, args.seed, args.seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # After the workload, so the probe's slab stays out of its peak RSS.
    context = common.calibration()
    print("context: " + " ".join(f"{key}={value}" for key, value in context.items()))

    values = result["layers"] if trace else result["metrics"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        raise SystemExit(f"error: the workload did not measure {missing}")
    if trace:
        path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        result["spans"].dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    print(f"{args.workload} seed {args.seed}: samples {result['samples']}")
    # The median and the slow tail are reported, not gated: their run-to-run
    # spread on a shared 2-core host is too close to the largest bound a
    # metric may have (see common.FAST_PERCENTILE).
    tail = ", ".join(
        f"p{q} {common.percentile(result['op_s'], q) * 1e3:.3f}" for q in (10, 50, 75, 90, 99)
    )
    print(f"  op latency ms over {len(result['op_s'])} untraced ops: {tail}")
    for metric in wanted:
        print(f"  {metric['name']:<32} {values[metric['name']]:>16.6f} {metric['unit']}")
    problems = result["problems"]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
