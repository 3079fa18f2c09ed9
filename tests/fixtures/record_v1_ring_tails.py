"""Record ``tests/fixtures/v1_ring_tails.json``: v1 streaming rings and their tails.

A version-1 streaming-mode fleet snapshot stores each device's packed ring
(``StreamingContext(n).state_dict()``) and its count of pending bits; the
restored tail is the ring's last ``pending`` bits.  ``StreamingContext``
was removed after commit 0279473, and the tail is now decoded from the
ring layout alone (``repro.fleet.scheduler._stored_tail``).  This fixture
pins that decoder against what ``StreamingContext.window_matrix`` served:

* n in {128, 1024}, default capacity (one window), so ``ring_words`` is
  n / 64;
* push schedules mixing chunks of 1, 63, 64, 65, n and 2n bits, so rings
  wrap more than once and bit offsets are unaligned;
* a capture after every push, with the tails for pending in
  {0, 1, 63, 64, 65, n - 1} that the capture can serve.

Each case holds the capture encoded with ``durability.encode_state`` and
the expected tail bits of every pending count.

The script only runs against a checkout that still has streaming::

    git archive 0279473 | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/fixtures/record_v1_ring_tails.py tests/fixtures
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.engine import StreamingContext
from repro.fleet.durability import encode_state

SIZES = (128, 1024)


def schedules(n: int) -> dict:
    return {
        "unaligned": (1, 63, 64, 65, n, 2 * n, 1, 65, 63),
        "aligned": (64, n, 64, 2 * n, 64),
        "one-window": (n,),
        "wrapping": (65, 2 * n, 1, 63, n, 64, 2 * n, 63, 1, 1, 65),
    }


def bit_string(bits: np.ndarray) -> str:
    return "".join("1" if bit else "0" for bit in bits.tolist())


def main() -> None:
    out = Path(sys.argv[1])
    cases = []
    for n in SIZES:
        for index, (name, chunks) in enumerate(schedules(n).items()):
            stream = StreamingContext(n)
            rng = np.random.default_rng([41, n, index])
            pushed = np.zeros(0, dtype=np.uint8)
            for step, size in enumerate(chunks):
                chunk = rng.integers(0, 2, size, dtype=np.uint8)
                stream.push(chunk)
                pushed = np.concatenate([pushed, chunk])
                tails = {}
                for pending in sorted({0, 1, 63, 64, 65, n - 1}):
                    if pending > stream.bits_stored:
                        continue
                    bits = stream.window_matrix(pending).row(0)
                    assert np.array_equal(bits, pushed[pushed.size - pending :])
                    tails[str(pending)] = bit_string(bits)
                cases.append(
                    {
                        "n": n,
                        "schedule": name,
                        "pushes": list(chunks[: step + 1]),
                        "state": encode_state(stream.state_dict()),
                        "tails": tails,
                    }
                )
    lines = ",\n".join(json.dumps(case) for case in cases)
    (out / "v1_ring_tails.json").write_text('{"cases": [\n' + lines + "\n]}\n")


if __name__ == "__main__":
    main()
