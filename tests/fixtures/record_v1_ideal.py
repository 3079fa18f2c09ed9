"""Record the stream-1 ``IdealSource`` restore fixture under ``tests/fixtures/``.

Before stream versions existed, ``IdealSource`` had one stream,
``Generator.integers(0, 2)``, and its pickles carry no ``stream_version``.
Such a pickle must keep restoring onto that stream.  This script writes:

* ``v1_ideal_source.pickle`` — an ``IdealSource(seed=SEED)`` pickled after
  ``OFFSET`` bits, an odd count, so a high half-word is pending in its
  generator;
* ``v1_ideal_source.json`` — the seed, the offset, and the SHA-256 of the
  next ``NEXT_BITS`` bits the pickled source produced (as uint8 bytes).

The script only runs against a checkout whose ``IdealSource`` predates
stream versions (commit f9198a2 or earlier)::

    git archive f9198a2 | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/fixtures/record_v1_ideal.py tests/fixtures
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import sys
from pathlib import Path

from repro.trng import IdealSource

SEED = 2015
OFFSET = 1001
NEXT_BITS = 5000


def main(out: Path) -> None:
    if hasattr(IdealSource, "stream_version"):
        sys.exit("IdealSource already has stream versions; record against an older checkout")
    source = IdealSource(seed=SEED)
    source.generate_block(OFFSET)
    blob = pickle.dumps(source, protocol=pickle.DEFAULT_PROTOCOL)
    following = copy.deepcopy(source).generate_block(NEXT_BITS)
    (out / "v1_ideal_source.pickle").write_bytes(blob)
    payload = {
        "seed": SEED,
        "offset": OFFSET,
        "next_bits": NEXT_BITS,
        "next_sha256": hashlib.sha256(following.tobytes()).hexdigest(),
    }
    (out / "v1_ideal_source.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
