"""Version-1 streaming rings decode to the tails the streaming contexts served.

``tests/fixtures/v1_ring_tails.json`` was recorded by
``tests/fixtures/record_v1_ring_tails.py`` on the last build with the
streaming contexts (see its docstring): real ring captures after mixed
push schedules, with the trailing bits ``window_matrix`` gave for each
pending count.  A v1 streaming snapshot's device tail must decode to the
same bits, and a malformed ring must be refused.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.durability import decode_state
from repro.fleet.scheduler import _stored_tail

FIXTURE = Path(__file__).parent / "fixtures" / "v1_ring_tails.json"
CASES = json.loads(FIXTURE.read_text())["cases"]


def bits_of(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def spec(ring, pending):
    return {"context": ring, "pending": pending, "last_seq": None}


def test_fixture_covers_wrapped_and_unaligned_rings():
    rings = [decode_state(case["state"]) for case in CASES]
    assert {case["n"] for case in CASES} == {128, 1024}
    assert any(ring["committed"] > 2 * ring["words"].shape[1] for ring in rings)
    assert any(ring["tail_len"] for ring in rings)
    assert any(ring["tail_len"] == 0 for ring in rings)
    pendings = {int(p) for case in CASES for p in case["tails"]}
    assert {0, 1, 63, 64, 65, 127, 1023} <= pendings


@pytest.mark.parametrize(
    "case", CASES, ids=[f"n{c['n']}-{c['schedule']}-{len(c['pushes'])}" for c in CASES]
)
def test_stored_tail_decodes_the_recorded_ring(case):
    ring = decode_state(case["state"])
    for pending, expected in case["tails"].items():
        tail = _stored_tail(spec(ring, int(pending)))
        assert tail.dtype == np.uint8
        np.testing.assert_array_equal(tail, bits_of(expected))


def _ring():
    case = next(c for c in CASES if c["n"] == 128 and c["state"]["tail_len"])
    return decode_state(case["state"])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda ring: ring.update(version=2),
        lambda ring: ring.pop("version"),
        lambda ring: ring.update(words=ring["words"][:, :1]),
        lambda ring: ring.update(words=np.vstack([ring["words"], ring["words"]])),
        lambda ring: ring.update(words=ring["words"].ravel()),
    ],
    ids=["version-2", "no-version", "short-ring", "two-rows", "flat-ring"],
)
def test_malformed_ring_is_refused(mutate):
    ring = copy.deepcopy(_ring())
    mutate(ring)
    with pytest.raises(ValueError):
        _stored_tail(spec(ring, 1))


@pytest.mark.parametrize(
    "young, limit", [(True, "total_bits"), (False, "capacity_bits")], ids=["stream", "capacity"]
)
def test_pending_beyond_the_stream_or_the_capacity_is_refused(young, limit):
    # A young ring holds fewer bits than its capacity; an old one, its capacity.
    ring = next(
        ring
        for ring in map(decode_state, (case["state"] for case in CASES))
        if (ring["total_bits"] < ring["capacity_bits"]) == young
    )
    assert len(_stored_tail(spec(ring, ring[limit]))) == ring[limit]
    with pytest.raises(ValueError):
        _stored_tail(spec(ring, ring[limit] + 1))
