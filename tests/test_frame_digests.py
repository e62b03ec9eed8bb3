"""Key generation and encryption are pinned to golden frame digests.

Keys, trapdoor tokens and ciphertexts made from fixed seeds must encode to
the same bytes release after release, so any change to a keygen- or
encrypt-side draw, or to its order, fails here.  Decrypt and test draw
their own randomness, which never reaches a frame and is not pinned.
"""

import hashlib

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import serial
from pkeet.ring import RingElement, get_context
from conftest import seeded

RING_N64 = {
    serial.KIND_PK: "bdbee138c3208f63",
    serial.KIND_SK: "b97b06706fdaaa3f",
    serial.KIND_TD: "13007121d81adfb1",
    serial.KIND_CT: "b512cd69d6cd3cb4",
}
INT_N16 = {
    serial.KIND_PK: "35e5b2db10982c9c",
    serial.KIND_SK: "3065a8ed2a300b7e",
    serial.KIND_TD: "cffb74a62cd3142f",
    serial.KIND_CT: "05644153417b71d9",
}


def _digests(scheme: int, objs: dict, params) -> dict:
    return {
        kind: hashlib.sha256(serial.encode_object(scheme, kind, obj, params)).hexdigest()[:16]
        for kind, obj in objs.items()
    }


def test_ring_frames_pinned(ring_small):
    p = ring_small
    rng = seeded("pin-ring")
    pk, sk = pr.setup(p, rng)
    ct = pr.encrypt(pk, RingElement(rng.uniform_mod(2, p.n), get_context(p)), p, rng)
    objs = {serial.KIND_PK: pk, serial.KIND_SK: sk,
            serial.KIND_TD: pr.trapdoor(sk, pk), serial.KIND_CT: ct}
    assert _digests(serial.SCHEME_RING, objs, p) == RING_N64


def test_int_frames_pinned(int_small):
    p = int_small
    rng = seeded("pin-int")
    pk, sk = pi.setup_int(p, rng)
    ct = pi.encrypt_int(pk, rng.uniform_mod(2, p.t_msg), p, rng)
    objs = {serial.KIND_PK: pk, serial.KIND_SK: sk,
            serial.KIND_TD: pi.trapdoor_int(sk, pk), serial.KIND_CT: ct}
    assert _digests(serial.SCHEME_INT, objs, p) == INT_N16
