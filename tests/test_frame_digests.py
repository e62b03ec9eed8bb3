"""Key generation and encryption are pinned to golden frame digests.

Keys, trapdoor tokens and ciphertexts made from fixed seeds must encode to
the same bytes release after release, so any change to a keygen- or
encrypt-side draw, or to its order, fails here.  Decrypt and test draw
their own randomness, which never reaches a frame and is not pinned.

The digests are of ring version-3 and integer version-4 frames, whose
tokens store no field their trapdoor determines.  The same objects written
as frames of the previous version (version byte set back, tokens in the
old layout) still hash to the ``_V2`` and ``_V3`` digests, so that move
changed the encoding and nothing else.  Ring objects written in the
version-1 layout, one 8-byte word per value and ring ``T`` as residues,
still hash to the version-1 digests, so the move to packing did the same.
The integer version-3 frames came with keys that expand their uniform
matrices from a public seed, which changed integer key generation, so the
integer objects have no earlier frames to compare with.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import sampling, serial
from pkeet.ring import RingElement, get_context
from conftest import cdt_batch_reference, seeded
from test_serial import PREVIOUS_TOKEN_FIELDS, previous_frame

RING_N64 = {
    serial.KIND_PK: "a64f7950413a9719",
    serial.KIND_SK: "e881ab64c6b78ce3",
    serial.KIND_TD: "017143a6c9b7e8de",
    serial.KIND_CT: "21799e3c39d6d38d",
}
INT_N16 = {
    serial.KIND_PK: "c35b2e679a7a8e54",
    serial.KIND_SK: "0e8aaa84b27c3995",
    serial.KIND_TD: "9c880b454254dd46",
    serial.KIND_CT: "1ca60e19b7036b3a",
}

# The same frames at the previous version.
RING_N64_V2 = {
    serial.KIND_PK: "9938c843a6009bb7",
    serial.KIND_SK: "d05bc0585584d088",
    serial.KIND_TD: "5e97525ca87f8050",
    serial.KIND_CT: "9744888cfac82f25",
}
# The version-2 ring CT digest before the wide zero-centered noise (gamma)
# moved from the width-8 convolution to the shared CDF row.
RING_N64_CONVOLVED_CT = "77152acd61fd1dcd"
INT_N16_V3 = {
    serial.KIND_PK: "8a48e0f70476b662",
    serial.KIND_SK: "a39551ae3e0330d6",
    serial.KIND_TD: "c9b15f4377c7d36b",
    serial.KIND_CT: "ec3c0ee665bb3281",
}

# The same frames in the version-1 layout.
RING_N64_V1 = {
    serial.KIND_PK: "bdbee138c3208f63",
    serial.KIND_SK: "b97b06706fdaaa3f",
    serial.KIND_TD: "13007121d81adfb1",
    serial.KIND_CT: "18716cb9ff7a9de3",
}
RING_N64_CONVOLVED_CT_V1 = "b512cd69d6cd3cb4"


def _digests(scheme: int, objs: dict, params) -> dict:
    return {
        kind: hashlib.sha256(serial.encode_object(scheme, kind, obj, params)).hexdigest()[:16]
        for kind, obj in objs.items()
    }


def _previous_digests(scheme: int, objs: dict, params) -> dict:
    """Digests of ``objs`` after a round trip, rewritten at the previous version."""
    out = {}
    for kind, obj in objs.items():
        decoded = serial.decode_object(serial.encode_object(scheme, kind, obj, params), kind)[3]
        out[kind] = hashlib.sha256(previous_frame(scheme, kind, decoded, params)).hexdigest()[:16]
    return out


def _v1_frame(kind: int, obj, params) -> bytes:
    """Ring ``obj`` in the version-1 layout: every value one little-endian
    int64 word, ``T`` as residues in ``[0, q)``, and a token's fields as
    version 2 stored them."""
    words = []
    fields = serial._LAYOUTS[serial.SCHEME_RING, kind][1]
    if kind == serial.KIND_TD:
        fields = PREVIOUS_TOKEN_FIELDS[serial.SCHEME_RING]
    for f in fields:
        for arr, (_, lo, _) in zip(f.take(getattr(obj, f.name)), f.specs(params)):
            if lo < 0:
                arr = arr % params.q
            words.append(np.asarray(arr).astype("<i8").tobytes())
    text = params.canonical_text().encode()
    payload = struct.pack("<I", len(text)) + text + b"".join(words)
    header = serial._HEADER.pack(serial.MAGIC, 1, serial.SCHEME_RING, kind, params.digest(), len(payload))
    return header + payload


def _v1_digests(objs: dict, params) -> dict:
    """Digests of ring ``objs`` after a version-2 round trip, rewritten as version 1."""
    out = {}
    for kind, obj in objs.items():
        decoded = serial.decode_object(serial.encode_object(serial.SCHEME_RING, kind, obj, params), kind)[3]
        out[kind] = hashlib.sha256(_v1_frame(kind, decoded, params)).hexdigest()[:16]
    return out


def _ring_pinned_objects(p):
    rng = seeded("pin-ring")
    pk, sk = pr.setup(p, rng)
    message = RingElement(rng.uniform_mod(2, p.n), get_context(p))
    ct = pr.encrypt(pk, message, p, rng)
    objs = {serial.KIND_PK: pk, serial.KIND_SK: sk,
            serial.KIND_TD: pr.trapdoor(sk, pk), serial.KIND_CT: ct}
    return objs, message


def test_ring_frames_pinned(ring_small):
    objs, _ = _ring_pinned_objects(ring_small)
    assert _digests(serial.SCHEME_RING, objs, ring_small) == RING_N64


@pytest.fixture
def convolved_noise(monkeypatch):
    """Encrypt's draws wider than 32 from the retired width-8 convolution."""
    shared_row = sampling.sample_ring_array

    def convolved(width, count, ctx, rng):
        if width <= 32.0:
            return shared_row(width, count, ctx, rng)
        r = 8.0
        sd_extra = math.sqrt(width * width - r * r) / math.sqrt(2.0 * math.pi)
        shifted = rng.normal(count * ctx.n) * sd_extra
        return cdt_batch_reference(r, shifted, rng, 12.0).reshape(count, ctx.n) % ctx.q

    monkeypatch.setattr(pr, "sample_ring_array", convolved)


def test_ring_ct_moved_only_by_wide_noise(ring_small, convolved_noise):
    # Every encrypt draw other than the wide ones is unchanged, so the old
    # CT frame comes back, and a ciphertext with the old noise still decrypts.
    p = ring_small
    objs, message = _ring_pinned_objects(p)
    digests = _previous_digests(serial.SCHEME_RING, objs, p)
    assert digests == {**RING_N64_V2, serial.KIND_CT: RING_N64_CONVOLVED_CT}
    ct = objs[serial.KIND_CT]
    got = pr.decrypt(objs[serial.KIND_PK], objs[serial.KIND_SK], ct, p, seeded("pin-ring-open"))
    assert np.array_equal(got.coeffs, message.coeffs)


def _int_pinned_objects(p):
    rng = seeded("pin-int")
    pk, sk = pi.setup_int(p, rng)
    ct = pi.encrypt_int(pk, rng.uniform_mod(2, p.t_msg), p, rng)
    return {serial.KIND_PK: pk, serial.KIND_SK: sk,
            serial.KIND_TD: pi.trapdoor_int(sk, pk), serial.KIND_CT: ct}


def test_int_frames_pinned(int_small):
    assert _digests(serial.SCHEME_INT, _int_pinned_objects(int_small), int_small) == INT_N16


def test_frames_moved_only_by_token_layout(ring_small, int_small):
    ring_objs, _ = _ring_pinned_objects(ring_small)
    assert _previous_digests(serial.SCHEME_RING, ring_objs, ring_small) == RING_N64_V2
    int_objs = _int_pinned_objects(int_small)
    assert _previous_digests(serial.SCHEME_INT, int_objs, int_small) == INT_N16_V3


def test_frames_moved_only_by_packing(ring_small):
    ring_objs, _ = _ring_pinned_objects(ring_small)
    assert _v1_digests(ring_objs, ring_small) == RING_N64_V1


def test_convolved_ct_moved_only_by_packing(ring_small, convolved_noise):
    ct = {serial.KIND_CT: _ring_pinned_objects(ring_small)[0][serial.KIND_CT]}
    assert _v1_digests(ct, ring_small) == {serial.KIND_CT: RING_N64_CONVOLVED_CT_V1}
