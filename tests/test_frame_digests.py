"""Key generation and encryption are pinned to golden frame digests.

Keys, trapdoor tokens and ciphertexts made from fixed seeds must encode to
the same bytes release after release, so any change to a keygen- or
encrypt-side draw, or to its order, fails here.  Decrypt and test draw
their own randomness, which never reaches a frame and is not pinned.
"""

import hashlib
import math

import numpy as np

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import sampling, serial
from pkeet.ring import RingElement, get_context
from conftest import cdt_batch_reference, seeded

RING_N64 = {
    serial.KIND_PK: "bdbee138c3208f63",
    serial.KIND_SK: "b97b06706fdaaa3f",
    serial.KIND_TD: "13007121d81adfb1",
    serial.KIND_CT: "18716cb9ff7a9de3",
}
# The ring CT digest before the wide zero-centered noise (gamma) moved from
# the width-8 convolution to the shared CDF row.
RING_N64_CONVOLVED_CT = "b512cd69d6cd3cb4"
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


def test_ring_ct_moved_only_by_wide_noise(ring_small, monkeypatch):
    # Rebuild the retired width-8 convolution for the draws wider than 32:
    # every other encrypt draw is unchanged, so the old CT frame comes
    # back, and a ciphertext with the old noise still decrypts.
    shared_row = sampling.sample_ring_array

    def convolved(width, count, ctx, rng):
        if width <= 32.0:
            return shared_row(width, count, ctx, rng)
        r = 8.0
        sd_extra = math.sqrt(width * width - r * r) / math.sqrt(2.0 * math.pi)
        shifted = rng.normal(count * ctx.n) * sd_extra
        return cdt_batch_reference(r, shifted, rng, 12.0).reshape(count, ctx.n) % ctx.q

    monkeypatch.setattr(pr, "sample_ring_array", convolved)
    p = ring_small
    objs, message = _ring_pinned_objects(p)
    digests = _digests(serial.SCHEME_RING, objs, p)
    assert digests == {**RING_N64, serial.KIND_CT: RING_N64_CONVOLVED_CT}
    ct = objs[serial.KIND_CT]
    got = pr.decrypt(objs[serial.KIND_PK], objs[serial.KIND_SK], ct, p, seeded("pin-ring-open"))
    assert np.array_equal(got.coeffs, message.coeffs)


def test_int_frames_pinned(int_small):
    p = int_small
    rng = seeded("pin-int")
    pk, sk = pi.setup_int(p, rng)
    ct = pi.encrypt_int(pk, rng.uniform_mod(2, p.t_msg), p, rng)
    objs = {serial.KIND_PK: pk, serial.KIND_SK: sk,
            serial.KIND_TD: pi.trapdoor_int(sk, pk), serial.KIND_CT: ct}
    assert _digests(serial.SCHEME_INT, objs, p) == INT_N16
