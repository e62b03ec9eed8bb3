"""Framed binary serialization: bijectivity, integrity, params binding."""

import dataclasses
import struct

import numpy as np
import pytest

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import serial
from pkeet.errors import FramingError, ParamsMismatch
from pkeet.params import ParamsRing, derive_ring_params
from pkeet.ring import encode_message, get_context
from pkeet.trapdoor_ring import RingTrapdoor
from conftest import seeded


@pytest.fixture(scope="module")
def ring_objects(ring_small):
    rng = seeded("serial-ring")
    pk, sk = pr.setup(ring_small, rng)
    msg = encode_message(rng.uniform_mod(2, ring_small.n), get_context(ring_small))
    ct = pr.encrypt(pk, msg, ring_small, rng)
    td = pr.trapdoor(sk, pk)
    return {"params": ring_small, "msg": msg,
            serial.KIND_PK: pk, serial.KIND_SK: sk,
            serial.KIND_CT: ct, serial.KIND_TD: td}


@pytest.fixture(scope="module")
def int_objects(int_small):
    rng = seeded("serial-int")
    pk, sk = pi.setup_int(int_small, rng)
    msg = rng.uniform_mod(2, int_small.t_msg)
    ct = pi.encrypt_int(pk, msg, int_small, rng)
    td = pi.trapdoor_int(sk, pk)
    return {"params": int_small, "msg": msg,
            serial.KIND_PK: pk, serial.KIND_SK: sk,
            serial.KIND_CT: ct, serial.KIND_TD: td}


KINDS = (serial.KIND_PK, serial.KIND_SK, serial.KIND_CT, serial.KIND_TD)


def test_ring_frames_are_bijective(ring_objects):
    params = ring_objects["params"]
    for kind in KINDS:
        blob = serial.encode_object(serial.SCHEME_RING, kind, ring_objects[kind], params)
        scheme2, kind2, params2, obj = serial.decode_object(blob, expect_kind=kind)
        assert (scheme2, kind2) == (serial.SCHEME_RING, kind)
        assert params2.canonical_text() == params.canonical_text()
        assert serial.encode_object(serial.SCHEME_RING, kind, obj, params2) == blob


def test_int_frames_are_bijective(int_objects):
    params = int_objects["params"]
    for kind in KINDS:
        blob = serial.encode_object(serial.SCHEME_INT, kind, int_objects[kind], params)
        _, _, params2, obj = serial.decode_object(blob, expect_kind=kind)
        assert serial.encode_object(serial.SCHEME_INT, kind, obj, params2) == blob


def test_decoded_ring_objects_still_work(ring_objects):
    params = ring_objects["params"]
    rng = seeded("serial-ring-use")

    def cycle(kind, obj):
        blob = serial.encode_object(serial.SCHEME_RING, kind, obj, params)
        return serial.decode_object(blob, expect_kind=kind)[3]

    pk = cycle(serial.KIND_PK, ring_objects[serial.KIND_PK])
    sk = cycle(serial.KIND_SK, ring_objects[serial.KIND_SK])
    ct = cycle(serial.KIND_CT, ring_objects[serial.KIND_CT])
    td = cycle(serial.KIND_TD, ring_objects[serial.KIND_TD])
    assert pr.decrypt(pk, sk, ct, params, rng) == ring_objects["msg"]
    assert pr.test(td, td, ct, ring_objects[serial.KIND_CT], params, rng) == 1


def test_decoded_int_objects_still_work(int_objects):
    params = int_objects["params"]
    rng = seeded("serial-int-use")

    def cycle(kind, obj):
        blob = serial.encode_object(serial.SCHEME_INT, kind, obj, params)
        return serial.decode_object(blob, expect_kind=kind)[3]

    pk = cycle(serial.KIND_PK, int_objects[serial.KIND_PK])
    sk = cycle(serial.KIND_SK, int_objects[serial.KIND_SK])
    ct = cycle(serial.KIND_CT, int_objects[serial.KIND_CT])
    assert np.array_equal(
        pi.decrypt_int(pk, sk, ct, params, rng), int_objects["msg"]
    )


def test_corrupt_frames_rejected(ring_objects):
    params = ring_objects["params"]
    blob = serial.encode_object(
        serial.SCHEME_RING, serial.KIND_PK, ring_objects[serial.KIND_PK], params
    )
    mutations = {
        "magic": b"JUNK" + blob[4:],
        "version": blob[:4] + bytes([blob[4] ^ 0xFF]) + blob[5:],
        "scheme": blob[:5] + bytes([9]) + blob[6:],
        "kind": blob[:6] + bytes([77]) + blob[7:],
        "digest": blob[:7] + bytes([blob[7] ^ 1]) + blob[8:],
        "truncated": blob[:-3],
        "trailing": blob + b"\x00\x01",
        "empty": b"",
        "short-header": blob[:10],
    }
    for label, bad in mutations.items():
        with pytest.raises(FramingError):
            serial.decode_object(bad)


def test_kind_expectation_enforced(ring_objects):
    params = ring_objects["params"]
    blob = serial.encode_object(
        serial.SCHEME_RING, serial.KIND_PK, ring_objects[serial.KIND_PK], params
    )
    with pytest.raises(FramingError):
        serial.decode_object(blob, expect_kind=serial.KIND_CT)


def test_params_text_tamper_rejected(ring_objects):
    params = ring_objects["params"]
    blob = bytearray(
        serial.encode_object(
            serial.SCHEME_RING, serial.KIND_PK, ring_objects[serial.KIND_PK], params
        )
    )
    # The canonical parameter text starts right after the fixed header and
    # the 4-byte text length; flip one character inside it.
    offset = 23 + 4 + 10
    blob[offset] ^= 0x01
    with pytest.raises(FramingError):
        serial.decode_object(bytes(blob))


def test_params_frame_round_trip(ring_objects, int_objects):
    for scheme, objs in (
        (serial.SCHEME_RING, ring_objects),
        (serial.SCHEME_INT, int_objects),
    ):
        params = objs["params"]
        blob = serial.encode_object(scheme, serial.KIND_PARAMS, None, params)
        _, _, decoded, _ = serial.decode_object(blob, expect_kind=serial.KIND_PARAMS)
        assert decoded.canonical_text() == params.canonical_text()


def respelled_frame(params, lambda_sec: str) -> bytes:
    """A parameter frame whose embedded text spells ``lambda_sec`` (128 in
    every fixture) as given; header digest and lengths are valid."""
    scheme = serial.SCHEME_RING if isinstance(params, ParamsRing) else serial.SCHEME_INT
    text = params.canonical_text().replace("lambda_sec=128\n", f"lambda_sec={lambda_sec}\n")
    payload = struct.pack("<I", len(text.encode())) + text.encode()
    header = serial._HEADER.pack(
        serial.MAGIC, serial.VERSION, scheme, serial.KIND_PARAMS, params.digest(), len(payload)
    )
    return header + payload


# Both spellings parse to 128 with int(), so only a byte comparison with the
# canonical text tells them apart.
RESPELLINGS = ("0_128", "0128")


def test_non_canonical_parameter_text_rejected(ring_small, int_small):
    for params in (ring_small, int_small):
        assert serial.decode_object(respelled_frame(params, "128"))[3] == params
        for spelling in RESPELLINGS:
            with pytest.raises(FramingError, match="canonical"):
                serial.decode_object(respelled_frame(params, spelling))


def test_require_same_params(ring_small, ring_toy):
    serial.require_same_params(ring_small, ring_small)
    with pytest.raises(ParamsMismatch):
        serial.require_same_params(ring_small, ring_toy)


def _add_to_word(blob: bytes, offset: int, delta: int) -> bytes:
    """Add ``delta`` to the little-endian int64 word at ``offset``."""
    word = int.from_bytes(blob[offset:offset + 8], "little", signed=True) + delta
    return blob[:offset] + word.to_bytes(8, "little", signed=True) + blob[offset + 8:]


def test_non_canonical_values_rejected(ring_objects, int_objects):
    # A residue plus q is the same value mod q in a different byte string.
    for scheme, objs in ((serial.SCHEME_RING, ring_objects), (serial.SCHEME_INT, int_objects)):
        params = objs["params"]
        blob = serial.encode_object(scheme, serial.KIND_CT, objs[serial.KIND_CT], params)
        for delta in (params.q, -params.q):
            with pytest.raises(FramingError):
                serial.decode_object(_add_to_word(blob, len(blob) - 8, delta))
    # An entry of R beyond the sampler's tail cut, in both directions.
    params = int_objects["params"]
    bound = int(params.t_tail * params.sigma_r)
    blob = serial.encode_object(serial.SCHEME_INT, serial.KIND_SK, int_objects[serial.KIND_SK], params)
    first = 23 + 4 + len(params.canonical_text().encode())
    entry = int.from_bytes(blob[first:first + 8], "little", signed=True)
    for value in (bound + 1, -bound - 1):
        with pytest.raises(FramingError):
            serial.decode_object(_add_to_word(blob, first, value - entry))


def test_ring_trapdoor_beyond_tail_rejected(ring_objects):
    # An entry of T one past the sampler's tail bound, in both directions,
    # as the first word of a secret key and of a trapdoor token.
    params = ring_objects["params"]
    bound = int(params.t_tail * params.sigma_trap)
    first = 23 + 4 + len(params.canonical_text().encode())
    for kind in (serial.KIND_SK, serial.KIND_TD):
        blob = serial.encode_object(serial.SCHEME_RING, kind, ring_objects[kind], params)
        entry = int.from_bytes(blob[first:first + 8], "little", signed=True)
        for value in (bound, params.q - bound):
            serial.decode_object(_add_to_word(blob, first, value - entry))
        for value in (bound + 1, params.q - bound - 1):
            with pytest.raises(FramingError, match="tail bound"):
                serial.decode_object(_add_to_word(blob, first, value - entry))


def test_seeded_ring_keys_within_tail_bound(ring_small):
    for label in ("tail-a", "tail-b", "tail-c"):
        pk, sk = pr.setup(ring_small, seeded(label))
        for kind, obj in ((serial.KIND_SK, sk), (serial.KIND_TD, pr.trapdoor(sk, pk))):
            blob = serial.encode_object(serial.SCHEME_RING, kind, obj, ring_small)
            assert serial.encode_object(
                serial.SCHEME_RING, kind, serial.decode_object(blob)[3], ring_small
            ) == blob


@pytest.mark.parametrize("key", sorted(serial._LAYOUTS))
def test_layout_names_every_field_in_order(key):
    # A field added to a frame class but left out of its layout fails here.
    cls, fields = serial._LAYOUTS[key]
    assert [f.name for f in fields] == [f.name for f in dataclasses.fields(cls)]


def test_encoders_refuse_objects_that_do_not_fit(ring_objects, int_objects):
    params, int_params = ring_objects["params"], int_objects["params"]
    ring_pk, ct = ring_objects[serial.KIND_PK], ring_objects[serial.KIND_CT]
    pk16, _ = pr.setup(derive_ring_params(128, 16, "toy"), seeded("serial-n16"))
    ct3 = ct.ct3.copy()
    ct3[0, 0] = params.q
    sk = ring_objects[serial.KIND_SK]
    t_arr = sk.t_a.t_arr.copy()
    t_arr[0, 0, 0] = int(params.t_tail * params.sigma_trap) + 1
    sk_beyond_tail = pr.SkRing(t_a=RingTrapdoor(t_arr=t_arr, ctx=sk.t_a.ctx), t_b=sk.t_b)
    ring, integer = serial.SCHEME_RING, serial.SCHEME_INT
    cases = [  # (named encoder, scheme, kind, object, params)
        (serial.encode_int_pk, integer, serial.KIND_PK, ring_pk, int_params),
        (serial.encode_ring_pk, ring, serial.KIND_PK, ring_pk, int_params),
        (serial.encode_ring_pk, ring, serial.KIND_PK, pk16, derive_ring_params(128, 32, "toy")),
        (serial.encode_ring_ct, ring, serial.KIND_CT, dataclasses.replace(ct, ct3=ct3), params),
        (serial.encode_ring_sk, ring, serial.KIND_SK, sk_beyond_tail, params),
    ]
    for encoder, scheme, kind, obj, obj_params in cases:
        with pytest.raises(FramingError):
            serial.encode_object(scheme, kind, obj, obj_params)
        with pytest.raises(FramingError):
            encoder(obj, obj_params)
