"""Framed binary serialization: bijectivity, integrity, params binding,
and the packed body checked bit for bit."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import serial
from pkeet.errors import FramingError, ParamsMismatch
from pkeet.matlattice import gadget_residual
from pkeet.params import ParamsRing, derive_int_params, derive_ring_params
from pkeet.ring import RingElement, get_context
from pkeet.rng import XofRng
from pkeet.trapdoor_ring import RingTrapdoor, apply_tag_shift
from conftest import seeded


@pytest.fixture(scope="module")
def ring_objects(ring_small):
    rng = seeded("serial-ring")
    pk, sk = pr.setup(ring_small, rng)
    msg = RingElement(rng.uniform_mod(2, ring_small.n), get_context(ring_small))
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
        serial.MAGIC, serial.VERSIONS[scheme], scheme, serial.KIND_PARAMS, params.digest(), len(payload)
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


def packed_arrays(blob: bytes) -> list[tuple[int, int, int, int]]:
    """``(offset, count, lo, bits)`` of each packed array of a frame, in
    frame order, from its layout."""
    scheme, kind, params, _ = serial.decode_frame(blob)
    pos = serial._HEADER.size + 4 + len(params.canonical_text().encode())
    out = []
    for f in serial._LAYOUTS[scheme, kind][1]:
        for shape, lo, hi in f.specs(params):
            count, bits = math.prod(shape), (hi - lo - 1).bit_length()
            out.append((pos, count, lo, bits))
            pos += (count * bits + 7) // 8
    return out


def _with_bits(blob: bytes, array: int, start: int, width: int, value: int) -> bytes:
    """``blob`` with bits ``[start, start + width)`` of packed array ``array``
    set to ``value``."""
    pos, count, _, bits = packed_arrays(blob)[array]
    size = (count * bits + 7) // 8
    field = int.from_bytes(blob[pos:pos + size], "little")
    field = field & ~(((1 << width) - 1) << start) | value << start
    return blob[:pos] + field.to_bytes(size, "little") + blob[pos + size:]


def stored(blob: bytes, array: int, index: int) -> int:
    """The value at ``index`` of packed array ``array``, read bit by bit."""
    pos, count, lo, bits = packed_arrays(blob)[array]
    field = int.from_bytes(blob[pos:pos + (count * bits + 7) // 8], "little")
    return (field >> (index * bits) & (1 << bits) - 1) + lo


def with_value(blob: bytes, array: int, index: int, value: int) -> bytes:
    """``blob`` with the value at ``index`` of packed array ``array`` set to
    ``value``, which must fit the array's bit width."""
    _, _, lo, bits = packed_arrays(blob)[array]
    assert 0 <= value - lo < 1 << bits
    return _with_bits(blob, array, index * bits, bits, value - lo)


def with_pad_bit(blob: bytes, array: int) -> bytes:
    """``blob`` with the first pad bit after packed array ``array`` set."""
    _, count, _, bits = packed_arrays(blob)[array]
    assert count * bits % 8, "the array ends on a byte boundary"
    return _with_bits(blob, array, count * bits, 1, 1)


def with_body_length(blob: bytes, delta: int) -> bytes:
    """``blob`` one or more bytes shorter (``delta < 0``) or longer, with the
    header's payload length moved to match."""
    body = blob[:delta] if delta < 0 else blob + bytes(delta)
    header = list(serial._HEADER.unpack_from(blob))
    header[-1] += delta
    return serial._HEADER.pack(*header) + body[serial._HEADER.size:]


def with_version(blob: bytes, version: int) -> bytes:
    return blob[:4] + bytes([version]) + blob[5:]


# Each scheme's previous version, and its token layouts, which also stored
# what the trapdoor determines: ring T, the whole of b, and u; integer R',
# the gadget tail of A', and the seed.
PREVIOUS_VERSIONS = {serial.SCHEME_RING: 2, serial.SCHEME_INT: 3}
PREVIOUS_TOKEN_FIELDS = {
    serial.SCHEME_RING: (serial._Field("t_b", *serial._RING_T),
                         serial._Field("b", *serial._TAGGED),
                         serial._Field("u", serial._RING_POLY)),
    serial.SCHEME_INT: (serial._Field("t_a_prime", *serial._INT_R),
                        serial._Field("a_prime", serial._INT_TAIL),
                        serial._SEED),
}


def previous_frame(scheme: int, kind: int, obj, params) -> bytes:
    """``obj`` as a frame of its scheme's previous version: a pk, sk or ct
    frame differs only in the version byte, a token is in the old layout."""
    if kind != serial.KIND_TD:
        blob = serial.encode_object(scheme, kind, obj, params)
    else:
        values = {f.name: getattr(obj, f.name) for f in PREVIOUS_TOKEN_FIELDS[scheme]}
        if scheme == serial.SCHEME_INT:
            values["a_prime"] = obj.a_prime[:, params.m_bar:]
        body = serial._pack_fields(PREVIOUS_TOKEN_FIELDS[scheme], values, params)
        blob = serial.encode_frame(scheme, kind, params, body)
    return with_version(blob, PREVIOUS_VERSIONS[scheme])


# Faults of an integer pk frame, which ends with the tail of A' and the
# 32-byte seed; a token frame ends with R' and the seed, and meets the
# seed faults only.
SEED_FAULTS = ("seed-short", "tail-q", "tail-pad-bit", "version-2")
TAIL_FAULTS = ("tail-q", "tail-pad-bit")


def with_seed_fault(blob: bytes, fault: str) -> bytes:
    """``blob`` with a truncated seed, the first value of the A' tail set to
    q, the first pad bit after that tail set, or version byte 2."""
    tail = len(packed_arrays(blob)) - 2
    if fault == "seed-short":
        return with_body_length(blob, -16)
    if fault == "tail-q":
        return with_value(blob, tail, 0, serial.decode_frame(blob)[2].q)
    if fault == "tail-pad-bit":
        return with_pad_bit(blob, tail)
    return with_version(blob, 2)


def _reference_pack(values: list[int], bits: int) -> bytes:
    """Values as one little-endian bit string: a Python-int accumulator."""
    acc = 0
    for i, v in enumerate(values):
        acc |= v << (i * bits)
    return acc.to_bytes((len(values) * bits + 7) // 8, "little")


# Trapdoor entries take 7 bits, residues 28 (integer n=16), 47 (ring n=256)
# and at most 52 (moduli below the 2^52 cap); 57 is the widest width whose
# values fit one 8-byte window at every bit offset, which an odd width
# meets.  1 and 3 bits take 1- and 2-byte windows.
@pytest.mark.parametrize("bits", [1, 3, 7, 28, 47, 52, 56, 57])
@pytest.mark.parametrize("count", [1, 5, 13, 63, 100, 1001])
def test_packer_matches_bit_string_reference(bits, count):
    values = seeded(f"pack-{bits}-{count}").u64(count) >> np.uint64(64 - bits)
    values[: min(count, 2)] = ((1 << bits) - 1, 0)[: min(count, 2)]
    packed = serial._pack(values, 0, bits)
    assert packed == _reference_pack(values.tolist(), bits)
    assert np.array_equal(serial._unpack(packed, 0, count, bits), values.astype(np.int64))


@pytest.mark.parametrize("bits", [58, 61, 64])
def test_packer_refuses_widths_over_57_bits(bits):
    # Past 57 bits a value at some bit offset overruns an 8-byte window, so
    # every wider width is refused, even one (58, 64) whose offsets fit.
    with pytest.raises(FramingError, match="8-byte window"):
        serial._pack(np.zeros(8, dtype=np.uint64), 0, bits)
    with pytest.raises(FramingError, match="8-byte window"):
        serial._unpack(bytes(bits), 0, 8, bits)


@pytest.mark.parametrize("bits", [3, 7, 47])
def test_unpacker_refuses_nonzero_pad_bits(bits):
    count = 5
    packed = serial._pack(np.arange(count, dtype=np.uint64), 0, bits)
    for pad in range(count * bits, 8 * len(packed)):
        bad = (int.from_bytes(packed, "little") | 1 << pad).to_bytes(len(packed), "little")
        with pytest.raises(FramingError, match="pad bits"):
            serial._unpack(bad, 0, count, bits)


def test_nonzero_pad_bits_rejected():
    # At n=21 (k=29, m=1218), c3, c4 and u end mid-byte (2m and m values of 29 bits).
    params = derive_int_params(128, 21, "toy")
    rng = seeded("serial-pad")
    pk, _ = pi.setup_int(params, rng)
    ct = pi.encrypt_int(pk, rng.uniform_mod(2, params.t_msg), params, rng)
    blob = serial.encode_object(serial.SCHEME_INT, serial.KIND_CT, ct, params)
    assert serial.decode_object(blob)[3].c3.shape == (2 * 1218,)
    for array in (2, 3, 4):
        with pytest.raises(FramingError, match="pad bits"):
            serial.decode_object(with_pad_bit(blob, array))


def test_frame_sizes_follow_the_layout(ring_objects, int_objects):
    # Residues take ceil(log2 q) bits, trapdoor entries the bits of their
    # range, and the 32 bytes of an integer pk's or td's seed 8 bits each.
    for scheme, objs in ((serial.SCHEME_RING, ring_objects), (serial.SCHEME_INT, int_objects)):
        params = objs["params"]
        for kind in KINDS:
            blob = serial.encode_object(scheme, kind, objs[kind], params)
            arrays = packed_arrays(blob)
            pos, count, lo, bits = arrays[-1]
            assert len(blob) == pos + (count * bits + 7) // 8
            seeded = scheme == serial.SCHEME_INT and kind in (serial.KIND_PK, serial.KIND_TD)
            if seeded:
                assert arrays.pop() == (pos, 32, 0, 8)
            for _, _, lo, bits in arrays:
                assert bits == ((params.q - 1).bit_length() if lo == 0 else 7)


def _trapdoor_frames(objs: dict, scheme: int, width: str):
    """(sk frame, tail bound) and (td frame, tail bound): both open with a
    trapdoor array whose entries lie within ``floor(t_tail * width)``."""
    params = objs["params"]
    bound = math.floor(params.t_tail * getattr(params, width))
    for kind in (serial.KIND_SK, serial.KIND_TD):
        yield serial.encode_object(scheme, kind, objs[kind], params), bound


def _assert_first_entry_bounded(blob: bytes, bound: int) -> None:
    # -bound is stored as 0, so only the upper side has room for a value
    # past the bound.
    for value in (bound, -bound):
        edge = with_value(blob, 0, 0, value)
        scheme, kind, params, obj = serial.decode_object(edge)
        assert serial.encode_object(scheme, kind, obj, params) == edge
    with pytest.raises(FramingError, match="canonical range"):
        serial.decode_object(with_value(blob, 0, 0, bound + 1))


def test_non_canonical_values_rejected(ring_objects, int_objects):
    # A residue field holding a value from q to 2^k - 1.
    for scheme, objs in ((serial.SCHEME_RING, ring_objects), (serial.SCHEME_INT, int_objects)):
        params = objs["params"]
        blob = serial.encode_object(scheme, serial.KIND_CT, objs[serial.KIND_CT], params)
        last, count = len(packed_arrays(blob)) - 1, packed_arrays(blob)[-1][1]
        for value in (params.q, (1 << params.q.bit_length()) - 1):
            with pytest.raises(FramingError, match="canonical range"):
                serial.decode_object(with_value(blob, last, count - 1, value))
    # An entry of R one past the sampler's tail cut.
    for blob, bound in _trapdoor_frames(int_objects, serial.SCHEME_INT, "sigma_r"):
        _assert_first_entry_bounded(blob, bound)


def test_ring_trapdoor_beyond_tail_rejected(ring_objects):
    # T is stored signed, as R is: an entry one past the tail bound fails.
    for blob, bound in _trapdoor_frames(ring_objects, serial.SCHEME_RING, "sigma_trap"):
        _assert_first_entry_bounded(blob, bound)


def test_ring_trapdoor_stored_signed(ring_objects):
    # The first entry of T is stored and decoded as the signed value it holds.
    params = ring_objects["params"]
    sk = ring_objects[serial.KIND_SK]
    blob = serial.encode_object(serial.SCHEME_RING, serial.KIND_SK, sk, params)
    assert stored(blob, 0, 0) == sk.t_a.t_arr[0, 0, 0]
    for value in (-1, 1):
        obj = serial.decode_object(with_value(blob, 0, 0, value))[3]
        assert obj.t_a.t_arr[0, 0, 0] == value


def test_body_one_byte_off_rejected(ring_objects, int_objects):
    for scheme, objs in ((serial.SCHEME_RING, ring_objects), (serial.SCHEME_INT, int_objects)):
        params = objs["params"]
        for kind in KINDS:
            blob = serial.encode_object(scheme, kind, objs[kind], params)
            with pytest.raises(FramingError, match="shorter"):
                serial.decode_object(with_body_length(blob, -1))
            with pytest.raises(FramingError, match="longer"):
                serial.decode_object(with_body_length(blob, 1))


def test_version_one_frames_rejected(ring_objects, int_objects):
    for scheme, objs in ((serial.SCHEME_RING, ring_objects), (serial.SCHEME_INT, int_objects)):
        blob = serial.encode_object(scheme, serial.KIND_CT, objs[serial.KIND_CT], objs["params"])
        with pytest.raises(FramingError, match="unsupported version 1"):
            serial.decode_object(with_version(blob, 1))


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


def test_loaded_int_keys_are_still_trapdoors(int_objects):
    params = int_objects["params"]
    pk, sk, td = (
        serial.decode_object(serial.encode_object(serial.SCHEME_INT, kind, int_objects[kind], params))[3]
        for kind in (serial.KIND_PK, serial.KIND_SK, serial.KIND_TD)
    )
    assert not gadget_residual(pk.a, sk.t_a.r, params.q).any()
    assert not gadget_residual(pk.a_prime, sk.t_a_prime.r, params.q).any()
    assert np.array_equal(td.a_prime, pk.a_prime) and td.seed == pk.seed
    # Each uniform family from its own labelled fork of the seed's stream.
    root = XofRng(pk.seed)

    def fresh(label: bytes, *shape: int) -> np.ndarray:
        return root.fork(label).uniform_mod(params.q, math.prod(shape)).reshape(shape)

    n, m = params.n, params.m
    assert np.array_equal(pk.a[:, : params.m_bar], fresh(b"A", n, params.m_bar))
    assert np.array_equal(pk.a_prime[:, : params.m_bar], fresh(b"A'", n, params.m_bar))
    for obj in (pk, td):
        assert np.array_equal(np.stack(obj.a_list), fresh(b"A_i", params.l, n, m))
        assert np.array_equal(obj.b, fresh(b"B", n, m))
        assert np.array_equal(obj.u, fresh(b"U", n, params.t_msg))


def test_encoders_refuse_objects_that_disagree_with_their_seed(int_objects):
    params = int_objects["params"]
    pk, td = int_objects[serial.KIND_PK], int_objects[serial.KIND_TD]

    def bumped(arr: np.ndarray, row: int = 0, col: int = 0) -> np.ndarray:
        out = arr.copy()
        out[row, col] = (out[row, col] + 1) % params.q
        return out

    other = pi.setup_int(params, seeded("serial-other-seed"))[0]
    cases = [
        (serial.KIND_PK, dataclasses.replace(pk, b=bumped(pk.b))),
        (serial.KIND_PK, dataclasses.replace(pk, u=bumped(pk.u))),
        (serial.KIND_PK, dataclasses.replace(pk, a_list=[bumped(pk.a_list[0]), *pk.a_list[1:]])),
        (serial.KIND_PK, dataclasses.replace(pk, a_list=pk.a_list[:-1])),
        (serial.KIND_PK, dataclasses.replace(pk, a=bumped(pk.a))),
        (serial.KIND_PK, dataclasses.replace(pk, a_prime=bumped(pk.a_prime, col=params.m_bar - 1))),
        (serial.KIND_PK, dataclasses.replace(pk, seed=other.seed)),
        (serial.KIND_PK, dataclasses.replace(pk, seed=pk.seed[:-1])),
        (serial.KIND_TD, dataclasses.replace(td, b=bumped(td.b))),
        (serial.KIND_TD, dataclasses.replace(td, a_prime=bumped(td.a_prime))),
        (serial.KIND_TD, dataclasses.replace(td, seed=other.seed)),
    ]
    for kind, obj in cases:
        with pytest.raises(FramingError):
            serial.encode_object(serial.SCHEME_INT, kind, obj, params)
    # A change to a stored gadget tail is a different key, not a mismatch.
    tail = dataclasses.replace(pk, a=bumped(pk.a, col=params.m_bar))
    blob = serial.encode_object(serial.SCHEME_INT, serial.KIND_PK, tail, params)
    assert np.array_equal(serial.decode_object(blob)[3].a, tail.a)


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
    int_sk = int_objects[serial.KIND_SK]
    r_fraction = dataclasses.replace(int_sk.t_a, r=int_sk.t_a.r + 0.5)
    ring, integer = serial.SCHEME_RING, serial.SCHEME_INT
    cases = [  # (named encoder, scheme, kind, object, params)
        (serial.encode_int_pk, integer, serial.KIND_PK, ring_pk, int_params),
        (serial.encode_ring_pk, ring, serial.KIND_PK, ring_pk, int_params),
        (serial.encode_ring_pk, ring, serial.KIND_PK, pk16, derive_ring_params(128, 32, "toy")),
        (serial.encode_ring_ct, ring, serial.KIND_CT, dataclasses.replace(ct, ct3=ct3), params),
        (serial.encode_ring_sk, ring, serial.KIND_SK, sk_beyond_tail, params),
        (serial.encode_int_sk, integer, serial.KIND_SK,
         dataclasses.replace(int_sk, t_a=r_fraction), int_params),
    ]
    for encoder, scheme, kind, obj, obj_params in cases:
        with pytest.raises(FramingError):
            serial.encode_object(scheme, kind, obj, obj_params)
        with pytest.raises(FramingError):
            encoder(obj, obj_params)


@pytest.mark.parametrize(
    "scheme,kind,field,value",
    [
        (serial.SCHEME_RING, serial.KIND_PK, "a", None),
        (serial.SCHEME_RING, serial.KIND_TD, "t_b", None),
        (serial.SCHEME_RING, serial.KIND_SK, "t_a", "x"),
        (serial.SCHEME_INT, serial.KIND_SK, "t_a", None),
        (serial.SCHEME_INT, serial.KIND_PK, "a_list", None),
    ],
    ids=["ring-pk-a", "ring-td-t_b", "ring-sk-t_a", "int-sk-t_a", "int-pk-a_list"],
)
def test_encoders_refuse_fields_of_the_wrong_type(ring_objects, int_objects, scheme, kind, field, value):
    objects = ring_objects if scheme == serial.SCHEME_RING else int_objects
    obj = dataclasses.replace(objects[kind], **{field: value})
    with pytest.raises(FramingError, match=field):
        serial.encode_object(scheme, kind, obj, objects["params"])


def test_previous_version_frames_rejected(ring_objects, int_objects):
    for scheme, objs in ((serial.SCHEME_RING, ring_objects), (serial.SCHEME_INT, int_objects)):
        previous = PREVIOUS_VERSIONS[scheme]
        assert serial.VERSIONS[scheme] == previous + 1
        for kind in KINDS:
            blob = previous_frame(scheme, kind, objs[kind], objs["params"])
            with pytest.raises(FramingError, match=f"unsupported version {previous}"):
                serial.decode_object(blob)


def test_token_frames_store_no_field_their_trapdoor_determines(ring_objects, int_objects):
    # Ring: T, the head of b and u; integer: R' and the seed.
    params = ring_objects["params"]
    blob = serial.encode_object(serial.SCHEME_RING, serial.KIND_TD, ring_objects[serial.KIND_TD], params)
    assert [count for _, count, _, _ in packed_arrays(blob)] == [
        params.base_len * params.k * params.n, params.base_len * params.n, params.n]
    params = int_objects["params"]
    blob = serial.encode_object(serial.SCHEME_INT, serial.KIND_TD, int_objects[serial.KIND_TD], params)
    assert [count for _, count, _, _ in packed_arrays(blob)] == [
        params.m_bar * params.n * params.k, 32]


def test_decoded_tokens_equal_the_encoded_ones(ring_objects, int_objects):
    params = ring_objects["params"]
    td = ring_objects[serial.KIND_TD]
    got = serial.decode_object(serial.encode_object(serial.SCHEME_RING, serial.KIND_TD, td, params))[3]
    assert np.array_equal(got.b.vec_hat, td.b.vec_hat) and not got.b.tag_hat.any()
    assert np.array_equal(got.t_b.t_arr, td.t_b.t_arr) and np.array_equal(got.u, td.u)
    # Decoding rebuilds b from T_b's NTT, which stays cached for the test;
    # b's coefficient form waits until the token is encoded again.
    assert got.t_b._t_hat is not None and got.b._vec is None
    params = int_objects["params"]
    td = int_objects[serial.KIND_TD]
    got = serial.decode_object(serial.encode_object(serial.SCHEME_INT, serial.KIND_TD, td, params))[3]
    assert np.array_equal(got.a_prime, td.a_prime) and got.seed == td.seed
    assert np.array_equal(got.t_a_prime.r, td.t_a_prime.r)


def test_reencoding_a_decoded_ring_token_transforms_only_its_head(ring_objects, monkeypatch):
    params = ring_objects["params"]
    blob = serial.encode_object(serial.SCHEME_RING, serial.KIND_TD, ring_objects[serial.KIND_TD], params)
    td = serial.decode_object(blob)[3]
    ctx = get_context(params)
    rows, intt = [], ctx.intt

    def counted(evals):
        rows.append(np.shape(evals)[0])
        return intt(evals)

    monkeypatch.setattr(ctx, "intt", counted)
    assert serial.encode_object(serial.SCHEME_RING, serial.KIND_TD, td, params) == blob
    assert rows == [params.base_len]


def test_ring_token_encoder_refuses_a_b_its_trapdoor_does_not_open(ring_objects):
    params = ring_objects["params"]
    td = ring_objects[serial.KIND_TD]
    other, _ = pr.setup(params, seeded("serial-other-ring-key"))
    shift = np.zeros(params.n, dtype=np.int64)
    shift[0] = 1
    for b in (other.b, apply_tag_shift(td.b, get_context(params).ntt(shift))):
        with pytest.raises(FramingError, match="zero-tag completion"):
            serial.encode_object(serial.SCHEME_RING, serial.KIND_TD, dataclasses.replace(td, b=b), params)


def test_int_token_encoder_refuses_a_prime_its_trapdoor_does_not_open(int_objects):
    params = int_objects["params"]
    td = int_objects[serial.KIND_TD]
    a_prime = td.a_prime.copy()
    a_prime[0, params.m_bar] = (a_prime[0, params.m_bar] + 1) % params.q
    with pytest.raises(FramingError, match="gadget completion"):
        serial.encode_object(serial.SCHEME_INT, serial.KIND_TD, dataclasses.replace(td, a_prime=a_prime), params)


def test_int_token_shares_the_public_key_arrays(int_objects):
    pk, td = int_objects[serial.KIND_PK], int_objects[serial.KIND_TD]
    assert np.shares_memory(td.a_prime, pk.a_prime)
    assert np.shares_memory(td.b, pk.b) and np.shares_memory(td.u, pk.u)
    assert all(np.shares_memory(x, y) for x, y in zip(td.a_list, pk.a_list))
