"""Framed binary serialization for keys, ciphertexts, and trapdoor tokens.

Every file is one frame: a fixed 23-byte header (magic, version, scheme,
kind, parameter digest, payload length) followed by the payload.  The
payload embeds the canonical parameter text, then the object's arrays as
raw little-endian 64-bit integers in a fixed order.  Decoders accept only
canonical values: a parameter text byte-identical to the canonical form
of the record it parses to, residues in ``[0, q)``, entries of an
integer-scheme trapdoor ``R`` (signed, ``m_bar x n*k`` per matrix) within
the tail bound ``floor(t_tail * sigma_r)``, and ring trapdoor ``T``
residues whose balanced values lie within ``floor(t_tail * sigma_trap)``.
So encoding is a bijection: decode(encode(x)) == x, and every frame that
decodes re-encodes to the same bytes.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FramingError, ParamsMismatch, PkeetError
from .matlattice import IntTrapdoor
from .params import ParamsInt, ParamsRing, params_from_text, validate
from .pkeet_int import CtInt, PkInt, SkInt, TrapdoorTokenInt
from .pkeet_ring import CtRing, PkRing, SkRing, TrapdoorTokenRing
from .ring import RingElement, get_context
from .trapdoor_ring import RingTrapdoor, TaggedVector

MAGIC = b"LPKT"
VERSION = 1
SCHEME_RING = 1
SCHEME_INT = 2
KIND_PK = 1
KIND_SK = 2
KIND_CT = 3
KIND_TD = 4
KIND_PARAMS = 5

_HEADER = struct.Struct("<4sBBB8sQ")


def _arrays_bytes(arrays: list[np.ndarray]) -> bytes:
    return b"".join(
        np.ascontiguousarray(a, dtype=np.int64).astype("<i8").tobytes()
        for a in arrays
    )


class _Reader:
    def __init__(self, body: bytes, q: int):
        self.body = body
        self.q = q
        self.pos = 0

    def take(self, shape: tuple[int, ...], lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Next array of ``shape``; every value must lie in ``[lo, hi)``,
        by default the residues ``[0, q)``."""
        hi = self.q if hi is None else hi
        count = int(np.prod(shape))
        nbytes = 8 * count
        if self.pos + nbytes > len(self.body):
            raise FramingError("payload shorter than the declared object")
        arr = np.frombuffer(self.body, dtype="<i8", count=count, offset=self.pos)
        self.pos += nbytes
        if count and (int(arr.min()) < lo or int(arr.max()) >= hi):
            raise FramingError(f"value outside the canonical range [{lo}, {hi})")
        return arr.astype(np.int64).reshape(shape)

    def done(self) -> None:
        if self.pos != len(self.body):
            raise FramingError("payload longer than the declared object")


def encode_frame(scheme: int, kind: int, params, body: bytes) -> bytes:
    text = params.canonical_text().encode()
    payload = struct.pack("<I", len(text)) + text + body
    header = _HEADER.pack(MAGIC, VERSION, scheme, kind, params.digest(), len(payload))
    return header + payload


def decode_frame(data: bytes) -> tuple[int, int, ParamsRing | ParamsInt, bytes]:
    if len(data) < _HEADER.size:
        raise FramingError("file shorter than a frame header")
    magic, version, scheme, kind, digest, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FramingError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FramingError(f"unsupported version {version}")
    payload = data[_HEADER.size :]
    if len(payload) != length:
        raise FramingError(
            f"payload length {len(payload)} does not match header {length}"
        )
    if len(payload) < 4:
        raise FramingError("payload missing the parameter block")
    (text_len,) = struct.unpack_from("<I", payload)
    text = payload[4 : 4 + text_len]
    if len(text) != text_len:
        raise FramingError("parameter block truncated")
    try:
        params = params_from_text(text.decode())
    except (PkeetError, UnicodeDecodeError, ValueError) as exc:
        raise FramingError(f"unreadable parameter block: {exc}") from exc
    if params.canonical_text().encode() != text:
        raise FramingError("parameter block is not in canonical form")
    if params.digest() != digest:
        raise FramingError("parameter digest does not match the embedded record")
    bad = validate(params)
    if bad:
        raise FramingError(f"embedded parameters violate invariants: {bad}")
    expect_scheme = SCHEME_RING if isinstance(params, ParamsRing) else SCHEME_INT
    if scheme != expect_scheme:
        raise FramingError("scheme byte does not match the parameter record")
    return scheme, kind, params, payload[4 + text_len :]


# ---------------------------------------------------------------------------
# Ring scheme codecs
# ---------------------------------------------------------------------------


def _take_ring_t(r: _Reader, params: ParamsRing) -> RingTrapdoor:
    """Next trapdoor ``T``: residues whose balanced values lie within the
    sampler's tail bound, as :func:`_take_int_r` holds ``R`` to it."""
    t_arr = r.take((params.base_len, params.k, params.n))
    bound = math.floor(params.t_tail * params.sigma_trap)
    if ((t_arr > bound) & (t_arr < params.q - bound)).any():
        raise FramingError(f"trapdoor entry beyond the tail bound {bound}")
    return RingTrapdoor(t_arr=t_arr, ctx=get_context(params))


def encode_ring_pk(pk: PkRing, params: ParamsRing) -> bytes:
    body = _arrays_bytes([pk.a.vec, pk.b.vec, pk.u.coeffs])
    return encode_frame(SCHEME_RING, KIND_PK, params, body)


def decode_ring_pk(body: bytes, params: ParamsRing) -> PkRing:
    m, n = params.m, params.n
    r = _Reader(body, params.q)
    a_vec, b_vec, u = r.take((m, n)), r.take((m, n)), r.take((n,))
    r.done()
    ctx = get_context(params)
    return PkRing(
        a=TaggedVector.from_coeffs(a_vec, ctx),
        b=TaggedVector.from_coeffs(b_vec, ctx),
        u=RingElement(u, ctx),
    )


def encode_ring_sk(sk: SkRing, params: ParamsRing) -> bytes:
    body = _arrays_bytes([sk.t_a.t_arr, sk.t_b.t_arr])
    return encode_frame(SCHEME_RING, KIND_SK, params, body)


def decode_ring_sk(body: bytes, params: ParamsRing) -> SkRing:
    r = _Reader(body, params.q)
    t_a, t_b = _take_ring_t(r, params), _take_ring_t(r, params)
    r.done()
    return SkRing(t_a=t_a, t_b=t_b)


def encode_ring_ct(ct: CtRing, params: ParamsRing) -> bytes:
    body = _arrays_bytes(
        [ct.sig, ct.v[0].coeffs, ct.v[1].coeffs, ct.ct1.coeffs, ct.ct2.coeffs, ct.ct3, ct.ct4]
    )
    return encode_frame(SCHEME_RING, KIND_CT, params, body)


def decode_ring_ct(body: bytes, params: ParamsRing) -> CtRing:
    m, n = params.m, params.n
    ctx = get_context(params)
    r = _Reader(body, params.q)
    sig = r.take((params.base_len, n))
    v0, v1 = r.take((n,)), r.take((n,))
    ct1, ct2 = r.take((n,)), r.take((n,))
    ct3, ct4 = r.take((m, n)), r.take((m, n))
    r.done()
    return CtRing(
        sig=sig,
        v=(RingElement(v0, ctx), RingElement(v1, ctx)),
        ct1=RingElement(ct1, ctx),
        ct2=RingElement(ct2, ctx),
        ct3=ct3,
        ct4=ct4,
    )


def encode_ring_td(td: TrapdoorTokenRing, params: ParamsRing) -> bytes:
    body = _arrays_bytes([td.t_b.t_arr, td.b.vec, td.u.coeffs])
    return encode_frame(SCHEME_RING, KIND_TD, params, body)


def decode_ring_td(body: bytes, params: ParamsRing) -> TrapdoorTokenRing:
    r = _Reader(body, params.q)
    t_b = _take_ring_t(r, params)
    b_vec = r.take((params.m, params.n))
    u = r.take((params.n,))
    r.done()
    ctx = get_context(params)
    return TrapdoorTokenRing(
        t_b=t_b,
        b=TaggedVector.from_coeffs(b_vec, ctx),
        u=RingElement(u, ctx),
    )


# ---------------------------------------------------------------------------
# Integer scheme codecs
# ---------------------------------------------------------------------------


def encode_int_pk(pk: PkInt, params: ParamsInt) -> bytes:
    body = _arrays_bytes([pk.a, pk.a_prime, *pk.a_list, pk.b, pk.u])
    return encode_frame(SCHEME_INT, KIND_PK, params, body)


def decode_int_pk(body: bytes, params: ParamsInt) -> PkInt:
    n, m = params.n, params.m
    r = _Reader(body, params.q)
    a = r.take((n, m))
    a_prime = r.take((n, m))
    a_list = [r.take((n, m)) for _ in range(params.l)]
    b = r.take((n, m))
    u = r.take((n, params.t_msg))
    r.done()
    return PkInt(a=a, a_prime=a_prime, a_list=a_list, b=b, u=u)


def _take_int_r(r: _Reader, params: ParamsInt) -> np.ndarray:
    bound = math.floor(params.t_tail * params.sigma_r)
    return r.take((params.m_bar, params.n * params.k), -bound, bound + 1)


def encode_int_sk(sk: SkInt, params: ParamsInt) -> bytes:
    body = _arrays_bytes([sk.t_a.r, sk.t_a_prime.r])
    return encode_frame(SCHEME_INT, KIND_SK, params, body)


def decode_int_sk(body: bytes, params: ParamsInt) -> SkInt:
    r = _Reader(body, params.q)
    r_a, r_ap = _take_int_r(r, params), _take_int_r(r, params)
    r.done()
    return SkInt(
        t_a=IntTrapdoor.from_r(r_a, params),
        t_a_prime=IntTrapdoor.from_r(r_ap, params),
    )


def encode_int_ct(ct: CtInt, params: ParamsInt) -> bytes:
    body = _arrays_bytes([ct.c1, ct.c2, ct.c3, ct.c4, ct.u, ct.d])
    return encode_frame(SCHEME_INT, KIND_CT, params, body)


def decode_int_ct(body: bytes, params: ParamsInt) -> CtInt:
    r = _Reader(body, params.q)
    c1 = r.take((params.t_msg,))
    c2 = r.take((params.t_msg,))
    c3 = r.take((2 * params.m,))
    c4 = r.take((2 * params.m,))
    u = r.take((params.m,))
    d = r.take((params.n, params.k_sig))
    r.done()
    return CtInt(c1=c1, c2=c2, c3=c3, c4=c4, u=u, d=d)


def encode_int_td(td: TrapdoorTokenInt, params: ParamsInt) -> bytes:
    body = _arrays_bytes([td.t_a_prime.r, td.a_prime, *td.a_list, td.b, td.u])
    return encode_frame(SCHEME_INT, KIND_TD, params, body)


def decode_int_td(body: bytes, params: ParamsInt) -> TrapdoorTokenInt:
    n, m = params.n, params.m
    r = _Reader(body, params.q)
    r_ap = _take_int_r(r, params)
    a_prime = r.take((n, m))
    a_list = [r.take((n, m)) for _ in range(params.l)]
    b = r.take((n, m))
    u = r.take((n, params.t_msg))
    r.done()
    return TrapdoorTokenInt(
        t_a_prime=IntTrapdoor.from_r(r_ap, params),
        a_prime=a_prime,
        a_list=a_list,
        b=b,
        u=u,
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_ENCODERS = {
    (SCHEME_RING, KIND_PK): encode_ring_pk,
    (SCHEME_RING, KIND_SK): encode_ring_sk,
    (SCHEME_RING, KIND_CT): encode_ring_ct,
    (SCHEME_RING, KIND_TD): encode_ring_td,
    (SCHEME_INT, KIND_PK): encode_int_pk,
    (SCHEME_INT, KIND_SK): encode_int_sk,
    (SCHEME_INT, KIND_CT): encode_int_ct,
    (SCHEME_INT, KIND_TD): encode_int_td,
}

_DECODERS = {
    (SCHEME_RING, KIND_PK): decode_ring_pk,
    (SCHEME_RING, KIND_SK): decode_ring_sk,
    (SCHEME_RING, KIND_CT): decode_ring_ct,
    (SCHEME_RING, KIND_TD): decode_ring_td,
    (SCHEME_INT, KIND_PK): decode_int_pk,
    (SCHEME_INT, KIND_SK): decode_int_sk,
    (SCHEME_INT, KIND_CT): decode_int_ct,
    (SCHEME_INT, KIND_TD): decode_int_td,
}


def encode_object(scheme: int, kind: int, obj, params) -> bytes:
    if kind == KIND_PARAMS:
        return encode_frame(scheme, kind, params, b"")
    enc = _ENCODERS.get((scheme, kind))
    if enc is None:
        raise FramingError(f"no encoder for scheme={scheme} kind={kind}")
    return enc(obj, params)


def decode_object(data: bytes, expect_kind: int | None = None):
    """Decode a frame into (scheme, kind, params, object)."""
    scheme, kind, params, body = decode_frame(data)
    if expect_kind is not None and kind != expect_kind:
        raise FramingError(f"expected kind {expect_kind}, found {kind}")
    if kind == KIND_PARAMS:
        if body:
            raise FramingError("parameter frame carries an unexpected body")
        return scheme, kind, params, params
    dec = _DECODERS.get((scheme, kind))
    if dec is None:
        raise FramingError(f"no decoder for scheme={scheme} kind={kind}")
    return scheme, kind, params, dec(body, params)


def require_same_params(*records) -> None:
    first = records[0]
    for rec in records[1:]:
        if rec.canonical_text() != first.canonical_text():
            raise ParamsMismatch("input files were produced under different parameters")
