"""Framed binary serialization for keys, ciphertexts, and trapdoor tokens.

Every file is one frame: a fixed 23-byte header (magic, version, scheme,
kind, parameter digest, payload length) followed by the payload.  The
payload embeds the canonical parameter text, then the object's arrays as
raw little-endian 64-bit integers in the order of its layout: one entry of
``_LAYOUTS`` per ``(scheme, kind)``, read by one encode loop and one decode
loop.  Both loops hold every array to its layout's shape and canonical
range: residues in ``[0, q)``, integer trapdoor ``R`` entries (signed)
within ``floor(t_tail * sigma_r)``, and ring trapdoor ``T`` residues whose
balanced values lie within ``floor(t_tail * sigma_trap)``.  Decoding also
requires the parameter text to be byte-identical to its record's canonical
form.  So encoding is a bijection: an object that does not fit its frame
raises :class:`FramingError`, decode(encode(x)) == x, and every frame that
decodes re-encodes to the same bytes.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, NamedTuple

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
_SCHEMES = {ParamsRing: SCHEME_RING, ParamsInt: SCHEME_INT}


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
    if scheme != _SCHEMES[type(params)]:
        raise FramingError("scheme byte does not match the parameter record")
    return scheme, kind, params, payload[4 + text_len :]


# ---------------------------------------------------------------------------
# Layouts: one per (scheme, kind), walked by both directions
# ---------------------------------------------------------------------------


class _Field(NamedTuple):
    """One field of a frame object: ``specs(params)`` lists the ``(shape,
    lo, hi, tail)`` of each array it stores (values in ``[lo, hi)`` and, if
    ``tail`` is set, residues whose balanced values lie within it);
    ``take(value)`` gives those arrays, ``build(arrays, params)`` the value."""

    name: str
    specs: Callable
    take: Callable = lambda value: [value]
    build: Callable = lambda arrays, params: arrays[0]


def _residues(shape: Callable, count: Callable = lambda p: 1) -> Callable:
    """Specs of ``count(params)`` residue arrays of ``shape(params)``."""
    return lambda p: [(shape(p), 0, p.q, None)] * count(p)


def _int_r_specs(p: ParamsInt) -> list[tuple]:
    bound = math.floor(p.t_tail * p.sigma_r)
    return [((p.m_bar, p.n * p.k), -bound, bound + 1, None)]


# (specs, take, build) of each value type a field holds other than one array.
_ELEMENT = (
    _residues(lambda p: (p.n,)),
    lambda e: [e.coeffs],
    lambda arrays, p: RingElement(arrays[0], get_context(p)),
)
_ELEMENT_PAIR = (
    _residues(lambda p: (p.n,), lambda p: 2),
    lambda pair: [e.coeffs for e in pair],
    lambda arrays, p: tuple(RingElement(a, get_context(p)) for a in arrays),
)
_TAGGED = (
    _residues(lambda p: (p.m, p.n)),
    lambda tv: [tv.vec],
    lambda arrays, p: TaggedVector.from_coeffs(arrays[0], get_context(p)),
)
_RING_T = (
    lambda p: [((p.base_len, p.k, p.n), 0, p.q, math.floor(p.t_tail * p.sigma_trap))],
    lambda trap: [trap.t_arr],
    lambda arrays, p: RingTrapdoor(t_arr=arrays[0], ctx=get_context(p)),
)
_INT_R = (
    _int_r_specs,
    lambda trap: [trap.r],
    lambda arrays, p: IntTrapdoor.from_r(arrays[0], p),
)
_INT_MATRIX = _residues(lambda p: (p.n, p.m))

_RING_PUBLIC = (_Field("b", *_TAGGED), _Field("u", *_ELEMENT))
_INT_PUBLIC = (
    _Field("a_prime", _INT_MATRIX),
    _Field("a_list", _residues(lambda p: (p.n, p.m), lambda p: p.l), list, lambda a, p: a),
    _Field("b", _INT_MATRIX),
    _Field("u", _residues(lambda p: (p.n, p.t_msg))),
)

# One layout per (scheme, kind): the object's class and its fields in frame order.
_LAYOUTS = {
    (SCHEME_RING, KIND_PK): (PkRing, (_Field("a", *_TAGGED), *_RING_PUBLIC)),
    (SCHEME_RING, KIND_SK): (SkRing, (_Field("t_a", *_RING_T), _Field("t_b", *_RING_T))),
    (SCHEME_RING, KIND_CT): (CtRing, (
        _Field("sig", _residues(lambda p: (p.base_len, p.n))),
        _Field("v", *_ELEMENT_PAIR),
        _Field("ct1", *_ELEMENT),
        _Field("ct2", *_ELEMENT),
        _Field("ct3", _residues(lambda p: (p.m, p.n))),
        _Field("ct4", _residues(lambda p: (p.m, p.n))),
    )),
    (SCHEME_RING, KIND_TD): (TrapdoorTokenRing, (_Field("t_b", *_RING_T), *_RING_PUBLIC)),
    (SCHEME_INT, KIND_PK): (PkInt, (_Field("a", _INT_MATRIX), *_INT_PUBLIC)),
    (SCHEME_INT, KIND_SK): (SkInt, (_Field("t_a", *_INT_R), _Field("t_a_prime", *_INT_R))),
    (SCHEME_INT, KIND_CT): (CtInt, (
        _Field("c1", _residues(lambda p: (p.t_msg,))),
        _Field("c2", _residues(lambda p: (p.t_msg,))),
        _Field("c3", _residues(lambda p: (2 * p.m,))),
        _Field("c4", _residues(lambda p: (2 * p.m,))),
        _Field("u", _residues(lambda p: (p.m,))),
        _Field("d", _residues(lambda p: (p.n, p.k_sig))),
    )),
    (SCHEME_INT, KIND_TD): (TrapdoorTokenInt, (_Field("t_a_prime", *_INT_R), *_INT_PUBLIC)),
}


def _checked(arr: np.ndarray, spec: tuple) -> np.ndarray:
    """``arr`` itself once it has the spec's shape and canonical range."""
    shape, lo, hi, tail = spec
    if arr.shape != shape:
        raise FramingError(f"array of shape {arr.shape} where the layout declares {shape}")
    if arr.size and (int(arr.min()) < lo or int(arr.max()) >= hi):
        raise FramingError(f"value outside the canonical range [{lo}, {hi})")
    if tail is not None and ((arr > tail) & (arr < hi - tail)).any():
        raise FramingError(f"trapdoor entry beyond the tail bound {tail}")
    return arr


def _layout(scheme: int, kind: int) -> tuple[type, tuple[_Field, ...]]:
    if (scheme, kind) not in _LAYOUTS:
        raise FramingError(f"no layout for scheme={scheme} kind={kind}")
    return _LAYOUTS[scheme, kind]


def encode_object(scheme: int, kind: int, obj, params) -> bytes:
    """Frame of ``obj`` under ``params``; raises :class:`FramingError` when
    the object, its shapes or its values do not fit ``(scheme, kind, params)``."""
    if _SCHEMES.get(type(params)) != scheme:
        raise FramingError(f"parameter record does not belong to scheme {scheme}")
    if kind == KIND_PARAMS:
        return encode_frame(scheme, kind, params, b"")
    cls, fields = _layout(scheme, kind)
    if not isinstance(obj, cls):
        raise FramingError(f"expected a {cls.__name__}, got {type(obj).__name__}")
    chunks = []
    for f in fields:
        arrays, specs = f.take(getattr(obj, f.name)), f.specs(params)
        if len(arrays) != len(specs):
            raise FramingError(f"field {f.name} holds {len(arrays)} arrays, not {len(specs)}")
        for arr, spec in zip(arrays, specs):
            chunks.append(_checked(np.asarray(arr), spec).astype("<i8", copy=False).tobytes())
    return encode_frame(scheme, kind, params, b"".join(chunks))


def _encoder(scheme: int, kind: int) -> Callable:
    def encode(obj, params) -> bytes:
        return encode_object(scheme, kind, obj, params)

    return encode


encode_ring_pk = _encoder(SCHEME_RING, KIND_PK)
encode_ring_sk = _encoder(SCHEME_RING, KIND_SK)
encode_ring_ct = _encoder(SCHEME_RING, KIND_CT)
encode_ring_td = _encoder(SCHEME_RING, KIND_TD)
encode_int_pk = _encoder(SCHEME_INT, KIND_PK)
encode_int_sk = _encoder(SCHEME_INT, KIND_SK)
encode_int_ct = _encoder(SCHEME_INT, KIND_CT)
encode_int_td = _encoder(SCHEME_INT, KIND_TD)


def decode_object(data: bytes, expect_kind: int | None = None):
    """Decode a frame into (scheme, kind, params, object)."""
    scheme, kind, params, body = decode_frame(data)
    if expect_kind is not None and kind != expect_kind:
        raise FramingError(f"expected kind {expect_kind}, found {kind}")
    if kind == KIND_PARAMS:
        if body:
            raise FramingError("parameter frame carries an unexpected body")
        return scheme, kind, params, params
    cls, fields = _layout(scheme, kind)
    pos, field_arrays = 0, []
    for f in fields:
        arrays = []
        for spec in f.specs(params):
            count = math.prod(spec[0])
            if pos + 8 * count > len(body):
                raise FramingError("payload shorter than the declared object")
            arr = np.frombuffer(body, dtype="<i8", count=count, offset=pos)
            arrays.append(_checked(arr.astype(np.int64).reshape(spec[0]), spec))
            pos += 8 * count
        field_arrays.append(arrays)
    if pos != len(body):
        raise FramingError("payload longer than the declared object")
    values = {f.name: f.build(a, params) for f, a in zip(fields, field_arrays)}
    return scheme, kind, params, cls(**values)


def require_same_params(*records) -> None:
    first = records[0]
    for rec in records[1:]:
        if rec.canonical_text() != first.canonical_text():
            raise ParamsMismatch("input files were produced under different parameters")
