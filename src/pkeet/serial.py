"""Framed binary serialization for keys, ciphertexts, and trapdoor tokens.

Every file is one frame: a fixed 23-byte header (magic, version, scheme,
kind, parameter digest, payload length) followed by the payload.  The
payload embeds the canonical parameter text, then the object's arrays in
the order of its layout: one entry of ``_LAYOUTS`` per ``(scheme, kind)``,
read by one encode loop and one decode loop.  The layout gives each array
a shape and a canonical range ``[lo, hi)``: residues in ``[0, q)``, and the
trapdoors (integer ``R``, ring ``T``) signed within ``floor(t_tail *
sigma)`` of their sampler.  An array is stored as its values minus ``lo``,
packed little-endian at ``bits = (hi - lo - 1).bit_length()`` each (value
``i`` at bits ``[i * bits, (i + 1) * bits)`` of the array's bit string,
as FIPS 203's ``ByteEncode``) and padded with zero bits to a whole byte.

Decoding requires the version to be ``VERSION``, every value in range,
every pad bit zero and the parameter text byte-identical to its record's
canonical form.  So encoding is a bijection: an object that does not fit
its frame raises :class:`FramingError`, decode(encode(x)) == x, and every
frame that decodes re-encodes to the same bytes.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, NamedTuple

import numpy as np

from .errors import FramingError, ParamsMismatch, PkeetError
from .matlattice import IntTrapdoor
from .params import ParamsInt, ParamsRing, params_from_text, validate
from .pkeet_int import CtInt, PkInt, SkInt, TrapdoorTokenInt
from .pkeet_ring import CtRing, PkRing, SkRing, TrapdoorTokenRing
from .ring import RingElement, balanced, get_context
from .trapdoor_ring import RingTrapdoor, TaggedVector

MAGIC = b"LPKT"
VERSION = 2
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
    lo, hi)`` of each array it stores, values in ``[lo, hi)``;
    ``take(value)`` gives those arrays, ``build(arrays, params)`` the value."""

    name: str
    specs: Callable
    take: Callable = lambda value: [value]
    build: Callable = lambda arrays, params: arrays[0]


def _residues(shape: Callable, count: Callable = lambda p: 1) -> Callable:
    """Specs of ``count(params)`` residue arrays of ``shape(params)``."""
    return lambda p: [(shape(p), 0, p.q)] * count(p)


def _signed(shape: Callable, width: str) -> Callable:
    """Spec of one trapdoor array of ``shape(params)`` whose entries lie
    within the tail cut ``floor(t_tail * params.<width>)``."""
    def specs(p) -> list[tuple]:
        bound = math.floor(p.t_tail * getattr(p, width))
        return [(shape(p), -bound, bound + 1)]

    return specs


def _signed_t(trap: RingTrapdoor) -> list[np.ndarray]:
    """``T`` balanced, once its residues are canonical."""
    q = trap.ctx.q
    return [balanced(_checked(np.asarray(trap.t_arr), (np.shape(trap.t_arr), 0, q)), q)]


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
    _signed(lambda p: (p.base_len, p.k, p.n), "sigma_trap"),
    _signed_t,
    lambda arrays, p: RingTrapdoor(t_arr=arrays[0] + p.q * (arrays[0] < 0), ctx=get_context(p)),
)
_INT_R = (
    _signed(lambda p: (p.m_bar, p.n * p.k), "sigma_r"),
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
    shape, lo, hi = spec
    if arr.shape != shape:
        raise FramingError(f"array of shape {arr.shape} where the layout declares {shape}")
    if arr.size and (int(arr.min()) < lo or int(arr.max()) >= hi):
        raise FramingError(f"value outside the canonical range [{lo}, {hi})")
    return arr


def _bits(lo: int, hi: int) -> int:
    """Bit width of one value of the range ``[lo, hi)``, stored as ``v - lo``."""
    return (hi - lo - 1).bit_length()


@functools.lru_cache(maxsize=None)
def _octet(bits: int) -> tuple[np.ndarray, tuple, np.dtype]:
    """Where each of 8 consecutive packed values lies in its ``bits`` bytes.

    Eight values take ``bits`` whole bytes, so value ``8 j + r`` starts
    ``j * bits`` bytes after value ``r``, at byte ``bases[r]`` and bit
    ``shifts[r]``.  Each is read through a little-endian window of
    ``dtype``, the fewest bytes (1, 2, 4 or 8) that hold every ``shift +
    bits``; past 57 bits an 8-byte window can miss the top of a value,
    which then lies in the byte after the window (``spills[r]``).  A window
    is never wider than ``bits`` bytes, so the windows of one ``r`` do not
    overlap.
    """
    bases, shifts = zip(*(divmod(r * bits, 8) for r in range(8)))
    width = next(w for w in (1, 2, 4, 8) if max(shifts) + bits <= 8 * w or w == 8)
    spills = tuple(shift + bits > 64 for shift in shifts)
    return np.array(shifts, dtype=f"<u{width}"), tuple(zip(bases, spills)), np.dtype(f"<u{width}")


def _views(buf: np.ndarray, bits: int, rows: int, base: int, dtype) -> np.ndarray:
    """The ``rows`` values of one octet position: ``dtype`` windows of
    ``buf`` from byte ``base``, ``bits`` bytes apart."""
    return np.ndarray((rows,), dtype, buf, base, (bits,))


def _pack(values: np.ndarray, lo: int, bits: int) -> bytes:
    """``values - lo`` (each below ``2**bits``) as one little-endian bit
    string, padded with zero bits to a whole byte: the spilled tops, one
    shift of every value into place, then one OR per octet position."""
    count, size = values.size, (values.size * bits + 7) // 8
    rows = -(-count // 8)
    shifts, windows, dtype = _octet(bits)
    v = np.zeros((rows, 8), dtype=dtype)
    np.subtract(values.reshape(-1), lo, out=v.reshape(-1)[:count], casting="unsafe")
    buf = np.zeros(rows * bits + 9, dtype=np.uint8)
    for r, (base, spill) in enumerate(windows):
        if spill:
            top = _views(buf, bits, rows, base + 8, np.uint8)
            top |= (v[:, r] >> (np.uint64(64) - shifts[r])).astype(np.uint8)
    v <<= shifts
    for r, (base, _) in enumerate(windows):
        window = _views(buf, bits, rows, base, dtype)
        window |= v[:, r]
    return buf[:size].tobytes()


def _unpack(body, pos: int, count: int, bits: int) -> np.ndarray:
    """The ``count`` values packed at ``bits`` each from byte ``pos`` of
    ``body``, as int64; raises :class:`FramingError` on nonzero pad bits."""
    size, rows = (count * bits + 7) // 8, -(-count // 8)
    buf = np.zeros(rows * bits + 9, dtype=np.uint8)
    buf[:size] = np.frombuffer(body, dtype=np.uint8, count=size, offset=pos)
    if count * bits % 8 and buf[size - 1] >> (count * bits % 8):
        raise FramingError("nonzero pad bits after a packed array")
    shifts, windows, dtype = _octet(bits)
    out = np.empty((rows, 8), dtype=np.uint64)
    for r, (base, _) in enumerate(windows):
        out[:, r] = _views(buf, bits, rows, base, dtype)
    out >>= shifts.astype(np.uint64)
    for r, (base, spill) in enumerate(windows):
        if spill:
            top = _views(buf, bits, rows, base + 8, np.uint8).astype(np.uint64)
            out[:, r] |= top << (np.uint64(64) - shifts[r])
    out &= np.uint64((1 << bits) - 1)
    return out.reshape(-1)[:count].view(np.int64)


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
        for arr, (shape, lo, hi) in zip(arrays, specs):
            arr = _checked(np.asarray(arr), (shape, lo, hi))
            chunks.append(_pack(arr, lo, _bits(lo, hi)))
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
        for shape, lo, hi in f.specs(params):
            count, bits = math.prod(shape), _bits(lo, hi)
            size = (count * bits + 7) // 8
            if pos + size > len(body):
                raise FramingError("payload shorter than the declared object")
            arr = _unpack(body, pos, count, bits).reshape(shape)
            arr += lo
            arrays.append(_checked(arr, (shape, lo, hi)))
            pos += size
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
