"""Framed binary serialization for keys, ciphertexts, and trapdoor tokens.

Every file is one frame: a fixed 23-byte header (magic, version, scheme,
kind, parameter digest, payload length) followed by the payload.  The
version is per scheme (``VERSIONS``): 3 for ring frames, 4 for integer
frames.  The payload embeds the canonical parameter text, then the
object's arrays in the order of its layout: one entry of ``_LAYOUTS`` per
``(scheme, kind)``, read by one encode loop and one decode loop.  The
layout gives each array a shape and a canonical range ``[lo, hi)``:
residues in ``[0, q)``, the trapdoors (integer ``R``, ring ``T``) signed
within ``floor(t_tail * sigma)`` of their sampler, and seed bytes in
``[0, 256)``.  An array is stored as its values minus ``lo``, packed
little-endian at ``bits = (hi - lo - 1).bit_length()`` each (value ``i``
at bits ``[i * bits, (i + 1) * bits)`` of the array's bit string, as FIPS
203's ``ByteEncode``) and padded with zero bits to a whole byte.
Consecutive arrays of one range are packed as one bit string while each
but the last ends on a whole byte, which gives the same bytes.

A frame stores no field that the others determine.  Integer public keys
and tokens store their 32-byte public seed (the ``seed`` field, last) in
place of the uniform matrices it expands to
(:func:`~pkeet.pkeet_int.expand_public`): the ``A_bar`` halves of ``A``
and ``A'``, ``A_1 .. A_l``, ``B`` and ``U``.  A public key stores ``A``
and ``A'`` as their gadget tails ``G - A_bar R``.  A token stores no field
its trapdoor determines: an integer token holds ``R'`` and the seed, and
``A'`` is rebuilt as ``[A_bar' | G - A_bar' R']``
(:func:`~pkeet.matlattice.gadget_completion`); a ring token holds ``T_b``,
the coefficient head ``a'_b`` of ``b`` and ``u``, and ``b`` is rebuilt in
NTT slots as ``[a'_b; -a'_b^T T_b]``
(:func:`~pkeet.trapdoor_ring.zero_tag_completion`).  Encoding refuses an
object whose left-out fields are not what its stored ones determine.

Decoding requires the scheme's version, every value in range, every pad
bit zero and the parameter text byte-identical to its record's canonical
form.  So encoding is a bijection: an object that does not fit its frame
raises :class:`FramingError`, decode(encode(x)) == x, and every frame that
decodes re-encodes to the same bytes.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, NamedTuple

import numpy as np

from .errors import FramingError, ParamsMismatch, PkeetError
from .matlattice import IntTrapdoor, gadget_completion, gadget_residual
from .params import ParamsInt, ParamsRing, params_from_text, validate
from .pkeet_int import CtInt, PkInt, SkInt, TrapdoorTokenInt, expand_public
from .pkeet_ring import CtRing, PkRing, SkRing, TrapdoorTokenRing
from .ring import get_context
from .rng import SEED_BYTES
from .trapdoor_ring import RingTrapdoor, TaggedVector, zero_tag_completion

MAGIC = b"LPKT"
SCHEME_RING = 1
SCHEME_INT = 2
VERSIONS = {SCHEME_RING: 3, SCHEME_INT: 4}
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
    header = _HEADER.pack(MAGIC, VERSIONS[scheme], scheme, kind, params.digest(), len(payload))
    return header + payload


def decode_frame(data: bytes) -> tuple[int, int, ParamsRing | ParamsInt, bytes]:
    if len(data) < _HEADER.size:
        raise FramingError("file shorter than a frame header")
    magic, version, scheme, kind, digest, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FramingError(f"bad magic {magic!r}")
    if version != VERSIONS.get(scheme):
        raise FramingError(f"unsupported version {version} for scheme {scheme}")
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
    ``take(value)`` gives those arrays, ``build(arrays, params)`` the value.
    An object's value of the field must be an instance of ``cls``, when
    one is given."""

    name: str
    specs: Callable
    take: Callable = lambda value: [value]
    build: Callable = lambda arrays, params: arrays[0]
    cls: type | None = None


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


def _int_r(trap: IntTrapdoor) -> list[np.ndarray]:
    """``R``, held as float64, as the int64 array a frame stores; raises
    :class:`FramingError` for an entry that is not an integer."""
    r = np.asarray(trap.r)
    stored = r.astype(np.int64)
    if not np.array_equal(stored, r):
        raise FramingError("R holds an entry that is not an integer")
    return [stored]


# (specs, take, build, cls) of each value type a field holds other than one array.
_TAGGED = (
    _residues(lambda p: (p.m, p.n)),
    lambda tv: [tv.vec],
    lambda arrays, p: TaggedVector.from_coeffs(arrays[0], get_context(p)),
    TaggedVector,
)
_RING_T = (
    _signed(lambda p: (p.base_len, p.k, p.n), "sigma_trap"),
    lambda trap: [trap.t_arr],
    lambda arrays, p: RingTrapdoor(t_arr=arrays[0], ctx=get_context(p)),
    RingTrapdoor,
)
_INT_R = (
    _signed(lambda p: (p.m_bar, p.n * p.k), "sigma_r"),
    _int_r,
    lambda arrays, p: IntTrapdoor.from_r(arrays[0], p),
    IntTrapdoor,
)
_INT_TAIL = _residues(lambda p: (p.n, p.n * p.k))
_RING_POLY = _residues(lambda p: (p.n,))
# A value the frame does not store: decoding rebuilds it from the seed or
# the trapdoor.
_DERIVED = (lambda p: [], lambda value: [], lambda arrays, p: None)
_SEED = _Field(
    "seed",
    lambda p: [((SEED_BYTES,), 0, 256)],
    lambda seed: [np.frombuffer(seed, dtype=np.uint8)],
    lambda arrays, p: arrays[0].astype(np.uint8).tobytes(),
)

_FROM_SEED = tuple(_Field(name, *_DERIVED) for name in ("a_list", "b", "u"))

# One layout per (scheme, kind): the object's class and its fields in frame order.
_LAYOUTS = {
    (SCHEME_RING, KIND_PK): (PkRing, (
        _Field("a", *_TAGGED), _Field("b", *_TAGGED), _Field("u", _RING_POLY),
    )),
    (SCHEME_RING, KIND_SK): (SkRing, (_Field("t_a", *_RING_T), _Field("t_b", *_RING_T))),
    (SCHEME_RING, KIND_CT): (CtRing, (
        _Field("sig", _residues(lambda p: (p.base_len, p.n))),
        _Field("v", _residues(lambda p: (2, p.n))),
        _Field("ct1", _RING_POLY),
        _Field("ct2", _RING_POLY),
        _Field("ct3", _residues(lambda p: (p.m, p.n))),
        _Field("ct4", _residues(lambda p: (p.m, p.n))),
    )),
    (SCHEME_RING, KIND_TD): (TrapdoorTokenRing, (
        _Field("t_b", *_RING_T),
        _Field("b", _residues(lambda p: (p.base_len, p.n)), cls=TaggedVector),
        _Field("u", _RING_POLY),
    )),
    (SCHEME_INT, KIND_PK): (PkInt, (
        _Field("a", _INT_TAIL), _Field("a_prime", _INT_TAIL), *_FROM_SEED, _SEED,
    )),
    (SCHEME_INT, KIND_SK): (SkInt, (_Field("t_a", *_INT_R), _Field("t_a_prime", *_INT_R))),
    (SCHEME_INT, KIND_CT): (CtInt, (
        _Field("c1", _residues(lambda p: (p.t_msg,))),
        _Field("c2", _residues(lambda p: (p.t_msg,))),
        _Field("c3", _residues(lambda p: (2 * p.m,))),
        _Field("c4", _residues(lambda p: (2 * p.m,))),
        _Field("u", _residues(lambda p: (p.m,))),
        _Field("d", _residues(lambda p: (p.n, p.k_sig))),
    )),
    (SCHEME_INT, KIND_TD): (TrapdoorTokenInt, (
        _Field("t_a_prime", *_INT_R), _Field("a_prime", *_DERIVED), *_FROM_SEED, _SEED,
    )),
}


def _seed_split(values: dict, params: ParamsInt) -> dict:
    """The field values an integer pk or td frame stores: ``A`` and ``A'``
    as their gadget tails, and none of the matrices the seed expands to;
    raises :class:`FramingError` when one of those is not its expansion."""
    seed = values["seed"]
    if not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise FramingError(f"the public seed must be {SEED_BYTES} bytes")
    pub = expand_public(seed, params)
    expanded = [(pub.b, values["b"]), (pub.u, values["u"])]
    a_list = values["a_list"]
    if not isinstance(a_list, (list, tuple)) or len(a_list) != params.l:
        raise FramingError(f"a_list is not a sequence of {params.l} matrices")
    expanded += zip(pub.a_list, a_list)
    out = dict(values)
    for name, bar in (("a", pub.a_bar), ("a_prime", pub.a_prime_bar)):
        if name in values:
            mat = np.asarray(values[name])
            if mat.shape != (params.n, params.m):
                raise FramingError(f"{name} has shape {mat.shape}, not {(params.n, params.m)}")
            expanded.append((bar, mat[:, : params.m_bar]))
            out[name] = mat[:, params.m_bar :]
    if not all(np.array_equal(want, got) for want, got in expanded):
        raise FramingError("a uniform public matrix is not the one its seed expands to")
    return out


def _seed_join(values: dict, params: ParamsInt) -> dict:
    """The object's field values from those a seeded frame stores."""
    pub = expand_public(values["seed"], params)
    out = dict(values, a_list=list(pub.a_list), b=pub.b, u=pub.u)
    for name, bar in (("a", pub.a_bar), ("a_prime", pub.a_prime_bar)):
        if values.get(name) is not None:
            out[name] = np.concatenate([bar, values[name]], axis=1)
    return out


def _int_token_split(values: dict, params: ParamsInt) -> dict:
    """What an integer token frame stores: ``R'`` and the seed; raises
    :class:`FramingError` unless ``R'`` is a gadget trapdoor of ``A'``."""
    out = _seed_split(values, params)
    r = values["t_a_prime"].r
    if np.shape(r) != (params.m_bar, params.n * params.k):
        raise FramingError(f"R' has shape {np.shape(r)}, not {(params.m_bar, params.n * params.k)}")
    if gadget_residual(np.asarray(values["a_prime"]), r, params.q).any():
        raise FramingError("a_prime is not the gadget completion of the token's trapdoor")
    return dict(out, a_prime=None)


def _int_token_join(values: dict, params: ParamsInt) -> dict:
    """The token's fields, ``A'`` rebuilt as ``[A_bar' | G - A_bar' R']``."""
    a_prime_bar = expand_public(values["seed"], params).a_prime_bar
    r = values["t_a_prime"].r
    return dict(_seed_join(values, params), a_prime=gadget_completion(a_prime_bar, r, params.q))


def _ring_token_split(values: dict, params: ParamsRing) -> dict:
    """What a ring token frame stores: ``T_b``, the head ``a'_b`` of ``b``
    in coefficients, and ``u``; raises :class:`FramingError` unless ``b`` is
    the zero-tag completion of ``T_b``, which is checked in NTT slots."""
    ctx = get_context(params)
    trap, b = values["t_b"], values["b"]
    if trap.ctx is not ctx or b.ctx is not ctx:
        raise FramingError("token built under another ring context")
    if np.shape(trap.t_arr) != (params.base_len, params.k, params.n):
        raise FramingError(f"T_b has shape {np.shape(trap.t_arr)}")
    if np.shape(b.vec_hat) != (params.m, params.n):
        raise FramingError(f"b has shape {np.shape(b.vec_hat)}, not {(params.m, params.n)}")
    vec_hat = _in_range(np.asarray(b.vec_hat), 0, params.q)
    completion = zero_tag_completion(vec_hat[: params.base_len], trap)
    if np.any(b.tag_hat) or not np.array_equal(vec_hat, completion):
        raise FramingError("b is not the zero-tag completion of the token's trapdoor")
    return dict(values, b=b.vec_head(params.base_len))


def _ring_token_join(values: dict, params: ParamsRing) -> dict:
    """The token's fields, ``b`` rebuilt in NTT slots from its head and
    ``T_b``; its coefficient form is computed only if it is encoded again."""
    ctx = get_context(params)
    vec_hat = zero_tag_completion(ctx.ntt(values["b"]), values["t_b"])
    return dict(values, b=TaggedVector(vec_hat, np.zeros(ctx.n, dtype=np.int64), ctx))


def _same(values: dict, params) -> dict:
    return values


# (split, join) of each class whose frame leaves out fields it determines:
# ``split`` turns the object's field values into the stored ones and refuses
# an object whose derived fields disagree; ``join`` rebuilds them.
_STORED_FORM = {
    PkInt: (_seed_split, _seed_join),
    TrapdoorTokenInt: (_int_token_split, _int_token_join),
    TrapdoorTokenRing: (_ring_token_split, _ring_token_join),
}


def _in_range(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``values`` itself once every one lies in the canonical range ``[lo, hi)``."""
    if values.size and (int(values.min()) < lo or int(values.max()) >= hi):
        raise FramingError(f"value outside the canonical range [{lo}, {hi})")
    return values


def _runs(specs: list[tuple]) -> list[list[int]]:
    """The indices of ``specs`` in runs that pack as one bit string:
    consecutive arrays of one range, each but the last ending on a whole
    byte, so the run's bit string is theirs laid end to end."""
    runs: list[list[int]] = []
    for i, (_, lo, hi) in enumerate(specs):
        prev = specs[i - 1] if runs else None
        if prev and prev[1:] == (lo, hi) and math.prod(prev[0]) * _bits(lo, hi) % 8 == 0:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def _bits(lo: int, hi: int) -> int:
    """Bit width of one value of the range ``[lo, hi)``, stored as ``v - lo``."""
    return (hi - lo - 1).bit_length()


@functools.lru_cache(maxsize=None)
def _octet(bits: int) -> tuple[np.ndarray, tuple[int, ...], np.dtype]:
    """Where each of 8 consecutive packed values lies in its ``bits`` bytes.

    Eight values take ``bits`` whole bytes, so value ``8 j + r`` starts
    ``j * bits`` bytes after value ``r``, at byte ``bases[r]`` and bit
    ``shifts[r]``.  Each is read through a little-endian window of
    ``dtype``, the fewest bytes (1, 2, 4 or 8) that hold every ``shift +
    bits``.  A shift is at most 7, so every width up to 57 bits fits an
    8-byte window; frames use at most 52, as every residue lies below
    ``params.MULMOD_CAP``, and a wider width raises :class:`FramingError`.
    A window is never wider than ``bits`` bytes, so the windows of one
    ``r`` do not overlap.
    """
    if bits > 57:
        raise FramingError(f"{bits}-bit values do not fit one 8-byte window")
    bases, shifts = zip(*(divmod(r * bits, 8) for r in range(8)))
    width = next(w for w in (1, 2, 4, 8) if max(shifts) + bits <= 8 * w)
    return np.array(shifts, dtype=f"<u{width}"), bases, np.dtype(f"<u{width}")


def _views(buf: np.ndarray, bits: int, rows: int, base: int, dtype) -> np.ndarray:
    """The ``rows`` values of one octet position: ``dtype`` windows of
    ``buf`` from byte ``base``, ``bits`` bytes apart."""
    return np.ndarray((rows,), dtype, buf, base, (bits,))


def _pack(values: np.ndarray, lo: int, bits: int) -> bytes:
    """``values - lo`` (each below ``2**bits``) as one little-endian bit
    string, padded with zero bits to a whole byte: one shift of every value
    into place, then one OR per octet position."""
    count, size = values.size, (values.size * bits + 7) // 8
    rows = -(-count // 8)
    shifts, bases, dtype = _octet(bits)
    v = np.zeros((rows, 8), dtype=dtype)
    np.subtract(values.reshape(-1), lo, out=v.reshape(-1)[:count], casting="unsafe")
    buf = np.zeros(rows * bits + 8, dtype=np.uint8)   # the last row's windows overhang
    v <<= shifts
    for r, base in enumerate(bases):
        window = _views(buf, bits, rows, base, dtype)
        window |= v[:, r]
    return buf[:size].tobytes()


def _unpack(body, pos: int, count: int, bits: int) -> np.ndarray:
    """The ``count`` values packed at ``bits`` each from byte ``pos`` of
    ``body``, as int64; raises :class:`FramingError` on nonzero pad bits."""
    shifts, bases, dtype = _octet(bits)
    size, rows = (count * bits + 7) // 8, -(-count // 8)
    buf = np.zeros(rows * bits + 8, dtype=np.uint8)
    buf[:size] = np.frombuffer(body, dtype=np.uint8, count=size, offset=pos)
    if count * bits % 8 and buf[size - 1] >> (count * bits % 8):
        raise FramingError("nonzero pad bits after a packed array")
    out = np.empty((rows, 8), dtype=np.uint64)
    for r, base in enumerate(bases):
        out[:, r] = _views(buf, bits, rows, base, dtype)
    out >>= shifts.astype(np.uint64)
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
    values = {f.name: getattr(obj, f.name) for f in fields}
    for f in fields:
        if f.cls is not None and not isinstance(values[f.name], f.cls):
            raise FramingError(
                f"field {f.name} holds a {type(values[f.name]).__name__}, not a {f.cls.__name__}"
            )
    split, _ = _STORED_FORM.get(cls, (_same, _same))
    return encode_frame(scheme, kind, params, _pack_fields(fields, split(values, params), params))


def _pack_fields(fields: tuple[_Field, ...], values: dict, params) -> bytes:
    """The frame body that stores ``values``, one per field of ``fields``."""
    arrays, specs = [], []
    for f in fields:
        field_arrays, field_specs = f.take(values[f.name]), f.specs(params)
        if len(field_arrays) != len(field_specs):
            raise FramingError(
                f"field {f.name} holds {len(field_arrays)} arrays, not {len(field_specs)}"
            )
        for arr, (shape, _, _) in zip(field_arrays, field_specs):
            arr = np.asarray(arr)
            if arr.shape != shape:
                raise FramingError(f"array of shape {arr.shape} where the layout declares {shape}")
            arrays.append(arr.reshape(-1))
        specs += field_specs
    chunks = []
    for run in _runs(specs):
        _, lo, hi = specs[run[0]]
        flat = _in_range(np.concatenate([arrays[i] for i in run]), lo, hi)
        chunks.append(_pack(flat, lo, _bits(lo, hi)))
    return b"".join(chunks)


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
    field_specs = [f.specs(params) for f in fields]
    specs = [spec for each in field_specs for spec in each]
    pos, arrays = 0, []
    for run in _runs(specs):
        _, lo, hi = specs[run[0]]
        counts = [math.prod(specs[i][0]) for i in run]
        count, bits = sum(counts), _bits(lo, hi)
        size = (count * bits + 7) // 8
        if pos + size > len(body):
            raise FramingError("payload shorter than the declared object")
        flat = _unpack(body, pos, count, bits)
        flat += lo
        _in_range(flat, lo, hi)
        for i, part in zip(run, np.split(flat, np.cumsum(counts)[:-1])):
            arrays.append(part.reshape(specs[i][0]))
        pos += size
    if pos != len(body):
        raise FramingError("payload longer than the declared object")
    values, start = {}, 0
    for f, each in zip(fields, field_specs):
        values[f.name] = f.build(arrays[start : start + len(each)], params)
        start += len(each)
    _, join = _STORED_FORM.get(cls, (_same, _same))
    return scheme, kind, params, cls(**join(values, params))


def require_same_params(*records) -> None:
    first = records[0]
    for rec in records[1:]:
        if rec.canonical_text() != first.canonical_text():
            raise ParamsMismatch("input files were produced under different parameters")
