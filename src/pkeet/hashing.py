"""Domain-separated hash maps built on a single SHAKE-256 XOF.

Every map feeds ``prefix || tag || params-digest || [counter] || payload``
to one SHAKE-256 object, piece by piece so the payload is not copied, and
expands its 32-byte digest into a seed for the deterministic stream
generator, so all structured outputs (rejection sampling, shuffles,
unranking) are reproducible from the payload alone under fixed parameters.

Tags: 0x01 message hash, 0x02 invertible-element hash, 0x03 sparse-signed
hash, 0x04 plus/minus-one hash, 0x05 fixed-weight hash.

Integer-array payloads (ring coefficients, residue vectors and matrices)
are encoded by :func:`words` alone.  Every output is a plain array: bits
from the message hash, NTT slots from the invertible hash, canonical
residues from the sparse hash, small integers from the others.  Output
lengths and weights come from the parameter record, whose ranges
:func:`~pkeet.params.validate` checks.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import InternalError, InvalidParams
from .params import ParamsInt, ParamsRing
from .ring import get_context, is_invertible
from .rng import XofRng

TAG_MESSAGE = 0x01
TAG_INVERTIBLE = 0x02
TAG_SPARSE = 0x03
TAG_PM_ONE = 0x04
TAG_WEIGHTED = 0x05

H1_RETRY_CAP = 1000

# Fixed public pad prepended to integer-scheme message hashes, standing in
# for the lengthening salt of the padded construction.
ZERO_SALT = bytes(32)

_FRAME_PREFIX = b"pkeet-hash-v1"


def _hash_stream(tag: int, params, payload: bytes, counter: int | None = None) -> XofRng:
    xof = hashlib.shake_256(_FRAME_PREFIX + bytes([tag]) + params.digest())
    if counter is not None:
        xof.update(counter.to_bytes(8, "little"))
    xof.update(payload)
    return XofRng(xof.digest(32))


def words(*arrays: np.ndarray) -> bytes:
    """Hash payload of integer arrays: each entry as one little-endian
    8-byte word, array after array, each in row-major order."""
    return b"".join(np.asarray(a).astype("<u8").tobytes() for a in arrays)


def _stream_bits(stream: XofRng, count: int) -> np.ndarray:
    raw = np.frombuffer(stream.bytes((count + 7) // 8), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:count].astype(np.int64)


def hash_message(params: ParamsRing | ParamsInt, data: bytes):
    """Hash bytes into the message space: a 0/1 vector.

    Ring parameters give the ``n`` coefficients of an element of R_2;
    integer parameters give ``t_msg`` bits (salted with the fixed public
    pad).
    """
    if isinstance(params, ParamsRing):
        stream = _hash_stream(TAG_MESSAGE, params, data)
        return _stream_bits(stream, params.n)
    if isinstance(params, ParamsInt):
        stream = _hash_stream(TAG_MESSAGE, params, ZERO_SALT + data)
        return _stream_bits(stream, params.t_msg)
    raise InvalidParams(f"not a parameter record: {type(params)!r}")


def hash_to_invertible(params: ParamsRing, data: bytes) -> np.ndarray:
    """Map bytes to an invertible ring element by counter rejection.

    Returns the element's NTT slots, shape (n,), which the invertibility
    check computes anyway; ``get_context(params).intt`` gives the
    coefficients.
    """
    ctx = get_context(params)
    for counter in range(H1_RETRY_CAP):
        stream = _hash_stream(TAG_INVERTIBLE, params, data, counter)
        slots = ctx.ntt(stream.uniform_mod(params.q, params.n))
        if is_invertible(slots):
            return slots
    raise InternalError(f"no invertible hash output after {H1_RETRY_CAP} counters")


# Words per ``uniform_mod(bound, 1)`` read: ``need + need // 16 + 8``.
_DRAW_WORDS = 9


def _shuffle_draws(stream: XofRng, n: int, weight: int) -> np.ndarray:
    """``stream.uniform_mod(n - i, 1)[0]`` for ``i < weight`` in turn, from
    one read.

    Each such call reads nine words and keeps the first below its rejection
    limit ``floor(2^64 / b) * b`` (any word when ``b`` is a power of two),
    reading nine more if none is.  So the ``weight`` draws are the first
    accepted word of each group of nine, as long as every group has one;
    from the first group that has none, the calls are replayed one by one
    on the words left, then on the stream.
    """
    bounds = np.arange(n, n - weight, -1, dtype=np.uint64)
    # 2^64 mod b, from (2^64 - 1) mod b; the limit 2^64 - that wraps to 0
    # exactly when b accepts every word.
    excess = (np.uint64(2**64 - 1) % bounds + np.uint64(1)) % bounds
    limits = (np.uint64(0) - excess)[:, None]
    words = stream.u64(_DRAW_WORDS * weight).reshape(weight, _DRAW_WORDS)
    ok = (words < limits) | (excess == 0)[:, None]
    first = ok.argmax(axis=1)
    draws = words[np.arange(weight), first] % bounds
    short = np.flatnonzero(~ok.any(axis=1))
    if short.size:
        # Replay the calls from the first short group: its words, the
        # groups after it, then fresh groups from the stream.
        g = int(short[0])
        groups = list(words[g:])
        for i in range(g, weight):
            while True:
                group = groups.pop(0) if groups else stream.u64(_DRAW_WORDS)
                good = group[(group < limits[i]) | (excess[i] == 0)]
                if good.size:
                    draws[i] = good[0] % bounds[i]
                    break
    return draws.astype(np.int64)


def hash_to_sparse(params: ParamsRing, data: bytes) -> np.ndarray:
    """Map bytes to a signed sparse element: exactly ``delta_w`` coefficients
    in {-1, +1}, positions chosen by a stream-driven partial shuffle.
    Returns its canonical residues, shape (n,)."""
    n, weight = params.n, params.delta_w
    stream = _hash_stream(TAG_SPARSE, params, data)
    idx = np.arange(n)
    for i, offset in enumerate(_shuffle_draws(stream, n, weight).tolist()):
        j = i + offset
        idx[i], idx[j] = idx[j], idx[i]
    signs = 2 * _stream_bits(stream, weight) - 1
    coeffs = np.zeros(n, dtype=np.int64)
    coeffs[idx[:weight]] = signs % params.q
    return coeffs


def hash_pm_one(params: ParamsInt, data: bytes) -> np.ndarray:
    """Map bytes to a vector in {-1, +1}^l."""
    stream = _hash_stream(TAG_PM_ONE, params, data)
    return 2 * _stream_bits(stream, params.l) - 1


def hash_weighted(params: ParamsInt, data: bytes) -> np.ndarray:
    """Map bytes to a 0/1 vector of length ``k_sig`` with weight exactly
    ``w_sig`` by unranking a stream-uniform combination index."""
    k_sig, w_sig = params.k_sig, params.w_sig
    total = math.comb(k_sig, w_sig)
    stream = _hash_stream(TAG_WEIGHTED, params, data)
    nbits = total.bit_length() + 64
    nbytes = (nbits + 7) // 8
    limit = ((1 << (8 * nbytes)) // total) * total
    for _ in range(H1_RETRY_CAP):
        r = int.from_bytes(stream.bytes(nbytes), "little")
        if r < limit:
            rank = r % total
            break
    else:
        raise InternalError("weighted-hash rejection cap exhausted")
    out = np.zeros(k_sig, dtype=np.int64)
    remaining = w_sig
    for i in range(k_sig - 1, -1, -1):
        if remaining == 0:
            break
        skip = math.comb(i, remaining)
        if rank >= skip:
            out[i] = 1
            rank -= skip
            remaining -= 1
    return out
