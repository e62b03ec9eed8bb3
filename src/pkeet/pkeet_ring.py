"""Public-key encryption with equality test over power-of-two cyclotomic rings.

Keys are two independently trapdoored vectors ``a`` and ``b`` plus a uniform
syndrome ``u``.  A ciphertext carries two masked payload slots (the message
and its binary hash) and two vector slots that let the matching trapdoor
recover the masks, all bound together by a one-time signature whose public
key doubles as the tag seed.  Holding the trapdoor for ``a`` opens the
message slot; holding only the trapdoor for ``b`` opens just the hash slot,
which is exactly the power an equality-test token needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMessage, ParamsMismatch, RejectHash, RejectSignature
from .hashing import hash_message, hash_to_invertible, hash_to_sparse
from .ots import OtsRingKeys, ots_ring_keygen, ots_ring_sign, ots_ring_verify
from .params import ParamsRing
from .ring import (
    RingElement,
    decode_bits,
    dot_ntt,
    get_context,
    mulmod,
    sample_uniform,
    scale_halfq,
)
from .rng import XofRng
from .sampling import sample_ring_array
from .trapdoor_ring import (
    RingTrapdoor,
    TaggedVector,
    apply_tag_shift,
    sample_pre,
    trap_gen,
)


@dataclass
class PkRing:
    """Public key: tagged vectors ``a`` and ``b`` (tag 0) and syndrome ``u``."""

    a: TaggedVector
    b: TaggedVector
    u: RingElement


@dataclass
class SkRing:
    """Secret key: the trapdoors matching ``a`` and ``b``."""

    t_a: RingTrapdoor
    t_b: RingTrapdoor


@dataclass
class CtRing:
    """Ciphertext: signature, one-time public pair, two payload slots and
    two vector slots."""

    sig: np.ndarray            # (base_len, n) canonical
    v: tuple[RingElement, RingElement]
    ct1: RingElement
    ct2: RingElement
    ct3: np.ndarray            # (m, n) canonical
    ct4: np.ndarray            # (m, n) canonical


@dataclass
class TrapdoorTokenRing:
    """Equality-test token: trapdoor for ``b`` plus the public material the
    test needs to rebuild the shifted vector and its syndrome."""

    t_b: RingTrapdoor
    b: TaggedVector
    u: RingElement


def setup(params: ParamsRing, rng: XofRng) -> tuple[PkRing, SkRing]:
    """Two zero-tag trapdoored vectors plus a uniform syndrome."""
    av_a, t_a = trap_gen(params, rng)
    av_b, t_b = trap_gen(params, rng)
    u = sample_uniform(get_context(params), rng)
    return PkRing(a=av_a, b=av_b, u=u), SkRing(t_a=t_a, t_b=t_b)


def _v_bytes(v: tuple[RingElement, RingElement]) -> bytes:
    return v[0].to_bytes() + v[1].to_bytes()


def _ct_bytes(ct1: RingElement, ct2: RingElement, ct3: np.ndarray, ct4: np.ndarray) -> bytes:
    return (
        ct1.to_bytes()
        + ct2.to_bytes()
        + ct3.astype("<u8").tobytes()
        + ct4.astype("<u8").tobytes()
    )


def _masked_vector(
    av: TaggedVector, s: RingElement, params: ParamsRing, rng: XofRng
) -> np.ndarray:
    """``av * s`` plus per-slot noise: narrow on the head, wide on the tail."""
    ctx = av.ctx
    base_len, k = params.base_len, params.k
    noise = np.empty((params.m, ctx.n), dtype=np.int64)
    noise[:base_len] = sample_ring_array(params.tau, base_len, ctx, rng)
    noise[base_len:] = sample_ring_array(params.gamma, k, ctx, rng)
    s_hat = ctx.ntt(s.coeffs)
    masked = ctx.intt(mulmod(av.vec_hat, s_hat[None, :], ctx.q))
    return (masked + noise) % ctx.q


def encrypt(pk: PkRing, message: RingElement, params: ParamsRing, rng: XofRng) -> CtRing:
    """Encrypt a binary-coefficient ring element."""
    ctx = get_context(params)
    if message.ctx != ctx:
        raise ParamsMismatch("message built under a different ring context")
    if ((message.coeffs != 0) & (message.coeffs != 1)).any():
        raise InvalidMessage("message coefficients must be bits")

    ots_keys: OtsRingKeys = ots_ring_keygen(pk.a.vec_hat[: params.base_len], params, rng)
    v = ots_keys.pub
    h = hash_to_invertible(params, _v_bytes(v))
    a_h = apply_tag_shift(pk.a, h)
    b_h = apply_tag_shift(pk.b, h)

    s1 = sample_uniform(ctx, rng)
    s2 = sample_uniform(ctx, rng)
    e1, e2 = (RingElement(e, ctx) for e in sample_ring_array(params.tau, 2, ctx, rng))
    ct1 = pk.u * s1 + e1 + scale_halfq(message)
    ct2 = pk.u * s2 + e2 + scale_halfq(hash_message(params, message.to_bytes()))

    ct3 = _masked_vector(a_h, s1, params, rng)
    ct4 = _masked_vector(b_h, s2, params, rng)

    ots_msg = hash_to_sparse(params, _ct_bytes(ct1, ct2, ct3, ct4))
    sig = ots_ring_sign(ots_keys, ots_msg, params)
    return CtRing(sig=sig, v=v, ct1=ct1, ct2=ct2, ct3=ct3, ct4=ct4)


def _open_slot(payload: RingElement, vec_slot: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """Decode the bits hidden in a payload slot using a preimage of ``u``
    (evaluation form, shape (m, n))."""
    ctx = payload.ctx
    inner = dot_ntt(ctx.ntt(vec_slot), x_hat, ctx)
    w = payload - RingElement(ctx.intt(inner), ctx)
    return decode_bits(w)


def decrypt(
    pk: PkRing, sk: SkRing, ct: CtRing, params: ParamsRing, rng: XofRng
) -> RingElement:
    """Recover the message, or raise a typed rejection.

    The signature binds all four ciphertext components, so any tamper
    invalidates the one-time check before any trapdoor work happens.
    """
    ctx = get_context(params)
    a_prime_hat = pk.a.vec_hat[: params.base_len]
    ots_msg = hash_to_sparse(params, _ct_bytes(ct.ct1, ct.ct2, ct.ct3, ct.ct4))
    if not ots_ring_verify(a_prime_hat, ct.v, ots_msg, ct.sig, params):
        raise RejectSignature("one-time signature check failed")

    h = hash_to_invertible(params, _v_bytes(ct.v))
    a_h = apply_tag_shift(pk.a, h)
    b_h = apply_tag_shift(pk.b, h)

    x_hat = sample_pre([(sk.t_a, a_h, pk.u), (sk.t_b, b_h, pk.u)], params, rng)
    msg_bits = _open_slot(ct.ct1, ct.ct3, x_hat[0])
    hash_bits = _open_slot(ct.ct2, ct.ct4, x_hat[1])

    message = RingElement(msg_bits, ctx)
    expected = hash_message(params, message.to_bytes())
    if not np.array_equal(hash_bits, expected.coeffs):
        raise RejectHash("decoded hash slot does not match the message hash")
    return message


def trapdoor(sk: SkRing, pk: PkRing) -> TrapdoorTokenRing:
    """Equality-test token: the hash-slot trapdoor plus public material."""
    return TrapdoorTokenRing(t_b=sk.t_b, b=pk.b, u=pk.u)


def _test_job(
    td: TrapdoorTokenRing, ct: CtRing, params: ParamsRing
) -> tuple[RingTrapdoor, TaggedVector, RingElement]:
    h = hash_to_invertible(params, _v_bytes(ct.v))
    return td.t_b, apply_tag_shift(td.b, h), td.u


def test(
    td_i: TrapdoorTokenRing,
    td_j: TrapdoorTokenRing,
    ct_i: CtRing,
    ct_j: CtRing,
    params: ParamsRing,
    rng: XofRng,
) -> int:
    """1 iff the two ciphertexts hide the same message (hash-slot equality)."""
    jobs = [_test_job(td_i, ct_i, params), _test_job(td_j, ct_j, params)]
    x_hat = sample_pre(jobs, params, rng)
    side_i = _open_slot(ct_i.ct2, ct_i.ct4, x_hat[0])
    side_j = _open_slot(ct_j.ct2, ct_j.ct4, x_hat[1])
    return int(np.array_equal(side_i, side_j))
