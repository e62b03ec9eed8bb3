"""Public-key encryption with equality test over power-of-two cyclotomic rings.

Keys are two independently trapdoored vectors ``a`` and ``b`` plus a uniform
syndrome ``u``.  A ciphertext carries two masked payload slots (the message
and its binary hash) and two vector slots that let the matching trapdoor
recover the masks, all bound together by a one-time signature whose public
key doubles as the tag seed.  Holding the trapdoor for ``a`` opens the
message slot; holding only the trapdoor for ``b`` opens just the hash slot,
which is exactly the power an equality-test token needs.  Each binding has
one helper that encrypt, decrypt and test all call: :func:`_tag_shift` for
the tag of ``v`` and :func:`_ots_message` for the signed message.

Ring values are plain int64 arrays of shape ``(..., n)``: canonical
residues in ciphertexts and in ``u``, NTT slots in a :class:`TaggedVector`,
and the trapdoor ``T`` signed as drawn.  Only the message that
:func:`encrypt` takes and :func:`decrypt` returns is a
:class:`~pkeet.ring.RingElement`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMessage, ParamsMismatch, RejectHash, RejectSignature
from .hashing import hash_message, hash_to_invertible, hash_to_sparse, words
from .ots import OtsRingKeys, ots_ring_keygen, ots_ring_sign, ots_ring_verify
from .params import ParamsRing
from .ring import RingElement, decode_bits, dot_ntt, get_context, mulmod
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
    u: np.ndarray              # (n,) canonical


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
    v: np.ndarray              # (2, n) canonical
    ct1: np.ndarray            # (n,) canonical
    ct2: np.ndarray            # (n,) canonical
    ct3: np.ndarray            # (m, n) canonical
    ct4: np.ndarray            # (m, n) canonical


@dataclass
class TrapdoorTokenRing:
    """Equality-test token: trapdoor for ``b`` plus the public material the
    test needs to rebuild the shifted vector and its syndrome."""

    t_b: RingTrapdoor
    b: TaggedVector
    u: np.ndarray              # (n,) canonical


def setup(params: ParamsRing, rng: XofRng) -> tuple[PkRing, SkRing]:
    """Two zero-tag trapdoored vectors plus a uniform syndrome."""
    av_a, t_a = trap_gen(params, rng)
    av_b, t_b = trap_gen(params, rng)
    u = rng.uniform_mod(params.q, params.n)
    return PkRing(a=av_a, b=av_b, u=u), SkRing(t_a=t_a, t_b=t_b)


def _tag_shift(params: ParamsRing, v, *vectors: TaggedVector) -> list[TaggedVector]:
    """``vectors`` shifted by the invertible tag hashed from the one-time
    key ``v`` of a ciphertext."""
    h_hat = hash_to_invertible(params, words(v))
    return [apply_tag_shift(vec, h_hat) for vec in vectors]


def _ots_message(params: ParamsRing, ct1, ct2, ct3, ct4) -> np.ndarray:
    """The sparse message the one-time signature binds: all four slots."""
    return hash_to_sparse(params, words(ct1, ct2, ct3, ct4))


def _vector_noise(params: ParamsRing, rng: XofRng) -> np.ndarray:
    """(m, n) noise of one vector slot: narrow on the head, wide on the tail."""
    ctx = get_context(params)
    noise = np.empty((params.m, ctx.n), dtype=np.int64)
    noise[: params.base_len] = sample_ring_array(params.tau, params.base_len, ctx, rng)
    noise[params.base_len :] = sample_ring_array(params.gamma, params.k, ctx, rng)
    return noise


def encrypt(pk: PkRing, message: RingElement, params: ParamsRing, rng: XofRng) -> CtRing:
    """Encrypt a binary-coefficient ring element."""
    ctx = get_context(params)
    q = ctx.q
    if message.ctx != ctx:
        raise ParamsMismatch("message built under a different ring context")
    if ((message.coeffs != 0) & (message.coeffs != 1)).any():
        raise InvalidMessage("message coefficients must be bits")

    ots_keys: OtsRingKeys = ots_ring_keygen(pk.a.vec_hat[: params.base_len], params, rng)
    v = ots_keys.pub
    a_h, b_h = _tag_shift(params, v, pk.a, pk.b)

    s1, s2 = rng.uniform_mod(q, ctx.n), rng.uniform_mod(q, ctx.n)
    e = sample_ring_array(params.tau, 2, ctx, rng)                   # (2, n)
    hats = ctx.ntt(np.stack([pk.u, s1, s2]))
    s_hat = hats[1:]                                                 # (2, n)
    bits = np.stack([message.coeffs, hash_message(params, words(message.coeffs))])
    ct1, ct2 = (ctx.intt(mulmod(hats[0], s_hat, q)) + e + (q // 2) * bits) % q

    noise = np.stack([_vector_noise(params, rng) for _ in range(2)])
    vec_hat = np.stack([a_h.vec_hat, b_h.vec_hat])
    ct3, ct4 = (ctx.intt(mulmod(vec_hat, s_hat[:, None, :], q)) + noise) % q

    sig = ots_ring_sign(ots_keys, _ots_message(params, ct1, ct2, ct3, ct4), params)
    return CtRing(sig=sig, v=v, ct1=ct1, ct2=ct2, ct3=ct3, ct4=ct4)


def _open_slots(
    params: ParamsRing, payloads: list[np.ndarray], vec_slots: list[np.ndarray], x_hat: np.ndarray
) -> np.ndarray:
    """Decode the bits hidden in each payload slot using its vector slot and
    a preimage of ``u`` (evaluation form, shape (J, m, n)): one transform
    each way for all of them."""
    ctx = get_context(params)
    inner = ctx.intt(dot_ntt(ctx.ntt(np.stack(vec_slots)), x_hat, ctx))
    return decode_bits(np.stack(payloads) - inner, ctx.q)


def decrypt(
    pk: PkRing, sk: SkRing, ct: CtRing, params: ParamsRing, rng: XofRng
) -> RingElement:
    """Recover the message, or raise a typed rejection.

    The signature binds all four ciphertext components, so any tamper
    invalidates the one-time check before any trapdoor work happens.
    """
    ctx = get_context(params)
    a_prime_hat = pk.a.vec_hat[: params.base_len]
    ots_msg = _ots_message(params, ct.ct1, ct.ct2, ct.ct3, ct.ct4)
    if not ots_ring_verify(a_prime_hat, ct.v, ots_msg, ct.sig, params):
        raise RejectSignature("one-time signature check failed")

    a_h, b_h = _tag_shift(params, ct.v, pk.a, pk.b)

    x_hat = sample_pre([(sk.t_a, a_h, pk.u), (sk.t_b, b_h, pk.u)], params, rng)
    msg_bits, hash_bits = _open_slots(params, [ct.ct1, ct.ct2], [ct.ct3, ct.ct4], x_hat)

    if not np.array_equal(hash_bits, hash_message(params, words(msg_bits))):
        raise RejectHash("decoded hash slot does not match the message hash")
    return RingElement(msg_bits, ctx)


def trapdoor(sk: SkRing, pk: PkRing) -> TrapdoorTokenRing:
    """Equality-test token: the hash-slot trapdoor plus public material."""
    return TrapdoorTokenRing(t_b=sk.t_b, b=pk.b, u=pk.u)


def _test_job(
    td: TrapdoorTokenRing, ct: CtRing, params: ParamsRing
) -> tuple[RingTrapdoor, TaggedVector, np.ndarray]:
    return td.t_b, _tag_shift(params, ct.v, td.b)[0], td.u


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
    side_i, side_j = _open_slots(params, [ct_i.ct2, ct_j.ct2], [ct_i.ct4, ct_j.ct4], x_hat)
    return int(np.array_equal(side_i, side_j))
