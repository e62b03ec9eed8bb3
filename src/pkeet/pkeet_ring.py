"""Public-key encryption with equality test over power-of-two cyclotomic rings.

Keys are two independently trapdoored vectors ``a`` and ``b`` plus a uniform
syndrome ``u``.  A ciphertext carries two masked payload slots (the message
and its binary hash) and two vector slots that let the matching trapdoor
recover the masks, all bound together by a one-time signature whose public
key doubles as the tag seed.  Holding the trapdoor for ``a`` opens the
message slot; holding only the trapdoor for ``b`` opens just the hash slot,
which is exactly the power an equality-test token needs.  A slot is opened
by trapdoor inversion, as in Micciancio and Peikert's CCA-secure encryption
(EUROCRYPT 2012), not by the paper's Gaussian preimage: the gadget trapdoor
recovers the slot's secret, the slot's error must lie within its tail
bounds, and the payload is then unmasked (:func:`_open_slots`).  So
decrypt and test draw no randomness.  Each binding has one helper that
encrypt, decrypt and test all call: :func:`_tag_shift` for the tag of
``v`` and :func:`_ots_message` for the signed message.

Ring values are plain int64 arrays of shape ``(..., n)``: canonical
residues in ciphertexts and in ``u``, NTT slots in a :class:`TaggedVector`,
and the trapdoor ``T`` signed as drawn.  Only the message that
:func:`encrypt` takes and :func:`decrypt` returns is a
:class:`~pkeet.ring.RingElement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMessage, ParamsMismatch, RejectHash, RejectNoise, RejectSignature
from .hashing import hash_message, hash_to_invertible, hash_to_sparse, words
from .ots import OtsRingKeys, ots_ring_keygen, ots_ring_sign, ots_ring_verify
from .params import ParamsRing
from .ring import RingElement, balanced, decode_bits, decode_gadget, gadget_columns, get_context, invmod, mulmod
from .rng import XofRng
from .sampling import sample_ring_array
from .trapdoor_ring import (
    RingTrapdoor,
    TaggedVector,
    apply_tag_shift,
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
    test needs to rebuild the shifted vector and its syndrome.  Its frame
    stores ``T_b``, the head ``a'_b`` of ``b`` and ``u``: the tail of ``b``
    is ``-a'_b^T T_b``."""

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


def _slot_bounds(params: ParamsRing) -> tuple[int, int]:
    """Bounds on a vector slot's error: ``t_tail`` widths of the narrow head
    rows and of the wide tail rows, as :func:`_vector_noise` draws them."""
    return math.floor(params.t_tail * params.tau), math.floor(params.t_tail * params.gamma)


def _col_l1(trap: RingTrapdoor) -> int:
    """Largest l1 norm of a column of ``T``, over its coefficients."""
    return int(np.abs(trap.t_arr).sum(axis=(0, 2)).max())


def _inversion_bound(params: ParamsRing, col_l1: int) -> int:
    """Bound on every coefficient of ``e'_j = sum_i T_ij e_i + e_(base_len+j)``
    for an error within :func:`_slot_bounds` and a trapdoor whose columns
    have coefficient l1 norm at most ``col_l1``; each coefficient of a ring
    product ``T_ij e_i`` is a signed sum of ``|T_ij|``'s coefficients times
    ``e_i``'s."""
    head, tail = _slot_bounds(params)
    return col_l1 * head + tail


def _open_slots(
    params: ParamsRing,
    jobs: list[tuple[RingTrapdoor, TaggedVector, np.ndarray, np.ndarray, np.ndarray]],
    tag_hat: np.ndarray,
) -> np.ndarray:
    """Bits hidden in each job's payload slot, for jobs ``(trapdoor, tagged
    vector a_h, u, vector slot, payload)`` whose tags are ``tag_hat``, shape
    (n,) when one ciphertext's tag serves every job, else (J, n): invert the
    vector slot ``a_h s + e`` to ``s``, check ``e`` against its tail bounds,
    and decode ``payload - u s``.

    The trapdoor identity ``a_h^T [T; I] = h g^T`` makes ``[T; I]^T`` of the
    slot ``g (h s) + e'``, from which :func:`~pkeet.ring.decode_gadget`
    reads ``h s`` while every ``|e'_j|`` stays within
    :func:`_inversion_bound`.  Only the columns ``j`` the decoder reads
    (:func:`~pkeet.ring.gadget_columns`, their union over the jobs) are
    formed, from the transformed slot heads; the error is then the slot
    minus one product ``a_h s``, checked on every row.  So an ``s`` whose
    error passes the check is always the one decoded, and no other can
    pass: the opening depends on the public vector and the slot alone, not
    on which trapdoor opens it.  Raises :class:`RejectNoise` when an error
    entry exceeds its bound.
    """
    ctx = get_context(params)
    q, base_len, m = ctx.q, params.base_len, params.m
    bounds = [_inversion_bound(params, _col_l1(trap)) for trap, *_ in jobs]
    reads = [gadget_columns(q, bound) for bound in bounds]
    cols = sorted(set().union(*reads))
    hat = ctx.ntt(np.stack([
        np.concatenate([slot[:base_len], u[None]]) for _, _, u, slot, _ in jobs
    ]))                                                               # (J, base_len + 1, n)
    t_hat = np.stack([trap.t_hat[:, cols] for trap, *_ in jobs])      # (J, base_len, |cols|, n)
    slots = np.stack([np.concatenate([slot, payload[None]]) for *_, slot, payload in jobs])
    w = (ctx.intt(mulmod(t_hat, hat[:, :base_len, None], q).sum(axis=1) % q)
         + slots[:, [base_len + j for j in cols]]) % q                # (J, |cols|, n)
    hs = np.stack([
        decode_gadget(w_j[[cols.index(j) for j in read]], q, bound)
        for w_j, read, bound in zip(w, reads, bounds)
    ])                                                                # (J, n): h s
    s_hat = mulmod(ctx.ntt(hs), invmod(tag_hat, q), q)
    vec_u_hat = np.concatenate([np.stack([av.vec_hat for _, av, *_ in jobs]), hat[:, -1:]], axis=1)
    rest = (slots - ctx.intt(mulmod(vec_u_hat, s_hat[:, None], q))) % q
    err = np.abs(balanced(rest[:, :m], q))
    head, tail = _slot_bounds(params)
    if (err[:, :base_len] > head).any() or (err[:, base_len:] > tail).any():
        raise RejectNoise("a vector slot's error exceeds its tail bound")
    return decode_bits(rest[:, m], q)


def decrypt(
    pk: PkRing, sk: SkRing, ct: CtRing, params: ParamsRing, rng: XofRng
) -> RingElement:
    """Recover the message, or raise a typed rejection.

    The signature binds all four ciphertext components, so any tamper
    invalidates the one-time check before any trapdoor work happens.  Both
    slots are opened by trapdoor inversion (:func:`_open_slots`), which
    draws no randomness: ``rng`` is accepted for call compatibility and
    never read.
    """
    ctx = get_context(params)
    a_prime_hat = pk.a.vec_hat[: params.base_len]
    ots_msg = _ots_message(params, ct.ct1, ct.ct2, ct.ct3, ct.ct4)
    if not ots_ring_verify(a_prime_hat, ct.v, ots_msg, ct.sig, params):
        raise RejectSignature("one-time signature check failed")

    a_h, b_h = _tag_shift(params, ct.v, pk.a, pk.b)
    jobs = [(sk.t_a, a_h, pk.u, ct.ct3, ct.ct1), (sk.t_b, b_h, pk.u, ct.ct4, ct.ct2)]
    msg_bits, hash_bits = _open_slots(params, jobs, a_h.tag_hat)

    if not np.array_equal(hash_bits, hash_message(params, words(msg_bits))):
        raise RejectHash("decoded hash slot does not match the message hash")
    return RingElement(msg_bits, ctx)


def trapdoor(sk: SkRing, pk: PkRing) -> TrapdoorTokenRing:
    """Equality-test token: the hash-slot trapdoor plus public material."""
    return TrapdoorTokenRing(t_b=sk.t_b, b=pk.b, u=pk.u)


def _test_job(
    td: TrapdoorTokenRing, ct: CtRing, params: ParamsRing
) -> tuple[RingTrapdoor, TaggedVector, np.ndarray, np.ndarray, np.ndarray]:
    return td.t_b, _tag_shift(params, ct.v, td.b)[0], td.u, ct.ct4, ct.ct2


def test(
    td_i: TrapdoorTokenRing,
    td_j: TrapdoorTokenRing,
    ct_i: CtRing,
    ct_j: CtRing,
    params: ParamsRing,
    rng: XofRng,
) -> int:
    """1 iff the two ciphertexts hide the same message (hash-slot equality).

    Each hash slot is opened by trapdoor inversion (:func:`_open_slots`),
    which draws no randomness: ``rng`` is accepted for call compatibility
    and never read.  Raises :class:`RejectNoise` when a slot's error
    exceeds its tail bound.
    """
    jobs = [_test_job(td_i, ct_i, params), _test_job(td_j, ct_j, params)]
    side_i, side_j = _open_slots(params, jobs, np.stack([av.tag_hat for _, av, *_ in jobs]))
    return int(np.array_equal(side_i, side_j))
