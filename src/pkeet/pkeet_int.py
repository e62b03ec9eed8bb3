"""Public-key encryption with equality test over integer lattices.

Structure mirrors the ring scheme: two trapdoored matrices ``A`` (message
slot) and ``A'`` (hash slot) share a syndrome matrix ``U``; ciphertexts
carry two masked payload vectors and two doubled-width vector slots formed
under selector-dependent matrices ``(A | B + sum b_i A_i)``.  Binding uses
the matrix one-time signature whose public key ``D`` seeds the selector
hash, with the signature vector ``u`` checked for both the linear identity
and shortness.

Every uniform public matrix comes from one 32-byte public seed: the
uniform halves ``A_bar`` of ``A`` and ``A'``, the selector family
``A_1 .. A_l``, ``B`` and ``U`` (:func:`expand_public`), as Kyber and
Dilithium expand their public matrices.  The secret key holds the gadget
trapdoors ``R`` of ``A`` and ``A'`` (``A [R; I] = G``).  A decrypt opens
both slots, and an equality test the hash slot of each ciphertext, with
one two-job :func:`~pkeet.matlattice.sample_left` call.  Encryption keeps
its ``l`` fresh ``m x m`` sign matrices packed at a bit per entry and
applies their selector-weighted sum through one small-integer fold and one
exact product.
Each binding has one helper that encrypt, decrypt and test call:
:func:`_selector` for ``h(c1, c2, D)`` and its matrix, and
:func:`_ots_digest` for the signed digest."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMessage, ParameterOverflow, RejectHash, RejectSignature
from .hashing import hash_message, hash_pm_one, hash_weighted, words
from .matlattice import (
    IntTrapdoor,
    matmul_mod,
    sample_left,
    trap_gen_int,
    _exact_matmul,
    _mul_signed,
)
from .ots import ots_sis_keygen, ots_sis_sign, ots_sis_verify
from .params import ParamsInt
from .ring import balanced, decode_bits
from .rng import SEED_BYTES, XofRng


@dataclass
class PkInt:
    """Public matrices: two trapdoored slots, selector family, syndrome,
    and the seed that every uniform one is expanded from."""

    a: np.ndarray              # (n, m)
    a_prime: np.ndarray        # (n, m)
    a_list: list[np.ndarray]   # l matrices (n, m)
    b: np.ndarray              # (n, m)
    u: np.ndarray              # (n, t_msg)
    seed: bytes                # SEED_BYTES


@dataclass
class SkInt:
    """Gadget trapdoors of the two trapdoored matrices."""

    t_a: IntTrapdoor
    t_a_prime: IntTrapdoor


@dataclass
class CtInt:
    """Ciphertext: payload slots, vector slots, signature vector, one-time
    public matrix."""

    c1: np.ndarray             # (t_msg,)
    c2: np.ndarray             # (t_msg,)
    c3: np.ndarray             # (2m,)
    c4: np.ndarray             # (2m,)
    u: np.ndarray              # (m,) residues
    d: np.ndarray              # (n, k_sig)


@dataclass
class TrapdoorTokenInt:
    """Equality-test token: hash-slot trapdoor plus the public material the
    test needs.  Its frame stores only ``R'`` and the seed: ``A'`` is
    ``[A_bar' | G - A_bar' R']`` and the seed expands to the rest."""

    t_a_prime: IntTrapdoor
    a_prime: np.ndarray
    a_list: list[np.ndarray]
    b: np.ndarray
    u: np.ndarray
    seed: bytes


class PublicMatrices(NamedTuple):
    """The uniform public matrices of an integer key."""

    a_bar: np.ndarray                  # (n, m_bar), the uniform half of A
    a_prime_bar: np.ndarray            # (n, m_bar), of A'
    a_list: tuple[np.ndarray, ...]     # l matrices (n, m)
    b: np.ndarray                      # (n, m)
    u: np.ndarray                      # (n, t_msg)


@functools.lru_cache(maxsize=2)
def expand_public(seed: bytes, params: ParamsInt) -> PublicMatrices:
    """The uniform public matrices of the key with public seed ``seed``.

    Each family is drawn by ``uniform_mod`` from its own labelled fork of
    ``XofRng(seed)``.  The arrays are read-only: the last two expansions
    are kept and shared by every key object of their seed, so a key that
    is set up, encoded and decoded in one process is expanded once.

    Raises :class:`ParameterOverflow` when a family does not fit in memory.
    """
    root = XofRng(seed)

    def draw(label: bytes, *shape: int) -> np.ndarray:
        count = math.prod(shape)
        try:
            arr = root.fork(label).uniform_mod(params.q, count).reshape(shape)
        except MemoryError:
            raise ParameterOverflow(
                f"public matrix {label.decode()} of {count:,} entries does not fit in memory"
            ) from None
        arr.flags.writeable = False
        return arr

    n, m, m_bar = params.n, params.m, params.m_bar
    return PublicMatrices(
        a_bar=draw(b"A", n, m_bar),
        a_prime_bar=draw(b"A'", n, m_bar),
        a_list=tuple(draw(b"A_i", params.l, n, m)),
        b=draw(b"B", n, m),
        u=draw(b"U", n, params.t_msg),
    )


def setup_int(params: ParamsInt, rng: XofRng) -> tuple[PkInt, SkInt]:
    seed = rng.bytes(SEED_BYTES)
    pub = expand_public(seed, params)
    a_mat, t_a = trap_gen_int(pub.a_bar, params, rng)
    a_prime, t_a_prime = trap_gen_int(pub.a_prime_bar, params, rng)
    pk = PkInt(a=a_mat, a_prime=a_prime, a_list=list(pub.a_list), b=pub.b, u=pub.u, seed=seed)
    return pk, SkInt(t_a=t_a, t_a_prime=t_a_prime)


def _noise(count: int, params: ParamsInt, rng: XofRng) -> np.ndarray:
    """Signed rounded-Gaussian noise: round(q * X) for X of width alpha."""
    sd = params.alpha * params.q / np.sqrt(2.0 * np.pi)
    return np.rint(rng.normal(count) * sd).astype(np.int64)


def _selector(params: ParamsInt, b_mat, a_list, c1, c2, d) -> tuple[np.ndarray, np.ndarray]:
    """The selector ``sel = h(c1, c2, D)`` in {-1, +1}^l and its matrix
    ``B + sum_i sel_i A_i`` mod q."""
    sel = hash_pm_one(params, words(c1, c2, d))
    acc = b_mat.copy()
    for b_i, a_i in zip(sel, a_list):
        acc += b_i * a_i
    return sel, acc % params.q


def _ots_digest(params: ParamsInt, c1, c2, c3, c4) -> np.ndarray:
    """The weight-``w_sig`` digest the one-time signature binds: all four slots."""
    return hash_weighted(params, words(c1, c2, c3, c4))


def _open_slot_int(payload: np.ndarray, vec_slot: np.ndarray, e: np.ndarray, q: int) -> np.ndarray:
    """Bits of ``payload - e^T vec_slot (mod q)`` for a slot's preimage ``e``."""
    return decode_bits(payload - _mul_signed(e.T, vec_slot[:, None], q)[:, 0], q)


def _sign_sum_t(sel: np.ndarray, packed: list[bytes], y: np.ndarray, q: int) -> np.ndarray:
    """``sum_i sel_i S_i^T y`` for the (m, m) sign matrices ``S_i`` packed
    little-endian at a bit per entry (set bit: +1, clear bit: -1); exact
    whenever :func:`~pkeet.matlattice._exact_matmul` is, else mod ``q``.

    With ``B_i`` the bit matrices, ``S_i = 2 B_i - 1``, so the signed sum
    is ``2 W - sum_i sel_i`` for ``W = sum_i sel_i B_i``.  Each ``B_i`` is
    unpacked and folded into ``W`` in turn, in the narrowest integer type
    that holds ``2 |W| <= 2 l``, and the sum meets ``y`` in one product,
    taken as ``(y^T S)^T`` so that ``S`` is read row by row."""
    m = y.shape[0]
    s_sum = np.zeros((m, m), dtype=np.min_scalar_type(-2 * len(sel)))
    for b_i, raw in zip(sel, packed):
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=m * m, bitorder="little")
        fold = np.add if b_i > 0 else np.subtract
        fold(s_sum, bits.reshape(m, m), out=s_sum, dtype=s_sum.dtype, casting="unsafe")
    s_sum *= 2
    s_sum -= int(sel.sum())
    return _exact_matmul(y.T, s_sum, q).T


def encrypt_int(pk: PkInt, msg: np.ndarray, params: ParamsInt, rng: XofRng) -> CtInt:
    """Encrypt a bit vector of length ``t_msg``."""
    q, m = params.q, params.m
    msg = np.asarray(msg, dtype=np.int64)
    if msg.shape != (params.t_msg,) or ((msg != 0) & (msg != 1)).any():
        raise InvalidMessage(f"message must be a 0/1 vector of length {params.t_msg}")

    ots_keys = ots_sis_keygen(pk.a, params, rng)
    d_pub = ots_keys.pub                                           # (n, k_sig)

    s1 = rng.uniform_mod(q, params.n)
    s2 = rng.uniform_mod(q, params.n)
    half = q // 2
    c1 = (matmul_mod(pk.u.T, s1[:, None], q)[:, 0] + _noise(params.t_msg, params, rng) + half * msg) % q
    hash_bits = hash_message(params, words(msg))
    c2 = (matmul_mod(pk.u.T, s2[:, None], q)[:, 0] + _noise(params.t_msg, params, rng) + half * hash_bits) % q

    sel, a_sum = _selector(params, pk.b, pk.a_list, c1, c2, d_pub)
    f1 = np.concatenate([pk.a, a_sum], axis=1)
    f2 = np.concatenate([pk.a_prime, a_sum], axis=1)

    # One fresh m x m sign matrix per selector entry, kept packed at a bit
    # per sign; their selector-weighted sum is applied without forming it.
    packed = [rng.bytes((m * m + 7) // 8) for _ in sel]
    y = np.stack([_noise(m, params, rng), _noise(m, params, rng)], axis=1)
    ry = _sign_sum_t(sel, packed, y, q)
    c3 = (matmul_mod(f1.T, s1[:, None], q)[:, 0] + np.concatenate([y[:, 0], ry[:, 0]])) % q
    c4 = (matmul_mod(f2.T, s2[:, None], q)[:, 0] + np.concatenate([y[:, 1], ry[:, 1]])) % q

    u_sig = ots_sis_sign(ots_keys, _ots_digest(params, c1, c2, c3, c4), params) % q
    return CtInt(c1=c1, c2=c2, c3=c3, c4=c4, u=u_sig, d=d_pub)


def _check_signature(pk_a: np.ndarray, ct: CtInt, params: ParamsInt) -> None:
    d_sel = _ots_digest(params, ct.c1, ct.c2, ct.c3, ct.c4)
    sig = balanced(ct.u % params.q, params.q)
    if not ots_sis_verify(pk_a, ct.d, d_sel, sig, params):
        raise RejectSignature("signature vector fails the one-time check")


def decrypt_int(
    pk: PkInt, sk: SkInt, ct: CtInt, params: ParamsInt, rng: XofRng
) -> np.ndarray:
    """Recover the message bits, or raise a typed rejection."""
    q = params.q
    _check_signature(pk.a, ct, params)

    _, a_sum = _selector(params, pk.b, pk.a_list, ct.c1, ct.c2, ct.d)

    e_msg, e_hash = sample_left(
        [(pk.a, a_sum, sk.t_a, pk.u), (pk.a_prime, a_sum, sk.t_a_prime, pk.u)], params, rng
    )
    msg = _open_slot_int(ct.c1, ct.c3, e_msg, q)
    hash_bits = _open_slot_int(ct.c2, ct.c4, e_hash, q)
    if not np.array_equal(hash_bits, hash_message(params, words(msg))):
        raise RejectHash("decoded hash slot does not match the message hash")
    return msg


def trapdoor_int(sk: SkInt, pk: PkInt) -> TrapdoorTokenInt:
    """Equality-test token: the hash-slot trapdoor plus the public key's
    arrays, shared rather than copied."""
    return TrapdoorTokenInt(
        t_a_prime=sk.t_a_prime, a_prime=pk.a_prime, a_list=pk.a_list, b=pk.b, u=pk.u, seed=pk.seed
    )


def _hash_slot_job(td: TrapdoorTokenInt, ct: CtInt, params: ParamsInt) -> tuple:
    _, a_sum = _selector(params, td.b, td.a_list, ct.c1, ct.c2, ct.d)
    return td.a_prime, a_sum, td.t_a_prime, td.u


def test_int(
    td_i: TrapdoorTokenInt,
    td_j: TrapdoorTokenInt,
    ct_i: CtInt,
    ct_j: CtInt,
    params: ParamsInt,
    rng: XofRng,
) -> int:
    """1 iff the two ciphertexts hide the same message (hash-slot equality)."""
    q = params.q
    jobs = [_hash_slot_job(td_i, ct_i, params), _hash_slot_job(td_j, ct_j, params)]
    e_i, e_j = sample_left(jobs, params, rng)
    side_i = _open_slot_int(ct_i.c2, ct_i.c4, e_i, q)
    side_j = _open_slot_int(ct_j.c2, ct_j.c4, e_j, q)
    return int(np.array_equal(side_i, side_j))
