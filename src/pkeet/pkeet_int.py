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
both slots, and an equality test the hash slot of each ciphertext, by
trapdoor inversion (:func:`_open_slots`), as in the ring scheme: no
preimage is sampled and no randomness drawn.  Encryption keeps
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

from .errors import InvalidMessage, ParameterOverflow, RejectHash, RejectNoise, RejectSignature
from .hashing import hash_message, hash_pm_one, hash_weighted, words
from .matlattice import matmul_mod, trap_gen_int, _exact_matmul
from .ots import ots_sis_keygen, ots_sis_sign, ots_sis_verify
from .params import ParamsInt
from .ring import balanced, decode_bits, decode_gadget
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
    """Gadget trapdoors ``R`` of the two trapdoored matrices, each held as
    float64 (:func:`~pkeet.matlattice.trap_gen_int`)."""

    t_a: np.ndarray            # (m_bar, n k)
    t_a_prime: np.ndarray      # (m_bar, n k)


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

    t_a_prime: np.ndarray      # (m_bar, n k), R'
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


def _noise_sd(params: ParamsInt) -> float:
    """Standard deviation of encryption noise before rounding: ``alpha q``
    as a width."""
    return params.alpha * params.q / math.sqrt(2.0 * math.pi)


def _noise(count: int, params: ParamsInt, rng: XofRng) -> np.ndarray:
    """Signed rounded-Gaussian noise: round(q * X) for X of width alpha."""
    return np.rint(rng.normal(count) * _noise_sd(params)).astype(np.int64)


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


def _slot_bounds(params: ParamsInt) -> tuple[int, int]:
    """Bounds on the two halves of a vector slot's error: a rounded draw
    within ``t_tail`` standard deviations, and ``t_tail`` standard
    deviations of a signed sum of ``l m`` such draws (each ``S_i`` entry is a
    sign) taken at ``sd + 1/2``, which covers the rounding."""
    sd = _noise_sd(params)
    head = math.floor(params.t_tail * sd + 0.5)
    tail = math.floor(params.t_tail * (sd + 0.5) * math.sqrt(params.l * params.m))
    return head, tail


def _col_l1(r: np.ndarray) -> int:
    """Largest l1 norm of a column of ``R``."""
    return int(np.abs(r).sum(axis=0).max())


def _inversion_bound(params: ParamsInt, col_l1: int) -> int:
    """Bound on every entry of ``R^T y_bar + y_tail`` for a first half ``y``
    within :func:`_slot_bounds` and an ``R`` whose columns have l1 norm at
    most ``col_l1``."""
    head, _ = _slot_bounds(params)
    return col_l1 * head + head


def _open_slots(
    params: ParamsInt,
    jobs: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> list[np.ndarray]:
    """Bits hidden in each job's payload slot, for jobs ``(A, M1, R, U,
    vector slot, payload)``: invert the vector slot ``(A | M1)^T s + e`` to
    ``s``, check ``e`` against its tail bounds, and decode ``payload - U^T s``.

    ``A [R; I] = G`` makes ``R^T c[:m_bar] + c[m_bar:m]`` equal to
    ``G^T s + R^T y_bar + y_tail``, from which
    :func:`~pkeet.ring.decode_gadget` reads each coordinate of ``s`` while
    the error stays within :func:`_inversion_bound`.  So an ``s`` whose
    error passes the check is always the one decoded, and no other can pass:
    the opening depends on the public matrices and the slot alone, not on
    which trapdoor opens it.  Raises :class:`RejectNoise` when an error
    entry exceeds its bound.
    """
    q, n, k, m = params.q, params.n, params.k, params.m
    head, tail = _slot_bounds(params)
    opened = []
    for a_mat, m1_mat, r, u_mat, slot, payload in jobs:
        m_bar = r.shape[0]
        rc = _exact_matmul(r.T, balanced(slot[:m_bar], q)[:, None], q)[:, 0]
        w = (rc + slot[m_bar:m]) % q                               # (n k,): G^T s + error
        s = decode_gadget(w.reshape(n, k).T, q, _inversion_bound(params, _col_l1(r)))
        f_s = matmul_mod(np.concatenate([a_mat, m1_mat], axis=1).T, s[:, None], q)[:, 0]
        err = np.abs(balanced((slot - f_s) % q, q))
        if (err[:m] > head).any() or (err[m:] > tail).any():
            raise RejectNoise("a vector slot's error exceeds its tail bound")
        opened.append(decode_bits(payload - matmul_mod(u_mat.T, s[:, None], q)[:, 0], q))
    return opened


def _check_signature(pk_a: np.ndarray, ct: CtInt, params: ParamsInt) -> None:
    d_sel = _ots_digest(params, ct.c1, ct.c2, ct.c3, ct.c4)
    sig = balanced(ct.u % params.q, params.q)
    if not ots_sis_verify(pk_a, ct.d, d_sel, sig, params):
        raise RejectSignature("signature vector fails the one-time check")


def decrypt_int(
    pk: PkInt, sk: SkInt, ct: CtInt, params: ParamsInt, rng: XofRng
) -> np.ndarray:
    """Recover the message bits, or raise a typed rejection.

    Both slots are opened by trapdoor inversion (:func:`_open_slots`), which
    draws no randomness: ``rng`` is accepted for call compatibility and
    never read.
    """
    _check_signature(pk.a, ct, params)

    _, a_sum = _selector(params, pk.b, pk.a_list, ct.c1, ct.c2, ct.d)
    msg, hash_bits = _open_slots(params, [
        (pk.a, a_sum, sk.t_a, pk.u, ct.c3, ct.c1),
        (pk.a_prime, a_sum, sk.t_a_prime, pk.u, ct.c4, ct.c2),
    ])
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
    return td.a_prime, a_sum, td.t_a_prime, td.u, ct.c4, ct.c2


def test_int(
    td_i: TrapdoorTokenInt,
    td_j: TrapdoorTokenInt,
    ct_i: CtInt,
    ct_j: CtInt,
    params: ParamsInt,
    rng: XofRng,
) -> int:
    """1 iff the two ciphertexts hide the same message (hash-slot equality).

    Each hash slot is opened by trapdoor inversion (:func:`_open_slots`),
    which draws no randomness: ``rng`` is accepted for call compatibility
    and never read.  Raises :class:`RejectNoise` when a slot's error
    exceeds its tail bound.
    """
    side_i, side_j = _open_slots(
        params, [_hash_slot_job(td_i, ct_i, params), _hash_slot_job(td_j, ct_j, params)]
    )
    return int(np.array_equal(side_i, side_j))
