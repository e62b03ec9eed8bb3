"""Strong one-time signatures: a ring variant and a matrix variant.

Both follow the same shape.  The secret key is a small matrix ``K``; the
public key is its image ``H K`` under a public compressing map ``H``.  A
signature on ``msg`` is the short combination ``s = K [msg, 1]^T`` and
verification checks the linear identity ``H s = (H K) [msg, 1]^T`` together
with membership of ``s`` in the short-vector set.  Each key must sign at
most one message; callers enforce the one-time discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMessage
from .params import ParamsInt, ParamsRing
from .ring import RingContext, balanced, dot_ntt, get_context, mulmod
from .rng import XofRng


def _uniform_signed(bound: int, shape: tuple[int, ...], rng: XofRng) -> np.ndarray:
    """Entries uniform on the integer interval [-bound, bound]."""
    size = int(np.prod(shape))
    return (rng.uniform_mod(2 * bound + 1, size) - bound).reshape(shape)


# ---------------------------------------------------------------------------
# Ring variant
# ---------------------------------------------------------------------------


@dataclass
class OtsRingKeys:
    """Secret columns ``k1`` (bound b) and ``k2`` (bound w*b), public pair
    ``(H k1, H k2)`` under the row ``H`` used at generation time, and the
    NTT slots of ``k1``, which signing reuses."""

    k1: np.ndarray             # (rows, n) balanced, |entries| <= b
    k2: np.ndarray             # (rows, n) balanced, |entries| <= w*b
    k1_hat: np.ndarray         # (rows, n) NTT slots of k1 mod q
    pub: np.ndarray            # (2, n) canonical
    ctx: RingContext


def ots_ring_keygen(
    h_hat: np.ndarray, params: ParamsRing, rng: XofRng
) -> OtsRingKeys:
    """Fresh one-time key against the public row, passed as NTT slots of
    shape (base_len, n)."""
    ctx = get_context(params)
    rows = h_hat.shape[0]
    b, w = params.b_ots, params.delta_w
    k1 = _uniform_signed(b, (rows, ctx.n), rng)
    k2 = _uniform_signed(w * b, (rows, ctx.n), rng)
    k_hat = ctx.ntt(np.stack([k1, k2]) % ctx.q)                     # (2, rows, n)
    pub = ctx.intt(dot_ntt(h_hat, k_hat, ctx))
    return OtsRingKeys(k1=k1, k2=k2, k1_hat=k_hat[0], pub=pub, ctx=ctx)


def _check_ring_message(msg: np.ndarray, params: ParamsRing) -> None:
    bal = balanced(msg, params.q)
    if np.abs(bal).max(initial=0) > 1:
        raise InvalidMessage("message coefficients must lie in {-1, 0, 1}")
    if int(np.abs(bal).sum()) > params.delta_w:
        raise InvalidMessage(
            f"message weight exceeds the sparse bound {params.delta_w}"
        )


def ots_ring_sign(
    keys: OtsRingKeys, msg: np.ndarray, params: ParamsRing
) -> np.ndarray:
    """Signature ``s = k1 * msg + k2`` as a (rows, n) canonical array."""
    _check_ring_message(msg, params)
    ctx = keys.ctx
    prod = ctx.intt(mulmod(keys.k1_hat, ctx.ntt(msg), ctx.q))
    return (prod + keys.k2) % ctx.q


def ots_ring_verify(
    h_hat: np.ndarray,
    pub: np.ndarray,
    msg: np.ndarray,
    sig: np.ndarray,
    params: ParamsRing,
) -> bool:
    """Accept iff the signature is short and satisfies the linear identity
    against the public row, passed as NTT slots."""
    ctx = get_context(params)
    sig = np.asarray(sig, dtype=np.int64) % ctx.q
    bound = 2 * params.delta_w * params.b_ots
    if int(np.abs(balanced(sig, ctx.q)).max(initial=0)) > bound:
        return False
    rows = sig.shape[0]
    hats = ctx.ntt(np.concatenate([sig, pub, msg[None]]))
    sig_hat, (pub1_hat, pub2_hat, m_hat) = hats[:rows], hats[rows:]
    lhs = dot_ntt(h_hat, sig_hat, ctx)
    rhs = (mulmod(pub1_hat, m_hat, ctx.q) + pub2_hat) % ctx.q
    return bool(np.array_equal(lhs, rhs))


# ---------------------------------------------------------------------------
# Matrix variant
# ---------------------------------------------------------------------------


@dataclass
class OtsSisKeys:
    """Secret ``K`` with entries in [-b_sig, b_sig]; public ``K' = H K``."""

    key: np.ndarray            # (m, k_sig) signed small
    pub: np.ndarray            # (n, k_sig) residues mod q


def ots_sis_keygen(h_mat: np.ndarray, params: ParamsInt, rng: XofRng) -> OtsSisKeys:
    """Fresh one-time key against the public matrix (shape (n, m))."""
    h_mat = np.asarray(h_mat, dtype=np.int64)
    m = h_mat.shape[1]
    key = _uniform_signed(params.b_sig, (m, params.k_sig), rng)
    # |sum| <= m * b_sig * (q-1) stays far below 2^63 for supported sizes.
    pub = (h_mat @ key) % params.q
    return OtsSisKeys(key=key, pub=pub)


def _check_sis_message(msg: np.ndarray, params: ParamsInt) -> np.ndarray:
    msg = np.asarray(msg, dtype=np.int64)
    if msg.shape != (params.k_sig,) or ((msg != 0) & (msg != 1)).any():
        raise InvalidMessage(f"message must be a 0/1 vector of length {params.k_sig}")
    if int(msg.sum()) != params.w_sig:
        raise InvalidMessage(f"message weight must be exactly {params.w_sig}")
    return msg


def ots_sis_sign(keys: OtsSisKeys, msg: np.ndarray, params: ParamsInt) -> np.ndarray:
    """Signature ``s = K msg`` over the integers; infinity norm <= w_sig*b_sig."""
    msg = _check_sis_message(msg, params)
    return keys.key @ msg


def ots_sis_verify(
    h_mat: np.ndarray,
    pub: np.ndarray,
    msg: np.ndarray,
    sig: np.ndarray,
    params: ParamsInt,
) -> bool:
    """Accept iff the signature is short and ``H s = K' msg`` mod q."""
    msg = np.asarray(msg, dtype=np.int64)
    if msg.shape != (params.k_sig,) or ((msg != 0) & (msg != 1)).any():
        return False
    sig = np.asarray(sig, dtype=np.int64)
    if sig.shape != (h_mat.shape[1],):
        return False
    if int(np.abs(sig).max(initial=0)) > params.w_sig * params.b_sig:
        return False
    lhs = (np.asarray(h_mat, dtype=np.int64) @ sig) % params.q
    rhs = (np.asarray(pub, dtype=np.int64) @ msg) % params.q
    return bool(np.array_equal(lhs, rhs))
