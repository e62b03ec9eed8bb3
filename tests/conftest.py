"""Shared fixtures: small parameter sets and seeded rngs for fast tests, and
the reference inverse-CDF kernel and lookup, gadget walks, ring kernels,
the paper's preimage openings of a ciphertext slot and the full-transform
inversion openings."""

import math

import numpy as np
import pytest

from pkeet import pkeet_int, pkeet_ring
from pkeet.errors import InternalError, RejectNoise
from pkeet.matlattice import _exact_matmul, _mul_signed, matmul_mod, sample_left
from pkeet.params import derive_int_params, derive_ring_params
from pkeet.ring import (
    balanced,
    decode_bits,
    decode_gadget,
    dot_ntt,
    gadget_columns,
    get_context,
    invmod,
    mulmod,
)
from pkeet.rng import XofRng
from pkeet.sampling import (
    _gadget_gs,
    _half_gaussian_cdf,
    _reject_round,
    _walk_directions,
    bit_decompose,
    gadget_basis,
    sample_z_reject,
)
from pkeet.trapdoor_ring import sample_pre


@pytest.fixture(scope="session")
def ring_small():
    """Ring parameters at n=64: full structure, fraction of the cost."""
    return derive_ring_params(128, 64, "toy")


@pytest.fixture(scope="session")
def ring_toy():
    return derive_ring_params(128, 256, "toy")


@pytest.fixture(scope="session")
def int_small():
    """Integer-lattice parameters at n=16 (m=896): fast trapdoor tests."""
    return derive_int_params(128, 16, "toy")


@pytest.fixture(scope="session")
def int_toy():
    return derive_int_params(128, 32, "toy")


@pytest.fixture
def rng():
    return XofRng(b"\x42" * 32)


def seeded(label: str) -> XofRng:
    import hashlib

    return XofRng(hashlib.shake_256(b"pkeet-tests:" + label.encode()).digest(32))


def cdt_batch_reference(width, centers, rng, tail_cut):
    """Row-major inverse-CDF kernel, one window per center, kept as the
    exactness reference (and to rebuild the retired nonzero-center draws)."""
    reach = tail_cut * width
    span = min(reach, 5.5 * width)
    lo = np.ceil(centers - span).astype(np.int64)
    window = int(math.floor(2.0 * span)) + 1
    offsets = np.arange(window, dtype=np.int64)
    cand = lo[:, None] + offsets[None, :]
    delta = cand.astype(np.float64) - centers[:, None]
    logp = -math.pi * delta * delta / (width * width)
    np.exp(logp, out=logp)
    if reach < span + 1.0:
        logp[np.abs(delta) > reach] = 0.0
    cdf = np.cumsum(logp, axis=1)
    totals = cdf[:, -1]
    if not (totals > 0).all():
        raise InternalError("empty discrete Gaussian window")
    u = rng.uniform01(centers.size) * totals
    idx = (cdf < u[:, None]).sum(axis=1)
    idx = np.minimum(idx, window - 1)
    return cand[np.arange(centers.size), idx]


def stream_uniforms(words):
    """``(w >> 11) 2^-53``: the uniform in [0, 1) of each 64-bit stream word."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def cdf_index_reference(cdf, u):
    """Bisection of each scaled uniform ``fl(u * cdf[-1])`` in a CDF row:
    the inverse-CDF index that the samplers' bucket tables give, kept as
    their exactness reference."""
    return np.searchsorted(cdf, u * cdf[-1], side="left")


def gadget_walk_reference(width, targets, q, rng):
    """Pipelined gadget walk written per target, kept as the exactness
    reference for ``sample_g_batch``.

    The top level is one ``sample_z_reject`` call.  Below it, each round
    gives every unfinished target, in target order, one candidate at its
    own level, centred by one matvec of that target's full residual; an
    accepted target subtracts the whole basis column from its residual and
    moves down a level.
    """
    k = int(q).bit_length()
    basis = gadget_basis(q, k)
    dirs, gs_norms = _walk_directions(basis)
    out = bit_decompose(np.asarray(targets, dtype=np.int64) % q, k)
    residual = -out.astype(np.float64)
    top = sample_z_reject(width / float(gs_norms[-1]), residual @ dirs[:, -1], rng)
    out += top[:, None] * basis[None, :, -1]
    residual -= top[:, None] * basis[None, :, -1].astype(np.float64)
    widths = width / gs_norms[:-1]
    s0 = float(widths.max())
    coef_t = -math.pi / (widths * widths)
    coef_z = coef_t + math.pi / (s0 * s0)
    row = _half_gaussian_cdf(s0)
    level = [k - 2] * len(out)
    while True:
        pending = [j for j in range(len(out)) if level[j] >= 0]
        if not pending:
            return out
        levels = np.array([level[j] for j in pending])
        centers = np.array([residual[j] @ dirs[:, level[j]] for j in pending])
        floor = np.floor(centers)
        z, accept = _reject_round(row, centers - floor, coef_t[levels], coef_z[levels], rng)
        for j, i, z_j, ok in zip(pending, levels, z + floor.astype(np.int64), accept):
            if ok:
                out[j] += z_j * basis[:, i]
                residual[j] -= z_j * basis[:, i]
                level[j] -= 1


def gadget_walk_dense(width, targets, q, rng):
    """Level-by-level gadget walk: each level draws every target at that
    level's own width and subtracts its whole basis column from the full
    (N, k) state.  It reads the stream in another order than
    ``sample_g_batch``, so it is kept as a distribution reference."""
    k = int(q).bit_length()
    basis = gadget_basis(q, k)
    gs_q, gs_norms = _gadget_gs(basis)
    out = bit_decompose(np.asarray(targets, dtype=np.int64) % q, k)
    residual = -out.astype(np.float64)
    for i in range(k - 1, -1, -1):
        level_width = width / float(gs_norms[i])
        level_centers = residual @ gs_q[:, i] / float(gs_norms[i])
        z = sample_z_reject(level_width, level_centers, rng)
        out += z[:, None] * basis[None, :, i]
        residual -= z[:, None].astype(np.float64) * basis[None, :, i].astype(np.float64)
    return out


def mulmod_reference(a, b, q):
    """Float-quotient product reduced by one final ``% q``, kept as the
    exactness reference for ``ring.mulmod``."""
    au = a.astype(np.uint64)
    bu = np.asarray(b, dtype=np.int64).astype(np.uint64)
    low = au * bu
    quot = (a.astype(np.float64) * np.asarray(b, dtype=np.float64) / q).astype(np.uint64)
    rem = (low - quot * np.uint64(q)).astype(np.int64)
    return rem % q


def ntt_reference(ctx, coeffs):
    """Copying butterflies with ``% q`` after every sum, kept as the
    exactness reference for ``RingContext.ntt``."""
    a = np.array(coeffs, dtype=np.int64)
    n, q = ctx.n, ctx.q
    batch = a.shape[:-1]
    t = n
    m = 1
    while m < n:
        t >>= 1
        v = a.reshape(*batch, m, 2, t)
        w = ctx._psi_rev[m : 2 * m].reshape(m, 1)
        even = v[..., 0, :].copy()
        odd = mulmod_reference(v[..., 1, :], w, q)
        v[..., 0, :] = (even + odd) % q
        v[..., 1, :] = (even - odd) % q
        m <<= 1
    return a


def intt_reference(ctx, evals):
    """Reference for ``RingContext.intt``, in the style of :func:`ntt_reference`."""
    a = np.array(evals, dtype=np.int64)
    n, q = ctx.n, ctx.q
    batch = a.shape[:-1]
    t = 1
    m = n
    while m > 1:
        h = m >> 1
        v = a.reshape(*batch, h, 2, t)
        w = ctx._inv_psi_rev[h : 2 * h].reshape(h, 1)
        upper = v[..., 0, :].copy()
        lower = v[..., 1, :].copy()
        v[..., 0, :] = (upper + lower) % q
        v[..., 1, :] = mulmod_reference((upper - lower) % q, w, q)
        t <<= 1
        m = h
    return mulmod_reference(a, np.int64(ctx._n_inv), q)


def keeping_ots_keys(monkeypatch, module, name: str) -> list:
    """Record the one-time key pairs that ``module.<name>`` hands out, so a
    test can sign a changed ciphertext again with its own key."""
    keys, keygen = [], getattr(module, name)

    def recorded(*args):
        keys.append(keygen(*args))
        return keys[-1]

    monkeypatch.setattr(module, name, recorded)
    return keys


def preimage_open_ring(params, jobs, rng):
    """The paper's ``Dec`` opening of ring slots, kept as the oracle for
    trapdoor inversion: for jobs ``(trapdoor, tagged vector a_h, u, vector
    slot, payload)``, the bits of ``payload - <slot, x>`` for a Gaussian
    preimage ``x`` of ``u`` under ``a_h`` (one two-job ``sample_pre`` call)."""
    ctx = get_context(params)
    x_hat = sample_pre([(trap, av, u) for trap, av, u, _, _ in jobs], params, rng)
    slots = np.stack([slot for *_, slot, _ in jobs])
    inner = ctx.intt(dot_ntt(ctx.ntt(slots), x_hat, ctx))
    return decode_bits(np.stack([payload for *_, payload in jobs]) - inner, ctx.q)


def preimage_open_int(params, jobs, rng):
    """The paper's ``Dec`` opening of integer slots, kept as the oracle for
    trapdoor inversion: for jobs ``(A, M1, trap, U, vector slot, payload)``,
    the bits of ``payload - e^T slot`` for a Gaussian preimage ``e`` of
    ``U`` under ``(A | M1)`` (one ``sample_left`` call)."""
    es = sample_left([job[:4] for job in jobs], params, rng)
    return [
        decode_bits(payload - _mul_signed(e.T, slot[:, None], params.q)[:, 0], params.q)
        for e, (*_, slot, payload) in zip(es, jobs)
    ]


def full_open_ring(params, jobs, tag_hat):
    """Ring inversion through the whole slot, kept as the exactness
    reference for ``pkeet_ring._open_slots``: every gadget column of
    ``[T; I]^T`` of the transformed slot, the decoder's columns picked from
    them, and the error recomputed in NTT slots from the transformed slot,
    payload and ``u``."""
    ctx = get_context(params)
    q, base_len, m = ctx.q, params.base_len, params.m
    hat = ctx.ntt(np.stack([
        np.concatenate([slot, payload[None], u[None]]) for _, _, u, slot, payload in jobs
    ]))                                                               # (J, m + 2, n)
    t_hat = np.stack([trap.t_hat for trap, *_ in jobs])               # (J, base_len, k, n)
    w = ctx.intt((mulmod(t_hat, hat[:, :base_len, None], q).sum(axis=1) + hat[:, base_len:m]) % q)
    hs = []
    for w_j, (trap, *_) in zip(w, jobs):
        bound = pkeet_ring._inversion_bound(params, pkeet_ring._col_l1(trap))
        hs.append(decode_gadget(w_j[gadget_columns(q, bound)], q, bound))
    s_hat = mulmod(ctx.ntt(np.stack(hs)), invmod(tag_hat, q), q)
    vec_u_hat = np.concatenate([np.stack([av.vec_hat for _, av, *_ in jobs]), hat[:, -1:]], axis=1)
    rest = ctx.intt((hat[:, :-1] - mulmod(vec_u_hat, s_hat[:, None], q)) % q)
    err = np.abs(balanced(rest[:, :m], q))
    head, tail = pkeet_ring._slot_bounds(params)
    if (err[:, :base_len] > head).any() or (err[:, base_len:] > tail).any():
        raise RejectNoise("a vector slot's error exceeds its tail bound")
    return decode_bits(rest[:, m], q)


def full_open_int(params, jobs):
    """Integer inversion through every entry of ``R^T c[:m_bar] +
    c[m_bar:m]``, kept as the exactness reference for
    ``pkeet_int._open_slots``: all ``n k`` gadget entries formed with the
    whole of ``R``, then the decoder's columns picked from them."""
    q, n, k, m = params.q, params.n, params.k, params.m
    head, tail = pkeet_int._slot_bounds(params)
    opened = []
    for a_mat, m1_mat, r, u_mat, slot, payload in jobs:
        m_bar = r.shape[0]
        rc = _exact_matmul(r.T, balanced(slot[:m_bar], q)[:, None], q)[:, 0]
        w = ((rc + slot[m_bar:m]) % q).reshape(n, k).T                # (k, n): G^T s + error
        bound = pkeet_int._inversion_bound(params, pkeet_int._col_l1(r))
        s = decode_gadget(w[gadget_columns(q, bound)], q, bound)
        f_s = matmul_mod(np.concatenate([a_mat, m1_mat], axis=1).T, s[:, None], q)[:, 0]
        err = np.abs(balanced((slot - f_s) % q, q))
        if (err[:m] > head).any() or (err[m:] > tail).any():
            raise RejectNoise("a vector slot's error exceeds its tail bound")
        opened.append(decode_bits(payload - matmul_mod(u_mat.T, s[:, None], q)[:, 0], q))
    return opened
