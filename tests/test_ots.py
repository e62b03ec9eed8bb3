"""One-time signatures: completeness, bounds, and rejection of forgeries."""

import numpy as np
import pytest

from pkeet.errors import InvalidMessage
from pkeet.hashing import hash_to_sparse, hash_weighted
from pkeet.matlattice import mat_uniform
from pkeet.ots import (
    ots_ring_keygen,
    ots_ring_sign,
    ots_ring_verify,
    ots_sis_keygen,
    ots_sis_sign,
    ots_sis_verify,
)
from pkeet.ring import balanced, get_context, sample_uniform
from conftest import seeded


@pytest.fixture(scope="module")
def ring_env(ring_small):
    ctx = get_context(ring_small)
    rng = seeded("ots-ring-env")
    h_row = np.stack(
        [sample_uniform(ctx, rng).coeffs for _ in range(ring_small.base_len)]
    )
    return ring_small, ctx, ctx.ntt(h_row)


def test_ring_sign_verify_rounds(ring_env):
    params, ctx, h_row = ring_env
    rng = seeded("ots-ring-rounds")
    for i in range(50):
        keys = ots_ring_keygen(h_row, params, rng)
        msg = hash_to_sparse(params, b"m-%d" % i)
        sig = ots_ring_sign(keys, msg, params)
        assert ots_ring_verify(h_row, keys.pub, msg, sig, params)


def test_ring_key_bounds(ring_env):
    params, ctx, h_row = ring_env
    rng = seeded("ots-ring-bounds")
    keys = ots_ring_keygen(h_row, params, rng)
    b = params.b_ots
    assert int(np.abs(balanced(keys.k1, ctx.q)).max()) <= b
    assert int(np.abs(balanced(keys.k2, ctx.q)).max()) <= params.delta_w * b


def test_ring_wrong_message_rejected(ring_env):
    params, ctx, h_row = ring_env
    rng = seeded("ots-ring-wrong")
    keys = ots_ring_keygen(h_row, params, rng)
    msg = hash_to_sparse(params, b"signed")
    other = hash_to_sparse(params, b"presented")
    sig = ots_ring_sign(keys, msg, params)
    assert not ots_ring_verify(h_row, keys.pub, other, sig, params)


def test_ring_tampered_signature_rejected(ring_env):
    params, ctx, h_row = ring_env
    rng = seeded("ots-ring-tamper")
    keys = ots_ring_keygen(h_row, params, rng)
    msg = hash_to_sparse(params, b"tamper")
    sig = ots_ring_sign(keys, msg, params)
    for trial in range(100):
        bad = sig.copy()
        r = int(rng.uniform_mod(bad.shape[0], 1)[0])
        c = int(rng.uniform_mod(bad.shape[1], 1)[0])
        bad[r, c] = (bad[r, c] + 1 + int(rng.uniform_mod(params.q - 1, 1)[0])) % params.q
        assert not ots_ring_verify(h_row, keys.pub, msg, bad, params)


def test_ring_dense_message_rejected(ring_env):
    params, ctx, h_row = ring_env
    rng = seeded("ots-ring-dense")
    keys = ots_ring_keygen(h_row, params, rng)
    dense = sample_uniform(ctx, rng)
    with pytest.raises(InvalidMessage):
        ots_ring_sign(keys, dense, params)


def test_ring_strict_profile_bound():
    from pkeet.params import derive_ring_params

    params = derive_ring_params(128, 64, "strict")
    ctx = get_context(params)
    rng = seeded("ots-ring-strict")
    h_row = np.stack(
        [sample_uniform(ctx, rng).coeffs for _ in range(params.base_len)]
    )
    h_hat = ctx.ntt(h_row)
    keys = ots_ring_keygen(h_hat, params, rng)
    msg = hash_to_sparse(params, b"strict")
    sig = ots_ring_sign(keys, msg, params)
    assert ots_ring_verify(h_hat, keys.pub, msg, sig, params)
    assert params.b_ots > 1


def test_sis_sign_verify_rounds(int_small):
    rng = seeded("ots-sis-rounds")
    h_mat = mat_uniform(int_small.q, int_small.n, int_small.m, rng)
    for i in range(50):
        keys = ots_sis_keygen(h_mat, int_small, rng)
        msg = hash_weighted(int_small, b"m-%d" % i)
        sig = ots_sis_sign(keys, msg, int_small)
        assert int(np.abs(sig).max()) <= int_small.w_sig * int_small.b_sig
        assert ots_sis_verify(h_mat, keys.pub, msg, sig, int_small)


def test_sis_wrong_weight_rejected(int_small):
    rng = seeded("ots-sis-weight")
    h_mat = mat_uniform(int_small.q, int_small.n, int_small.m, rng)
    keys = ots_sis_keygen(h_mat, int_small, rng)
    msg = np.zeros(int_small.k_sig, dtype=np.int64)
    msg[: int_small.w_sig + 1] = 1
    with pytest.raises(InvalidMessage):
        ots_sis_sign(keys, msg, int_small)


def test_sis_tampered_signature_rejected(int_small):
    rng = seeded("ots-sis-tamper")
    h_mat = mat_uniform(int_small.q, int_small.n, int_small.m, rng)
    keys = ots_sis_keygen(h_mat, int_small, rng)
    msg = hash_weighted(int_small, b"victim")
    sig = ots_sis_sign(keys, msg, int_small)
    for _ in range(50):
        bad = sig.copy()
        pos = int(rng.uniform_mod(bad.size, 1)[0])
        bad[pos] += 1 + int(rng.uniform_mod(3, 1)[0])
        assert not ots_sis_verify(h_mat, keys.pub, msg, bad, int_small)
    # An oversized but congruent vector must also fail the length gate.
    big = sig + int_small.q
    assert not ots_sis_verify(h_mat, keys.pub, msg, big, int_small)


def test_sis_wrong_message_rejected(int_small):
    rng = seeded("ots-sis-wrong")
    h_mat = mat_uniform(int_small.q, int_small.n, int_small.m, rng)
    keys = ots_sis_keygen(h_mat, int_small, rng)
    msg = hash_weighted(int_small, b"signed")
    other = hash_weighted(int_small, b"presented")
    sig = ots_sis_sign(keys, msg, int_small)
    assert not ots_sis_verify(h_mat, keys.pub, other, sig, int_small)


def test_keygen_is_seed_deterministic(ring_env):
    params, ctx, h_row = ring_env
    a = ots_ring_keygen(h_row, params, seeded("det"))
    b = ots_ring_keygen(h_row, params, seeded("det"))
    assert np.array_equal(a.k1, b.k1) and np.array_equal(a.k2, b.k2)
    assert a.pub[0] == b.pub[0] and a.pub[1] == b.pub[1]
