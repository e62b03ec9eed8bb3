"""Decryption and the equality test open a slot by trapdoor inversion.

On honest ciphertexts the opening gives the same bits as the paper's
preimage opening (``conftest.preimage_open_ring`` and
``preimage_open_int``), and a slot whose error is too long is refused with
:class:`RejectNoise`, even under a valid one-time signature.
"""

import dataclasses

import numpy as np
import pytest

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet.errors import RejectNoise
from pkeet.matlattice import matmul_mod
from pkeet.params import derive_int_params, derive_ring_params
from pkeet.ring import RingElement, balanced, get_context, mulmod
from conftest import keeping_ots_keys, preimage_open_int, preimage_open_ring, seeded


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_ring_inversion_matches_preimage_opening(n):
    p = derive_ring_params(128, n, "toy")
    rng = seeded(f"inversion-ring-{n}")
    pk, sk = pr.setup(p, rng)
    for _ in range(3):
        msg = RingElement(rng.uniform_mod(2, n), get_context(p))
        ct = pr.encrypt(pk, msg, p, rng)
        a_h, b_h = pr._tag_shift(p, ct.v, pk.a, pk.b)
        jobs = [(sk.t_a, a_h, pk.u, ct.ct3, ct.ct1), (sk.t_b, b_h, pk.u, ct.ct4, ct.ct2)]
        want = preimage_open_ring(p, jobs, rng)
        assert np.array_equal(pr._open_slots(p, jobs, a_h.tag_hat), want)
        assert np.array_equal(want[0], msg.coeffs)
        assert pr.decrypt(pk, sk, ct, p, rng) == msg


@pytest.mark.parametrize("n", [16, 32])
def test_int_inversion_matches_preimage_opening(n):
    p = derive_int_params(128, n, "toy")
    rng = seeded(f"inversion-int-{n}")
    pk, sk = pi.setup_int(p, rng)
    for _ in range(3):
        msg = rng.uniform_mod(2, p.t_msg)
        ct = pi.encrypt_int(pk, msg, p, rng)
        _, a_sum = pi._selector(p, pk.b, pk.a_list, ct.c1, ct.c2, ct.d)
        jobs = [
            (pk.a, a_sum, sk.t_a, pk.u, ct.c3, ct.c1),
            (pk.a_prime, a_sum, sk.t_a_prime, pk.u, ct.c4, ct.c2),
        ]
        want = preimage_open_int(p, jobs, rng)
        got = pi._open_slots(p, jobs)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(want[0], msg)
        assert np.array_equal(pi.decrypt_int(pk, sk, ct, p, rng), msg)


def test_ring_error_at_its_bounds_still_opens(ring_small):
    # The slot error the check admits that grows most under [T; I]^T: every
    # head coefficient at its bound, signed to meet coefficient 0 of T's
    # longest column, and that column's tail entry at its bound.  Its
    # transformed coefficient is exactly the inversion bound E, the slot
    # still opens to its secret, and one more on a head entry is refused.
    p = ring_small
    ctx, q, base_len = get_context(p), p.q, p.base_len
    rng = seeded("inversion-ring-bounds")
    pk, sk = pr.setup(p, rng)
    trap = sk.t_a
    head, tail = pr._slot_bounds(p)
    col = int(np.abs(trap.t_arr).sum(axis=(0, 2)).argmax())
    t_col = trap.t_arr[:, col]                                   # (base_len, n)
    # Coefficient 0 of t e is t[0] e[0] - sum_(l > 0) t[l] e[n - l].
    err = np.zeros((p.m, p.n), dtype=np.int64)
    err[:base_len, 0] = head * np.sign(t_col[:, 0])
    err[:base_len, 1:] = -head * np.sign(t_col[:, :0:-1])
    err[base_len + col, 0] = tail
    head_hat = ctx.ntt(err[:base_len] % q)
    e_prime = balanced(ctx.intt(
        (mulmod(trap.t_hat, head_hat[:, None], q).sum(axis=0) + ctx.ntt(err[base_len:] % q)) % q
    ), q)
    bound = pr._inversion_bound(p, pr._col_l1(trap))
    assert np.abs(e_prime).max() == e_prime[col, 0] == bound

    (a_h,) = pr._tag_shift(p, rng.uniform_mod(q, 2 * p.n).reshape(2, p.n), pk.a)
    secret, bits = rng.uniform_mod(q, p.n), rng.uniform_mod(2, p.n)
    s_hat = ctx.ntt(secret)
    payload = (ctx.intt(mulmod(ctx.ntt(pk.u), s_hat, q)) + (q // 2) * bits) % q
    for extra, opens in ((0, True), (1, False)):
        slot_err = err.copy()
        slot_err[0, 0] = head + extra
        slot = (ctx.intt(mulmod(a_h.vec_hat, s_hat, q)) + slot_err) % q
        job = [(trap, a_h, pk.u, slot, payload)]
        if opens:
            assert np.array_equal(pr._open_slots(p, job, a_h.tag_hat)[0], bits)
        else:
            with pytest.raises(RejectNoise):
                pr._open_slots(p, job, a_h.tag_hat)


def test_int_error_at_its_bounds_still_opens(int_small):
    # As in the ring scheme: the first-half error that grows most under
    # [R; I]^T meets the inversion bound E exactly and still opens, and one
    # more on an entry of either half is refused.
    p = int_small
    q, m = p.q, p.m
    rng = seeded("inversion-int-bounds")
    pk, sk = pi.setup_int(p, rng)
    trap = sk.t_a
    m_bar = trap.shape[0]
    head, tail = pi._slot_bounds(p)
    r = trap.astype(np.int64)
    col = int(np.abs(r).sum(axis=0).argmax())
    err = np.zeros(2 * m, dtype=np.int64)
    err[:m_bar] = head * np.sign(r[:, col])
    err[m_bar + col] = head
    err[m] = tail
    e_prime = r.T @ err[:m_bar] + err[m_bar:m]
    bound = pi._inversion_bound(p, pi._col_l1(trap))
    assert np.abs(e_prime).max() == e_prime[col] == bound

    secret, bits = rng.uniform_mod(q, p.n), rng.uniform_mod(2, p.t_msg)
    f_s = matmul_mod(np.concatenate([pk.a, pk.b], axis=1).T, secret[:, None], q)[:, 0]
    payload = (matmul_mod(pk.u.T, secret[:, None], q)[:, 0] + (q // 2) * bits) % q
    for index in (None, m_bar + col, m):
        slot_err = err.copy()
        if index is not None:
            slot_err[index] += 1
        job = [(pk.a, pk.b, trap, pk.u, (f_s + slot_err) % q, payload)]
        if index is None:
            assert np.array_equal(pi._open_slots(p, job)[0], bits)
        else:
            with pytest.raises(RejectNoise):
                pi._open_slots(p, job)


def test_ring_slot_moved_by_an_eighth_is_rejected(ring_small, monkeypatch):
    # One coefficient of a vector slot, head or tail row, moved by q/8 and
    # the ciphertext signed again with its own one-time key: the signature
    # holds, and decrypt and test refuse the slot.
    p = ring_small
    rng = seeded("inversion-ring-eighth")
    pk, sk = pr.setup(p, rng)
    td = pr.trapdoor(sk, pk)
    keys = keeping_ots_keys(monkeypatch, pr, "ots_ring_keygen")
    ct = pr.encrypt(pk, RingElement(rng.uniform_mod(2, p.n), get_context(p)), p, rng)
    for slot in ("ct3", "ct4"):
        for row in (0, p.m - 1):
            moved = getattr(ct, slot).copy()
            moved[row, 5] = (moved[row, 5] + p.q // 8) % p.q
            bad = dataclasses.replace(ct, **{slot: moved})
            sig = pr.ots_ring_sign(keys[0], pr._ots_message(p, bad.ct1, bad.ct2, bad.ct3, bad.ct4), p)
            bad = dataclasses.replace(bad, sig=sig)
            with pytest.raises(RejectNoise):
                pr.decrypt(pk, sk, bad, p, rng)
            if slot == "ct4":
                with pytest.raises(RejectNoise):
                    pr.test(td, td, ct, bad, p, rng)
    assert pr.test(td, td, ct, ct, p, rng) == 1


def test_int_slot_moved_by_an_eighth_is_rejected(int_small, monkeypatch):
    # As in the ring scheme, for an entry of each half of each vector slot.
    p = int_small
    rng = seeded("inversion-int-eighth")
    pk, sk = pi.setup_int(p, rng)
    td = pi.trapdoor_int(sk, pk)
    keys = keeping_ots_keys(monkeypatch, pi, "ots_sis_keygen")
    ct = pi.encrypt_int(pk, rng.uniform_mod(2, p.t_msg), p, rng)
    for slot in ("c3", "c4"):
        for index in (3, p.m + 3):
            moved = getattr(ct, slot).copy()
            moved[index] = (moved[index] + p.q // 8) % p.q
            bad = dataclasses.replace(ct, **{slot: moved})
            digest = pi._ots_digest(p, bad.c1, bad.c2, bad.c3, bad.c4)
            bad = dataclasses.replace(bad, u=pi.ots_sis_sign(keys[0], digest, p) % p.q)
            with pytest.raises(RejectNoise):
                pi.decrypt_int(pk, sk, bad, p, rng)
            if slot == "c4":
                with pytest.raises(RejectNoise):
                    pi.test_int(td, td, ct, bad, p, rng)
    assert pi.test_int(td, td, ct, ct, p, rng) == 1
