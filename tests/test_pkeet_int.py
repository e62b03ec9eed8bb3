"""Integer-lattice scheme end to end (small n=16 instance for speed)."""

import dataclasses

import numpy as np
import pytest

from pkeet import matlattice as ml
from pkeet import pkeet_int as pi
from pkeet.errors import InvalidMessage, RejectHash, RejectNoise, RejectSignature
from conftest import seeded


@pytest.fixture(scope="module")
def user(int_small):
    rng = seeded("int-user")
    return pi.setup_int(int_small, rng)


def test_round_trip(int_small, user):
    pk, sk = user
    rng = seeded("int-roundtrip")
    for _ in range(3):
        msg = rng.uniform_mod(2, int_small.t_msg)
        ct = pi.encrypt_int(pk, msg, int_small, rng)
        assert np.array_equal(pi.decrypt_int(pk, sk, ct, int_small, rng), msg)


def test_non_binary_message_rejected(int_small, user):
    pk, _ = user
    rng = seeded("int-badmsg")
    with pytest.raises(InvalidMessage):
        pi.encrypt_int(pk, rng.uniform_mod(5, int_small.t_msg) + 1, int_small, rng)
    with pytest.raises(InvalidMessage):
        pi.encrypt_int(pk, np.zeros(int_small.t_msg + 1, dtype=np.int64), int_small, rng)


def test_each_component_tamper_rejects(int_small, user):
    # A word of D in a column the signed digest does not select leaves the
    # signature valid; it moves the selector, so the noise check rejects.
    pk, sk = user
    rng = seeded("int-tamper")
    msg = rng.uniform_mod(2, int_small.t_msg)
    ct = pi.encrypt_int(pk, msg, int_small, rng)
    for field in ("c1", "c2", "c3", "c4", "u", "d"):
        bad = pi.CtInt(
            c1=ct.c1.copy(), c2=ct.c2.copy(), c3=ct.c3.copy(),
            c4=ct.c4.copy(), u=ct.u.copy(), d=ct.d.copy(),
        )
        arr = getattr(bad, field).reshape(-1)
        arr[0] = (arr[0] + 1) % int_small.q
        with pytest.raises((RejectSignature, RejectHash, RejectNoise)):
            pi.decrypt_int(pk, sk, bad, int_small, rng)
    # Mix and match: each component taken from a second valid ciphertext
    # under the same key.  Each binding hash moves with every component
    # it covers.
    other = pi.encrypt_int(pk, rng.uniform_mod(2, int_small.t_msg), int_small, rng)
    swapped = {
        field: dataclasses.replace(ct, **{field: getattr(other, field)})
        for field in ("c1", "c2", "c3", "c4", "u", "d")
    }
    selector = lambda c: pi._selector(int_small, pk.b, pk.a_list, c.c1, c.c2, c.d)[0]
    digest = lambda c: pi._ots_digest(int_small, c.c1, c.c2, c.c3, c.c4)
    for binding, fields in ((selector, ["c1", "c2", "d"]), (digest, ["c1", "c2", "c3", "c4"])):
        for field in fields:
            assert not np.array_equal(binding(swapped[field]), binding(ct))
    for bad in swapped.values():
        with pytest.raises((RejectSignature, RejectHash, RejectNoise)):
            pi.decrypt_int(pk, sk, bad, int_small, rng)


def test_equality_token_truth_table(int_small, user):
    pk, sk = user
    rng = seeded("int-table")
    other = pi.setup_int(int_small, rng)
    pk2, sk2 = other
    td1 = pi.trapdoor_int(sk, pk)
    td2 = pi.trapdoor_int(sk2, pk2)
    msg = rng.uniform_mod(2, int_small.t_msg)
    different = (msg + 1) % 2
    ct_a = pi.encrypt_int(pk, msg, int_small, rng)
    ct_b = pi.encrypt_int(pk2, msg, int_small, rng)
    ct_c = pi.encrypt_int(pk2, different, int_small, rng)
    assert pi.test_int(td1, td2, ct_a, ct_b, int_small, rng) == 1
    assert pi.test_int(td1, td2, ct_a, ct_c, int_small, rng) == 0
    assert pi.test_int(td1, td1, ct_a, ct_a, int_small, rng) == 1


def test_token_excludes_message_trapdoor(int_small, user):
    pk, sk = user
    td = pi.trapdoor_int(sk, pk)
    assert not hasattr(td, "t_a")
    assert td.t_a_prime is sk.t_a_prime


def test_sign_sum_matches_unpacked_signs(int_small):
    # At an odd m the pad bits past m^2 are ignored.  Random, all +1 and
    # all -1 selectors; y just below and just above the float64 switch
    # (bound m max|S| max|y| = 2^53), on the int64 path, and past 2^62,
    # where only the residue mod q is exact.
    q = int_small.q
    rng = seeded("sign-sum")
    m, count = 23, 16
    packed = [rng.bytes((m * m + 7) // 8) for _ in range(count)]
    signs = [
        2 * np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: m * m]
        .reshape(m, m).astype(np.int64) - 1
        for raw in packed
    ]
    ones = np.ones(count, dtype=np.int64)
    for sel in (rng.uniform_mod(2, count) * 2 - 1, ones, -ones):
        r_sum = sum(int(b) * s for b, s in zip(sel, signs))
        float_max = ((1 << 53) - 1) // (m * int(np.abs(r_sum).max()))
        for scale in (1_000, float_max, float_max + 1, 1 << 50):
            y = (rng.uniform_mod(2 * scale, 2 * m) - scale).reshape(m, 2)
            y[0, 0] = scale
            assert np.array_equal(pi._sign_sum_t(sel, packed, y, q), r_sum.T @ y)
        y = (rng.uniform_mod(1 << 60, 2 * m) - (1 << 59)).reshape(m, 2)
        oracle = (r_sum.astype(object).T @ y.astype(object)) % q
        assert np.array_equal(pi._sign_sum_t(sel, packed, y, q) % q, oracle.astype(np.int64))


@pytest.mark.parametrize("shape", [(448, 448, 32), (16, 896, 32), (32, 1792, 1)])
def test_exact_product_at_both_switches(int_small, shape):
    # sample_left's R z, A p and e^T c shapes, with every entry at its
    # maximum but one per odd row, so that those rows sum to the odd value
    # bound - max|b|: just below and just above each switch, and four
    # times past it, where float64 (past 2^53, odd sums) or int64 (past
    # 2^63) is no longer exact.
    q = int_small.q
    rows, inner, cols = shape
    for switch, b_max in ((53, (1 << 20) + 1), (62, (1 << 26) + 3)):
        a_floor = ((1 << switch) - 1) // (inner * b_max)
        for a_max in (a_floor, a_floor + 1, 4 * a_floor + 1):
            a = np.full((rows, inner), a_max, dtype=np.int64)
            a[1::2, 0] -= 1
            b = np.full((inner, cols), b_max, dtype=np.int64)
            got = ml._exact_matmul(a, b, q)
            bound = inner * a_max * b_max
            if bound < 1 << 62:
                assert np.array_equal(got, a @ b)
            if bound < 1 << 63:
                assert np.array_equal(got % q, (a @ b) % q)
            assert np.array_equal(got % q, ml.matmul_mod(a, b, q))


def test_no_walk_per_decrypt_and_test(int_small, user, monkeypatch):
    # Decrypt and test open their slots by trapdoor inversion: no
    # sample_left call and no gadget walk.
    pk, sk = user
    calls = {"left": 0, "walk": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ml, "sample_left", counted("left", ml.sample_left))
    monkeypatch.setattr(ml, "sample_g_batch", counted("walk", ml.sample_g_batch))
    rng = seeded("int-one-walk")
    msg = rng.uniform_mod(2, int_small.t_msg)
    ct = pi.encrypt_int(pk, msg, int_small, rng)
    td = pi.trapdoor_int(sk, pk)
    for run in (
        lambda: np.array_equal(pi.decrypt_int(pk, sk, ct, int_small, rng), msg),
        lambda: pi.test_int(td, td, ct, ct, int_small, rng) == 1,
    ):
        calls.update(left=0, walk=0)
        assert run()
        assert calls == {"left": 0, "walk": 0}
