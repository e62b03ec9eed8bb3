"""Integer-lattice scheme end to end (small n=16 instance for speed)."""

import numpy as np
import pytest

from pkeet import pkeet_int as pi
from pkeet.errors import InvalidMessage, RejectHash, RejectSignature
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
        with pytest.raises((RejectSignature, RejectHash)):
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


def test_sign_sum_matches_unpacked_signs():
    # Both the float64 path and the int64 path (values too large for 2^53)
    # equal the selector-weighted sum of the explicit sign matrices.
    rng = seeded("sign-sum")
    m, count = 24, 16
    sel = rng.uniform_mod(2, count) * 2 - 1
    packed = [rng.bytes((m * m + 7) // 8) for _ in sel]
    signs = [
        2 * np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: m * m]
        .reshape(m, m).astype(np.int64) - 1
        for raw in packed
    ]
    r_sum = sum(int(b) * s for b, s in zip(sel, signs))
    for scale in (1_000, 1 << 50):
        y = (rng.uniform_mod(2 * scale, 2 * m) - scale).reshape(m, 2)
        assert np.array_equal(pi._sign_sum_t(sel, packed, y), r_sum.T @ y)
