"""Ring scheme end to end: round trips, equality tokens, tamper rejection."""

import dataclasses

import numpy as np
import pytest

from pkeet import pkeet_ring as pr
from pkeet import ring, trapdoor_ring
from pkeet.errors import InvalidMessage, PkeetError, RejectHash, RejectSignature
from pkeet.params import _ring_error_budget, derive_ring_params
from pkeet.ring import (
    RingContext,
    RingElement,
    balanced,
    dot_ntt,
    get_context,
)
from pkeet.trapdoor_ring import RingTrapdoor, sample_pre
from conftest import seeded


@pytest.fixture(scope="module")
def users(ring_small):
    rng = seeded("ring-users")
    alice = pr.setup(ring_small, rng)
    bob = pr.setup(ring_small, rng)
    return alice, bob


def random_message(params, rng):
    return RingElement(rng.uniform_mod(2, params.n), get_context(params))


def test_setup_at_n1024_outlasts_64_trapdoor_draws(monkeypatch):
    # At this seed the second trap_gen call accepts its 74th draw of T
    # (the first its 28th), so setup raised GenerationFailed when trap_gen
    # gave up after 64 draws.
    params = derive_ring_params(128, 1024, "toy")
    norm, draws = trapdoor_ring.RingTrapdoor.norm, [0]

    def counted(trap):
        draws[0] += 1
        return norm(trap)

    monkeypatch.setattr(trapdoor_ring.RingTrapdoor, "norm", counted)
    pk, sk = pr.setup(params, seeded("ring-1024-toy-25"))
    assert draws[0] == 28 + 74
    for av, trap in ((pk.a, sk.t_a), (pk.b, sk.t_b)):
        assert not trapdoor_ring.trapdoor_identity_residual(av, trap).any()


def test_round_trip(ring_small, users):
    (pk, sk), _ = users
    rng = seeded("ring-roundtrip")
    for _ in range(10):
        msg = random_message(ring_small, rng)
        ct = pr.encrypt(pk, msg, ring_small, rng)
        assert pr.decrypt(pk, sk, ct, ring_small, rng) == msg


def test_encryption_is_randomized(ring_small, users):
    (pk, _), _ = users
    rng = seeded("ring-randomized")
    msg = random_message(ring_small, rng)
    a = pr.encrypt(pk, msg, ring_small, rng)
    b = pr.encrypt(pk, msg, ring_small, rng)
    assert not np.array_equal(a.ct1, b.ct1)
    assert not np.array_equal(a.sig, b.sig)


def test_non_binary_message_rejected(ring_small, users):
    (pk, _), _ = users
    rng = seeded("ring-badmsg")
    ctx = get_context(ring_small)
    with pytest.raises(InvalidMessage):
        pr.encrypt(pk, RingElement(rng.uniform_mod(ctx.q, ctx.n), ctx), ring_small, rng)


def test_wrong_recipient_rejects(ring_small, users):
    (pk_a, _), (pk_b, sk_b) = users
    rng = seeded("ring-wrong-sk")
    ct = pr.encrypt(pk_a, random_message(ring_small, rng), ring_small, rng)
    with pytest.raises(PkeetError):
        pr.decrypt(pk_b, sk_b, ct, ring_small, rng)


def test_each_component_tamper_rejects(ring_small, users):
    (pk, sk), _ = users
    rng = seeded("ring-tamper")
    msg = random_message(ring_small, rng)
    ct = pr.encrypt(pk, msg, ring_small, rng)

    def bump(arr, index=3):
        out = arr.copy()
        out[index] = (out[index] + 1) % ring_small.q
        return out

    variants = {
        "ct1": pr.CtRing(sig=ct.sig, v=ct.v, ct1=bump(ct.ct1), ct2=ct.ct2, ct3=ct.ct3, ct4=ct.ct4),
        "ct2": pr.CtRing(sig=ct.sig, v=ct.v, ct1=ct.ct1, ct2=bump(ct.ct2), ct3=ct.ct3, ct4=ct.ct4),
    }
    ct3 = ct.ct3.copy(); ct3[0, 0] = (ct3[0, 0] + 1) % ring_small.q
    variants["ct3"] = pr.CtRing(sig=ct.sig, v=ct.v, ct1=ct.ct1, ct2=ct.ct2, ct3=ct3, ct4=ct.ct4)
    ct4 = ct.ct4.copy(); ct4[1, 2] = (ct4[1, 2] + 1) % ring_small.q
    variants["ct4"] = pr.CtRing(sig=ct.sig, v=ct.v, ct1=ct.ct1, ct2=ct.ct2, ct3=ct.ct3, ct4=ct4)
    sig = ct.sig.copy(); sig[0, 0] = (sig[0, 0] + 1) % ring_small.q
    variants["sig"] = pr.CtRing(sig=sig, v=ct.v, ct1=ct.ct1, ct2=ct.ct2, ct3=ct.ct3, ct4=ct.ct4)
    variants["v"] = pr.CtRing(
        sig=ct.sig, v=bump(ct.v, (0, 3)),
        ct1=ct.ct1, ct2=ct.ct2, ct3=ct.ct3, ct4=ct.ct4,
    )
    # Mix and match: each component taken from a second valid ciphertext
    # under the same key.  Each binding hash moves with every component
    # it covers.
    other = pr.encrypt(pk, random_message(ring_small, rng), ring_small, rng)
    swapped = {
        name: dataclasses.replace(ct, **{name: getattr(other, name)})
        for name in ("sig", "v", "ct1", "ct2", "ct3", "ct4")
    }
    swapped["v[0]"] = dataclasses.replace(ct, v=np.stack([other.v[0], ct.v[1]]))
    swapped["v[1]"] = dataclasses.replace(ct, v=np.stack([ct.v[0], other.v[1]]))
    tag = lambda c: pr._tag_shift(ring_small, c.v, pk.a)[0].vec_hat
    ots_msg = lambda c: pr._ots_message(ring_small, c.ct1, c.ct2, c.ct3, c.ct4)
    for binding, names in ((tag, ["v[0]", "v[1]"]), (ots_msg, ["ct1", "ct2", "ct3", "ct4"])):
        for name in names:
            assert not np.array_equal(binding(swapped[name]), binding(ct))
    variants.update({f"{name}-swap": bad for name, bad in swapped.items()})
    for name, bad in variants.items():
        with pytest.raises((RejectSignature, RejectHash)):
            pr.decrypt(pk, sk, bad, ring_small, rng)


def test_equality_token_truth_table(ring_small, users):
    (pk_a, sk_a), (pk_b, sk_b) = users
    rng = seeded("ring-table")
    td_a = pr.trapdoor(sk_a, pk_a)
    td_b = pr.trapdoor(sk_b, pk_b)
    msg = random_message(ring_small, rng)
    other = random_message(ring_small, rng)
    ct_a = pr.encrypt(pk_a, msg, ring_small, rng)
    ct_b = pr.encrypt(pk_b, msg, ring_small, rng)
    ct_c = pr.encrypt(pk_b, other, ring_small, rng)
    assert pr.test(td_a, td_b, ct_a, ct_b, ring_small, rng) == 1
    assert pr.test(td_a, td_b, ct_a, ct_c, ring_small, rng) == 0
    assert pr.test(td_a, td_a, ct_a, ct_a, ring_small, rng) == 1


def test_token_does_not_expose_message_slot(ring_small, users):
    # The token carries only the hash-slot trapdoor; the message trapdoor
    # object must not travel with it.
    (pk, sk), _ = users
    td = pr.trapdoor(sk, pk)
    assert td.t_b is sk.t_b
    for av in (pk.a, pk.b, td.b):
        assert not any(isinstance(v, RingTrapdoor) for v in vars(av).values())
    assert not hasattr(td, "t_a")


def _count_transforms(monkeypatch) -> dict[str, int]:
    """Patch the ring transforms to add their calls and rows to the returned counts."""
    counts = {"calls": 0, "rows": 0}
    for name in ("ntt", "intt"):
        original = getattr(RingContext, name)

        def counted(self, arr, _original=original):
            counts["calls"] += 1
            counts["rows"] += int(np.prod(np.shape(arr)[:-1]))
            return _original(self, arr)

        monkeypatch.setattr(RingContext, name, counted)
    return counts


def test_transform_budget(ring_small, users, monkeypatch):
    # Public vectors stay in NTT slots: an encrypt transforms the two masked
    # vectors once each.  A decrypt or a test transforms each opened slot's
    # head rows and u, the decoder's few gadget columns of [T; I]^T of the
    # slot and the decoded h s, and inverts one product a_h s of m rows
    # plus the payload's mask; no row of the slot's tail is transformed.
    (pk, sk), _ = users
    m = ring_small.m
    rng = seeded("ring-transforms")
    msg = random_message(ring_small, rng)
    counts = _count_transforms(monkeypatch)
    ct = pr.encrypt(pk, msg, ring_small, rng)
    encrypt_rows = counts["rows"]
    assert pr.decrypt(pk, sk, ct, ring_small, rng) == msg
    decrypt_rows = counts["rows"] - encrypt_rows
    td = pr.trapdoor(sk, pk)
    assert pr.test(td, td, ct, ct, ring_small, rng) == 1
    test_rows = counts["rows"] - encrypt_rows - decrypt_rows
    assert encrypt_rows <= 2 * m + 24
    assert decrypt_rows <= 2 * (m + 1) + 24
    assert test_rows <= 2 * (m + 1) + 24


def test_one_transform_call_per_operand_batch(ring_small, users, monkeypatch):
    # Each ring operand goes through the NTT once per operation, and operands
    # needed together share one call: an encrypt and a decrypt make at most
    # 15 transform calls between them.
    (pk, sk), _ = users
    rng = seeded("ring-transform-calls")
    msg = random_message(ring_small, rng)
    counts = _count_transforms(monkeypatch)
    ct = pr.encrypt(pk, msg, ring_small, rng)
    assert pr.decrypt(pk, sk, ct, ring_small, rng) == msg
    assert counts["calls"] <= 15


def test_decryption_noise_within_budget(ring_small, users):
    # Rebuild the noise the message slot decodes through from the public
    # pieces and a fresh preimage; it must stay inside the error budget the
    # modulus was derived from.
    (pk, sk), _ = users
    p = ring_small
    ctx, q = get_context(p), p.q
    budget = _ring_error_budget(p.tau, p.zeta, p.gamma, p.k, p.n)
    rng = seeded("ring-margin")
    worst = 0
    for _ in range(10):
        msg = random_message(p, rng)
        ct = pr.encrypt(pk, msg, p, rng)
        assert pr.decrypt(pk, sk, ct, p, rng) == msg
        (a_h,) = pr._tag_shift(p, ct.v, pk.a)
        x_hat = sample_pre([(sk.t_a, a_h, pk.u)], p, rng)[0]
        inner = ctx.intt(dot_ntt(ctx.ntt(ct.ct3), x_hat, ctx))
        noise = balanced((ct.ct1 - inner - (q // 2) * msg.coeffs) % q, q)
        worst = max(worst, int(np.abs(noise).max()))
    assert worst <= budget


def test_no_walk_and_one_inversion_per_decrypt_and_test(ring_small, users, monkeypatch):
    # Decrypt and test open their slots by trapdoor inversion: no gadget
    # walk and no preimage, and one tag inversion for all of their slots.
    (pk, sk), _ = users
    calls = {"walk": 0, "pre": 0, "invmod": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        trapdoor_ring, "sample_g_batch", counted("walk", trapdoor_ring.sample_g_batch)
    )
    monkeypatch.setattr(trapdoor_ring, "sample_pre", counted("pre", trapdoor_ring.sample_pre))
    inv = counted("invmod", ring.invmod)
    for module in (ring, trapdoor_ring, pr):
        monkeypatch.setattr(module, "invmod", inv)

    rng = seeded("ring-one-walk")
    msg = random_message(ring_small, rng)
    ct = pr.encrypt(pk, msg, ring_small, rng)
    td = pr.trapdoor(sk, pk)
    for run in (
        lambda: pr.decrypt(pk, sk, ct, ring_small, rng) == msg,
        lambda: pr.test(td, td, ct, ct, ring_small, rng) == 1,
    ):
        calls.update(walk=0, pre=0, invmod=0)
        assert run()
        assert calls == {"walk": 0, "pre": 0, "invmod": 1}
