"""Parameter derivation: structural invariants, inequalities, round-trips."""

import dataclasses
from fractions import Fraction
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from pkeet import pkeet_int, pkeet_ring, serial
from pkeet.errors import FramingError, InvalidParams, ParameterOverflow
from pkeet.matlattice import matmul_mod
from pkeet.ring import RingContext, gadget_columns
from pkeet.params import (
    INT_Q_BOUND,
    INT_STRICT_MULTIPLIER,
    INT_TOY_MULTIPLIER,
    LAMBDA_MAX,
    MULMOD_CAP,
    PROFILES,
    Q_CAP,
    ParamsRing,
    _ring_error_budget,
    derive_int_params,
    derive_ring_params,
    is_prime,
    params_from_text,
    validate,
)


def test_ring_modulus_structure(ring_toy):
    p = ring_toy
    assert is_prime(p.q)
    assert p.q % (2 * p.n) == 1
    assert p.k == p.q.bit_length()
    assert p.m == p.k + p.base_len
    assert p.base_len == 2
    assert p.q < MULMOD_CAP


def test_ring_validation_clean():
    for n in (64, 256):
        for profile in ("toy", "strict"):
            assert validate(derive_ring_params(128, n, profile)) == []


def test_ring_validation_flags_multiply_cap():
    # A prime q = 1 (mod 2n) at or above the cap, which RingContext cannot run.
    base = derive_ring_params(128, 64, "toy")
    q = MULMOD_CAP + 1
    while not is_prime(q):
        q += 2 * base.n
    p = dataclasses.replace(base, q=q, k=q.bit_length(), m=q.bit_length() + 2)
    assert validate(p) == ["q", "k", "m"]
    with pytest.raises(InvalidParams):
        RingContext(p.n, p.q)


# The ring modulus of every degree that derives below the 2^52 cap.
RING_MODULI = {
    16: 400641032801,
    32: 1671602155649,
    64: 7050030948097,
    128: 29954998903553,
    256: 127887583264769,
    512: 547543115493377,
    1024: 2412720128278529,
}


def test_ring_derivation_stops_at_multiply_cap():
    for n, q in RING_MODULI.items():
        for profile in ("toy", "strict"):
            assert derive_ring_params(128, n, profile).q == q < MULMOD_CAP
    with pytest.raises(ParameterOverflow, match="2\\*\\*52"):
        derive_ring_params(128, 2048, "toy")


def test_derived_moduli_run_on_the_kernels():
    # Every record that derives has a modulus its kernels accept, and the
    # degrees whose modulus would reach the cap derive nothing: ring n >= 2048
    # and strict integer n >= 4096.  Derivation only, no key is generated.
    for profile in PROFILES:
        for n in (2**e for e in range(4, 11)):
            q = derive_ring_params(128, n, profile).q
            assert q < MULMOD_CAP
            assert RingContext(n, q).q == q
        for n in (2048, 4096):
            with pytest.raises(ParameterOverflow, match=r"2\*\*52"):
                derive_ring_params(128, n, profile)
        for n in (2**e for e in range(4, 16)):
            if profile == "strict" and n >= 4096:
                with pytest.raises(ParameterOverflow, match=r"2\*\*52"):
                    derive_int_params(128, n, profile)
                continue
            q = derive_int_params(128, n, profile).q
            assert q < MULMOD_CAP
            assert matmul_mod(np.array([[q - 1]]), np.array([[q - 1]]), q).tolist() == [[1]]


def test_inversion_bound_fits_every_derivable_modulus():
    # Trapdoor inversion decodes while every gadget column's error stays
    # within the scheme's bound E, here for the longest trapdoor a frame can
    # hold (every entry at its tail cut): at every record that derives, in
    # both profiles, the decoder has a column schedule for that E.  The
    # margin q / E is at least 2^21.8 in the ring scheme (two columns) and
    # 2^8.4 in the integer scheme (toy n = 16, five columns); strict integer
    # noise rounds to zero, so E = 0 there.  Derivation only, no key is
    # generated.
    for profile in PROFILES:
        for n in (2**e for e in range(4, 11)):
            p = derive_ring_params(128, n, profile)
            col_l1 = p.base_len * n * math.floor(p.t_tail * p.sigma_trap)
            bound = pkeet_ring._inversion_bound(p, col_l1)
            assert len(gadget_columns(p.q, bound)) == 2 and 2**21 * bound < p.q
        for lambda_sec in (80, 128, 256):
            for n in (2**e for e in range(4, 16)):
                if profile == "strict" and n >= 4096:
                    continue
                p = derive_int_params(lambda_sec, n, profile)
                col_l1 = p.m_bar * math.floor(p.t_tail * p.sigma_r)
                bound = pkeet_int._inversion_bound(p, col_l1)
                assert len(gadget_columns(p.q, bound)) <= 5 and 2**8 * bound < p.q
                assert (bound == 0) == (profile == "strict")


_RECORDS = (
    derive_ring_params(128, 64, "toy"),
    derive_ring_params(128, 64, "strict"),
    derive_int_params(128, 16, "toy"),
    derive_int_params(128, 16, "strict"),
)
_CRAFTED = [(0, "n", 0), (0, "n", 2**1100), (0, "zeta", math.inf), (2, "sigma", math.nan), (2, "t_tail", 0)]


def crafted_frame(record: int, name: str, value) -> bytes:
    """A parameter frame whose embedded text carries its own digest."""
    params = dataclasses.replace(_RECORDS[record], **{name: value})
    scheme = serial.SCHEME_RING if isinstance(params, ParamsRing) else serial.SCHEME_INT
    return serial.encode_frame(scheme, serial.KIND_PARAMS, params, b"")


@pytest.mark.parametrize("record,name,value", _CRAFTED)
def test_crafted_parameter_frames_rejected(record, name, value):
    with pytest.raises(FramingError):
        serial.decode_frame(crafted_frame(record, name, value))


_FIELD_VALUES = {
    int: st.one_of(st.sampled_from([0, -1, Q_CAP]), st.integers()),
    float: st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]), st.floats()),
}


def test_validate_strict_int_at_n_one():
    # n = 1 derives nothing (ln 1 = 0 would make the strict alpha ceiling
    # infinite), so both records are refused.
    at_one = dataclasses.replace(_RECORDS[3], n=1)
    for params in (at_one, dataclasses.replace(at_one, m_bar=at_one.m - at_one.k)):
        bad = validate(params)
        assert isinstance(bad, list) and bad


def _oversized_strict_int():
    """A strict n=16 record, m = 100,000 wide, that meets every other
    strict relation: k = 43, m_bar = 99,312, and q, sigma and alpha moved
    to their Eq. 1 bounds at that width.  Its secret key would hold two
    99,312-row R matrices and need a 99,312^2 float64 factor each."""
    base, m = _RECORDS[3], 100_000
    ln_n = math.log(base.n)
    q = int(m**2.5 * math.sqrt(ln_n)) + 1
    while not is_prime(q):
        q += 1
    return dataclasses.replace(
        base, q=q, k=q.bit_length(), m=m, m_bar=m - base.n * q.bit_length(),
        sigma=float(math.ceil(m * base.l * math.sqrt(ln_n))), alpha=0.9 / (base.l**2 * m**2 * math.sqrt(ln_n)),
    )


def test_validate_flags_a_width_derivation_cannot_give():
    # Strict and toy records alike must have m = multiplier * n * k.
    params = _oversized_strict_int()
    assert (params.k, params.m_bar) == (43, 99_312)
    assert validate(params) == ["q", "k", "m", "m_bar", "sigma", "alpha"]
    frame = serial.encode_frame(serial.SCHEME_INT, serial.KIND_PARAMS, params, b"")
    with pytest.raises(FramingError, match="'m', 'm_bar'"):
        serial.decode_frame(frame)


def test_unknown_profile_label_refused():
    # Neither scheme accepts a label outside PROFILES, and no parameter
    # frame carrying one decodes.
    for record in range(len(_RECORDS)):
        assert validate(dataclasses.replace(_RECORDS[record], profile="foo")) == ["unknown profile 'foo'"]
        with pytest.raises(FramingError, match="unknown profile"):
            serial.decode_frame(crafted_frame(record, "profile", "foo"))


def test_records_no_derivation_gives_refused():
    # A toy ring record with b_ots = 2 meets every published relation
    # (2 delta_w b_ots < q/2), but derivation gives b_ots = 1 at toy.
    assert validate(dataclasses.replace(_RECORDS[0], b_ots=2)) == ["b_ots"]
    with pytest.raises(FramingError, match="'b_ots'"):
        serial.decode_frame(crafted_frame(0, "b_ots", 2))


def _oversized_label_strict_int(lambda_sec: int):
    """The strict n=16 integer record the derivation formulas give at a
    label past ``LAMBDA_MAX``: q, k and m do not depend on the label; l,
    t_msg, the signature sizes, sigma and alpha do."""
    base = derive_int_params(LAMBDA_MAX, 16, "strict")
    l, omega, w_sig = 2 * lambda_sec, 2.0 * math.sqrt(math.log2(base.n)), -(-2 * lambda_sec // 3)
    return dataclasses.replace(
        base, lambda_sec=lambda_sec, l=l, t_msg=lambda_sec, w_sig=w_sig, k_sig=4 * w_sig,
        sigma=base.m * l * omega, alpha=1.0 / (l * l * base.m**2 * omega),
    )


def test_oversized_label_refused_in_parameter_block():
    # The pk frame holds a and a_prime and stops there: 369,329 bytes.  Its
    # layout would list l = 2 * 10**7 matrix specs before finding it short;
    # the label cap refuses it in the parameter block instead.
    params = _oversized_label_strict_int(10**7)
    matrix = (params.n * params.m * params.k + 7) // 8
    frame = serial.encode_frame(serial.SCHEME_INT, serial.KIND_PK, params, bytes(2 * matrix))
    assert len(frame) == 369_329
    with pytest.raises(FramingError, match="embedded parameters"):
        serial.decode_object(frame)


def test_derivation_range_checked_first():
    # Labels and dimensions outside the derivable range raise InvalidParams
    # before any float arithmetic (which overflowed at these values).
    for derive in (derive_ring_params, derive_int_params):
        for lambda_sec in (0, -1, LAMBDA_MAX + 1, 100_000, 10**400):
            with pytest.raises(InvalidParams, match=r"must lie in \[1, 256\]"):
                derive(lambda_sec, 64, "strict")
        for n in (15, Q_CAP, 10**400):
            with pytest.raises(InvalidParams, match=r"in \[16, 2\*\*62\)"):
                derive(128, n, "toy")
        assert derive(LAMBDA_MAX, 64, "strict").lambda_sec == LAMBDA_MAX


def test_derived_ring_records_validate_clean():
    # Every relation of the ring scheme holds on the derived grid.
    for lambda_sec in (80, 128, 256):
        for profile in ("toy", "strict"):
            for n in (16, 64, 256, 1024):
                p = derive_ring_params(lambda_sec, n, profile)
                assert validate(p) == []
                assert is_prime(p.q) and p.q % (2 * n) == 1 and 2 * n < p.q < MULMOD_CAP
                assert p.k == p.q.bit_length() and p.base_len == 2 and p.m == p.k + 2
                assert p.sigma_trap >= math.sqrt((math.log(2 * n) + 80 * math.log(2)) / math.pi)
                assert math.isclose(p.alpha_g, math.sqrt(5.0) * p.sigma_trap, rel_tol=1e-12)
                rho = p.t_tail * p.sigma_trap * p.tau
                assert math.isclose(p.gamma, 2.0 * rho * math.sqrt(n), rel_tol=1e-12)
                assert math.isclose(p.mu, rho * math.sqrt(2 * n), rel_tol=1e-12)
                assert 1 <= p.delta_w <= n
                assert p.b_ots >= 1 and 2 * p.delta_w * p.b_ots < p.q // 2
                assert _ring_error_budget(p.tau, p.zeta, p.gamma, p.k, n) < Fraction(p.q // 4)


def test_derived_int_records_validate_clean():
    # Every relation of the integer scheme holds on the derived grid.
    for lambda_sec in (80, 128, 256):
        for profile in ("toy", "strict"):
            mult = INT_STRICT_MULTIPLIER if profile == "strict" else INT_TOY_MULTIPLIER
            for n in (16, 24, 32, 64, 128, 256):
                p = derive_int_params(lambda_sec, n, profile)
                assert validate(p) == []
                assert is_prime(p.q) and p.k == p.q.bit_length() and p.q >= p.q_bound == INT_Q_BOUND
                assert p.m == mult * n * p.k and p.m_bar == p.m - n * p.k >= n * p.k
                assert 0.0 < p.alpha < 1.0 and p.sigma >= 1.0
                assert p.t_msg >= 1 and p.l >= 1 and 1 <= p.w_sig <= p.k_sig
                assert p.b_sig == 1 and p.w_sig * p.b_sig < p.q // 4
                noise_sd = p.alpha * p.q / math.sqrt(2.0 * math.pi)
                e_norm = p.sigma * math.sqrt(2.0 * p.m) / math.sqrt(2.0 * math.pi)
                sd = math.hypot(e_norm * noise_sd * math.sqrt((1.0 + p.l * p.m) / 2.0), noise_sd)
                assert 4 * p.t_tail * sd < p.q
                if profile == "strict":
                    # Eq. 1 floors, with omega(sqrt(log n)) at least sqrt(ln n).
                    root_ln = math.sqrt(math.log(n))
                    assert p.q >= p.m**2.5 * root_ln
                    assert p.sigma >= p.m * p.l * root_ln
                    assert p.alpha <= 1.0 / (p.l**2 * p.m**2 * root_ln)


@settings(max_examples=200, deadline=None)
@given(
    derive=st.sampled_from([derive_ring_params, derive_int_params]),
    lambda_sec=st.one_of(
        st.integers(), st.integers(1, LAMBDA_MAX), st.sampled_from([0, LAMBDA_MAX + 1, -(10**400), 10**400])
    ),
    n=st.one_of(st.integers(), st.sampled_from([16, 64, 1 << 13, Q_CAP - 1, Q_CAP, 10**400]), st.integers(16, 300)),
    profile=st.sampled_from(["toy", "strict"]),
)
def test_derivation_is_total(derive, lambda_sec, n, profile):
    # Any integer triple either derives a record that validates clean or
    # raises InvalidParams; never another exception.
    try:
        params = derive(lambda_sec, n, profile)
    except InvalidParams:
        return
    assert validate(params) == []


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_is_total(data):
    record = data.draw(st.sampled_from(_RECORDS))
    names = [f.name for f in dataclasses.fields(record) if f.name != "profile"]
    name = data.draw(st.sampled_from(names))
    value = data.draw(_FIELD_VALUES[type(getattr(record, name))])
    bad = validate(dataclasses.replace(record, **{name: value}))
    assert isinstance(bad, list)
    if isinstance(value, float) and not math.isfinite(value) or isinstance(value, int) and value < 1:
        assert bad


def test_ring_correctness_inequality(ring_toy):
    p = ring_toy
    t = Fraction(p.t_tail)
    bound = (
        t * Fraction(p.tau) * Fraction(math.isqrt(p.n) + 1)
        + 2 * t * t * Fraction(p.tau) * Fraction(p.zeta) * p.n
        + t * t * Fraction(p.gamma) * Fraction(p.zeta) * p.k * p.n
    )
    assert bound < Fraction(p.q, 4)


def test_ring_preimage_width_floor(ring_toy):
    p = ring_toy
    floor = (
        math.sqrt(5.0)
        * p.sigma_trap**2
        / math.sqrt(2.0 * math.pi)
        * (math.sqrt(p.k * p.n) + math.sqrt(2 * p.n))
    )
    assert p.zeta > floor
    assert math.isclose(p.alpha_g, math.sqrt(5.0) * p.sigma_trap, rel_tol=1e-12)


def test_ring_profiles_differ_only_in_signature_bound():
    toy = derive_ring_params(128, 256, "toy")
    strict = derive_ring_params(128, 256, "strict")
    assert toy.q == strict.q
    assert toy.b_ots == 1
    assert strict.b_ots > 1 << 20
    assert 2 * strict.delta_w * strict.b_ots < strict.q // 2
    assert toy.digest() != strict.digest()


def test_ring_canonical_text_round_trip(ring_toy):
    text = ring_toy.canonical_text()
    again = params_from_text(text)
    assert again.canonical_text() == text
    assert again.digest() == ring_toy.digest()
    assert again.q == ring_toy.q and again.zeta == ring_toy.zeta


def test_ring_rejects_bad_degree():
    with pytest.raises(InvalidParams):
        derive_ring_params(128, 48, "toy")
    with pytest.raises(InvalidParams):
        derive_ring_params(128, 2, "toy")


def test_ring_rejects_unknown_profile():
    with pytest.raises(InvalidParams):
        derive_ring_params(128, 256, "medium")


def test_int_structure(int_toy):
    p = int_toy
    assert is_prime(p.q)
    assert p.k == p.q.bit_length()
    assert p.m == p.m_bar + p.n * p.k
    assert p.m_bar >= p.n * p.k
    assert validate(p) == []
    assert p.t_msg >= 1 and p.k_sig >= p.w_sig >= 1


def test_int_error_budget(int_toy):
    p = int_toy
    # Accumulated decryption error must sit far inside the decode window.
    noise_sd = p.alpha * p.q / math.sqrt(2.0 * math.pi)
    e_norm = p.sigma * math.sqrt(2 * p.m) / math.sqrt(2.0 * math.pi)
    avg_noise = noise_sd * math.sqrt((1 + p.l * p.m) / 2.0)
    sd = math.hypot(e_norm * avg_noise, noise_sd)
    assert 8 * sd < p.q / 4


def test_int_canonical_text_round_trip(int_toy):
    text = int_toy.canonical_text()
    again = params_from_text(text)
    assert again.canonical_text() == text
    assert again.digest() == int_toy.digest()


def test_int_strict_profile_larger():
    toy = derive_int_params(128, 32, "toy")
    strict = derive_int_params(128, 32, "strict")
    assert strict.q > toy.q
    assert strict.m > toy.m
    assert validate(strict) == []


def test_derivations_are_deterministic():
    # Two separate derivations, past the cache.
    a = derive_ring_params.__wrapped__(128, 256, "toy")
    b = derive_ring_params.__wrapped__(128, 256, "toy")
    assert a is not b and a.canonical_text() == b.canonical_text()
    c = derive_int_params.__wrapped__(128, 32, "toy")
    d = derive_int_params.__wrapped__(128, 32, "toy")
    assert c is not d and c.canonical_text() == d.canonical_text()
